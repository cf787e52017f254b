open Repdir_util
open Repdir_txn
open Repdir_rep
open Repdir_quorum
open Repdir_core
open Repdir_workload

type deletion_stats = {
  entries_coalesced : Stats.t;
  deletions_while_coalescing : Stats.t;
  insertions_while_coalescing : Stats.t;
}

type outcome = {
  stats : deletion_stats;
  deletes : int;
  ops : int;
  rpcs : int;
  final_size : int;
  elapsed_s : float;
}

let apply_op suite stats measuring op =
  match op with
  | Workload.Lookup k -> ignore (Suite.lookup suite k)
  | Workload.Insert (k, v) -> (
      match Suite.insert suite k v with
      | Ok () -> ()
      | Error `Already_present ->
          (* The generator only emits fresh keys; a duplicate means the
             mirror diverged from the suite, which would invalidate the
             statistics. *)
          failwith ("Experiment: unexpected duplicate insert of " ^ k))
  | Workload.Update (k, v) -> (
      match Suite.update suite k v with
      | Ok () -> ()
      | Error `Not_present -> failwith ("Experiment: unexpected missing key on update " ^ k))
  | Workload.Delete k ->
      let report = Suite.delete suite k in
      if not report.Suite.was_present then
        failwith ("Experiment: unexpected missing key on delete " ^ k);
      if measuring then begin
        Array.iter
          (fun (_, removed) -> Stats.add_int stats.entries_coalesced removed)
          report.Suite.removed_per_rep;
        Stats.add_int stats.deletions_while_coalescing report.Suite.ghosts_deleted;
        Stats.add_int stats.insertions_while_coalescing report.Suite.repair_inserts
      end

let run ?(picker = Picker.Random) ?(seed = 42L) ~config ~n_entries ~ops () =
  let root = Rng.create seed in
  let workload_rng = Rng.split root in
  let quorum_seed = Rng.int64 root in
  let n = Config.n_reps config in
  let reps = Array.init n (fun i -> Rep.create ~name:(Printf.sprintf "rep%d" i) ()) in
  let transport = Transport.local reps in
  let txns = Txn.Manager.create () in
  let suite = Suite.create ~picker ~seed:quorum_seed ~config ~transport ~txns () in
  let workload = Workload.create ~rng:workload_rng ~target_size:n_entries () in
  let stats =
    {
      entries_coalesced = Stats.create ();
      deletions_while_coalescing = Stats.create ();
      insertions_while_coalescing = Stats.create ();
    }
  in
  (* Warm-up: populate to the target size, unmeasured. *)
  List.iter (apply_op suite stats false) (Workload.initial_fill workload);
  let rpcs_before = transport.Transport.rpc_count in
  let started = Unix.gettimeofday () in
  let deletes = ref 0 in
  for _ = 1 to ops do
    let op = Workload.next workload in
    (match op with Workload.Delete _ -> incr deletes | _ -> ());
    apply_op suite stats true op
  done;
  let elapsed_s = Unix.gettimeofday () -. started in
  {
    stats;
    deletes = !deletes;
    ops;
    rpcs = transport.Transport.rpc_count - rpcs_before;
    final_size = Workload.size workload;
    elapsed_s;
  }
