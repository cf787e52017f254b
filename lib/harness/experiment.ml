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

type traffic = { count : int; calls : int; msgs : int }

type outcome = {
  stats : deletion_stats;
  deletes : int;
  ops : int;
  rpcs : int;
  traffic : (string * traffic) list;
  final_size : int;
  elapsed_s : float;
}

(* Apply one operation and name its kind. *)
let apply_op suite stats measuring op =
  match op with
  | Workload.Lookup k ->
      ignore (Suite.lookup suite k);
      "lookup"
  | Workload.Insert (k, v) -> (
      match Suite.insert suite k v with
      | Ok () -> "insert"
      | Error `Already_present ->
          (* The generator only emits fresh keys; a duplicate means the
             mirror diverged from the suite, which would invalidate the
             statistics. *)
          failwith ("Experiment: unexpected duplicate insert of " ^ k))
  | Workload.Update (k, v) -> (
      match Suite.update suite k v with
      | Ok () -> "update"
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
      end;
      "delete"

let run ?(picker = Picker.Random) ?(seed = 42L) ?batching ?batch_depth ?mix ~config ~n_entries
    ~ops () =
  let root = Rng.create seed in
  let workload_rng = Rng.split root in
  let quorum_seed = Rng.int64 root in
  let n = Config.n_reps config in
  let reps = Array.init n (fun i -> Rep.create ~name:(Printf.sprintf "rep%d" i) ()) in
  let transport = Transport.local reps in
  let txns = Txn.Manager.create () in
  let suite =
    Suite.create ~picker ~seed:quorum_seed ?batching ?batch_depth ~config ~transport ~txns ()
  in
  let workload =
    Workload.create ?lookup_fraction:(Option.map fst mix) ?update_fraction:(Option.map snd mix)
      ~rng:workload_rng ~target_size:n_entries ()
  in
  let stats =
    {
      entries_coalesced = Stats.create ();
      deletions_while_coalescing = Stats.create ();
      insertions_while_coalescing = Stats.create ();
    }
  in
  (* Warm-up: populate to the target size, unmeasured, and deliver its
     deferred commit notices. *)
  List.iter (fun op -> ignore (apply_op suite stats false op)) (Workload.initial_fill workload);
  Suite.flush_notices suite;
  let tally =
    List.map
      (fun kind -> (kind, ref { count = 0; calls = 0; msgs = 0 }))
      [ "lookup"; "insert"; "update"; "delete" ]
  in
  let started = Unix.gettimeofday () in
  for _ = 1 to ops do
    let calls = transport.Transport.rpc_count and msgs = transport.Transport.msg_count in
    let t = List.assoc (apply_op suite stats true (Workload.next workload)) tally in
    t :=
      {
        count = !t.count + 1;
        calls = !t.calls + transport.Transport.rpc_count - calls;
        msgs = !t.msgs + transport.Transport.msg_count - msgs;
      }
  done;
  let elapsed_s = Unix.gettimeofday () -. started in
  let traffic = List.map (fun (kind, t) -> (kind, !t)) tally in
  {
    stats;
    deletes = (List.assoc "delete" traffic).count;
    ops;
    rpcs = List.fold_left (fun acc (_, t) -> acc + t.calls) 0 traffic;
    traffic;
    final_size = Workload.size workload;
    elapsed_s;
  }
