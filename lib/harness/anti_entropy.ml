open Repdir_util
open Repdir_key
open Repdir_sim
open Repdir_rep
open Repdir_core
open Repdir_sync

(* --- pointwise divergence metrics ---------------------------------------------- *)

(* Version at a single key from a representative's inspection views: its
   entry version, or the version of the gap the key falls in. *)
let version_at entries gaps k =
  match List.find_opt (fun (k', _, _) -> Key.equal k k') entries with
  | Some (_, v, _) -> v
  | None -> (
      let bk = Bound.Key k in
      match
        List.find_opt
          (fun (lo, hi, _) -> Bound.compare lo bk < 0 && Bound.compare bk hi < 0)
          gaps
      with
      | Some (_, _, g) -> g
      | None -> Version.lowest)

(* Number of (key, version, value) triples present in one representative but
   not the other — the size of the pointwise entry difference the sync layer
   must move to reconcile them. *)
let entry_divergence a b =
  let index r =
    let tbl = Hashtbl.create 64 in
    List.iter (fun (k, v, value) -> Hashtbl.replace tbl k (v, value)) (Rep.entries r);
    tbl
  in
  let ta = index a and tb = index b in
  let d = ref 0 in
  let one_way ta tb =
    Hashtbl.iter (fun k s -> if Hashtbl.find_opt tb k <> Some s then incr d) ta
  in
  one_way ta tb;
  one_way tb ta;
  !d

(* Total entries lagging the suite-wide maximum version of their key, summed
   over live representatives — the staleness a read quorum has to paper over. *)
let stale_entries reps =
  let vmax = Hashtbl.create 64 in
  let live = Array.to_list reps |> List.filter (fun r -> not (Rep.is_crashed r)) in
  List.iter
    (fun r ->
      List.iter
        (fun (k, v, _) ->
          match Hashtbl.find_opt vmax k with
          | Some v0 when Version.compare v0 v >= 0 -> ()
          | _ -> Hashtbl.replace vmax k v)
        (Rep.entries r))
    live;
  let stale = ref 0 in
  List.iter
    (fun r ->
      let entries = Rep.entries r and gaps = Rep.gaps r in
      Hashtbl.iter
        (fun k v -> if Version.compare (version_at entries gaps k) v < 0 then incr stale)
        vmax)
    live;
  !stale

let all_digests_equal reps =
  Array.to_list reps
  |> List.filter (fun r -> not (Rep.is_crashed r))
  |> List.mapi (fun i r -> (i, Rep.root_digest r))
  |> Sync.digests_equal

(* --- partition-then-heal convergence campaign ----------------------------------- *)

type outcome = {
  seed : int64;
  victim : int;
  directory_size : int;
  diverged_entries : int;
  converged : bool;
  heal_to_converged : float;
  entries_sent : int;
  digest_rpcs : int;
  pull_rpcs : int;
  sessions : int;
  sessions_failed : int;
  ghosts_kept : int;
  sim_events : int;
}

let convergence ?(seed = 1983L) ?(n_entries = 120) ?(partition_writes = 12) ?sync_config
    ?(deadline = 1500.0) () =
  let config = Repdir_quorum.Config.simple ~n:3 ~r:2 ~w:2 in
  let n = Repdir_quorum.Config.n_reps config in
  let sync_config =
    match sync_config with
    | Some c -> c
    | None ->
        (* Small leaf ranges keep each pull tight around the actual
           divergence, which is what lets the O(diff) assertion hold with a
           wide margin; the price is a few more digest rounds. *)
        { Sync.period = 25.0; leaf_entries = 2 }
  in
  (* Single RPC attempts and single-phase commit, the paper's defaults: a
     call into the partition fails after one timeout instead of a retry
     storm, and a write commits on the surviving quorum even though the
     transaction brushed the unreachable victim (two-phase commit would
     conservatively abort it, since a timed-out participant might still
     execute a delayed request later). Client-level retries re-run failed
     operations against fresh quorums. *)
  let world =
    Shard_world.create ~seed ~rpc_timeout:10.0 ~rpc_attempts:1 ~n_clients:1 ~two_phase:false
      ~config ~groups:1 ()
  in
  let sim = Shard_world.sim world in
  let net = Shard_world.net world in
  let reps = Shard_world.group_reps world 0 in
  let sync = Shard_world.make_sync ~config:sync_config world [ 0 ] in
  Sync.run sync sim;
  (* The background actor stays off until the heal, so the post-heal counter
     deltas measure exactly the partition-repair traffic. *)
  Sync.set_enabled sync false;
  let suite = Shard_world.suite_for_client world 0 0 in
  let rng = Rng.create (Int64.add seed 3L) in
  let retry_rng = Rng.create (Int64.add seed 4L) in
  let victim = Rng.int rng n in
  let diverged = ref 0 in
  let heal_time = ref 0.0 in
  let presync_ok = ref false in
  let converged_at = ref None in
  let baseline = ref (0, 0, 0, 0, 0, 0) in
  let retried f =
    Suite.with_retries ~attempts:4 ~backoff:2.0 ~sleep:(Sim.sleep sim) ~rng:retry_rng f
  in
  Sim.spawn sim (fun () ->
      (* Build the directory while the suite is healthy. *)
      for k = 0 to n_entries - 1 do
        (try ignore (retried (fun () -> Suite.insert suite (Key.of_int k) (Printf.sprintf "v%d" k)))
         with Suite.Unavailable _ | Repdir_txn.Txn.Abort _ -> ());
        Sim.sleep sim 1.0
      done;
      (* Quorum writes (w < n) scatter entries, so the representatives
         already diverge. Reconcile with explicit full-mesh rounds, at most
         12, until the digests agree: the partition-repair measurement then
         starts from identical replicas. *)
      presync_ok :=
        Sim.retry sim ~every:1.0 (`Retries 12) (fun k ->
            all_digests_equal reps || (k < 12 && (Sync.round_all_pairs sync; false)));
      (* Isolate the victim from every other node (reps, client, syncer). *)
      let everyone_else =
        List.filter (fun j -> j <> victim) (List.init (Net.n_nodes net) Fun.id)
      in
      Net.partition net [ victim ] everyone_else;
      (* Client writes the victim cannot see: updates, fresh inserts and
         deletes, so reconciliation must install, overwrite and coalesce. *)
      for w = 0 to partition_writes - 1 do
        let key = Key.of_int (Rng.int rng (n_entries + (n_entries / 4))) in
        let value = Printf.sprintf "p%d" w in
        (try
           retried (fun () ->
               match Rng.int rng 4 with
               | 0 | 1 -> ignore (Suite.insert suite key value)
               | 2 -> ignore (Suite.update suite key value)
               | _ -> ignore (Suite.delete suite key))
         with Suite.Unavailable _ | Repdir_txn.Txn.Abort _ -> ());
        Sim.sleep sim 2.0
      done;
      Net.heal_partition net;
      heal_time := Sim.now sim;
      let healthy = if victim = 0 then 1 else 0 in
      diverged := entry_divergence reps.(victim) reps.(healthy);
      let c = Sync.counters sync in
      baseline :=
        ( c.Sync.entries_sent,
          c.Sync.digest_rpcs,
          c.Sync.pull_rpcs,
          c.Sync.sessions,
          c.Sync.sessions_failed,
          c.Sync.ghosts_kept );
      (* From here on: zero client traffic. Only the background actor runs,
         with [deadline] virtual time units to converge the suite. *)
      Sync.set_enabled sync true;
      let cutoff = Sim.now sim +. deadline in
      if Sim.retry sim ~every:5.0 (`Until cutoff) (fun _ -> all_digests_equal reps) then
        converged_at := Some (Sim.now sim);
      Sync.stop sync);
  Sim.run sim;
  let c = Sync.counters sync in
  let b_sent, b_digests, b_pulls, b_sessions, b_failed, b_ghosts = !baseline in
  {
    seed;
    victim;
    directory_size = Array.fold_left (fun acc r -> max acc (Rep.size r)) 0 reps;
    diverged_entries = !diverged;
    converged = !presync_ok && Option.is_some !converged_at;
    heal_to_converged =
      (match !converged_at with Some t -> t -. !heal_time | None -> Float.nan);
    entries_sent = c.Sync.entries_sent - b_sent;
    digest_rpcs = c.Sync.digest_rpcs - b_digests;
    pull_rpcs = c.Sync.pull_rpcs - b_pulls;
    sessions = c.Sync.sessions - b_sessions;
    sessions_failed = c.Sync.sessions_failed - b_failed;
    ghosts_kept = c.Sync.ghosts_kept - b_ghosts;
    sim_events = Sim.events_executed sim;
  }

let table_of_outcomes outcomes =
  let t =
    Table.create
      ~header:
        [ "seed"; "victim"; "size"; "diverged"; "converged"; "heal->sync"; "sent"; "digests";
          "pulls"; "sessions"; "failed"; "events" ]
      ()
  in
  List.iter
    (fun o ->
      Table.add_row t
        (Int64.to_string o.seed :: Table.cell_int o.victim :: Table.cell_int o.directory_size
         :: Table.cell_int o.diverged_entries
         :: (if o.converged then "yes" else "NO")
         :: (if o.converged then Table.cell_float o.heal_to_converged else "-")
         :: List.map Table.cell_int
              [ o.entries_sent; o.digest_rpcs; o.pull_rpcs; o.sessions; o.sessions_failed;
                o.sim_events ]))
    outcomes;
  t
