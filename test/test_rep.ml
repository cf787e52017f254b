(* Tests for the directory representative: Figure 6 operation semantics with
   locking, rollback on abort, crash recovery from the write-ahead log
   (including randomized equivalence properties), checkpointing, and the
   waiter/deadlock integration used by the simulator. *)

open Repdir_key
open Repdir_txn
open Repdir_rep
open Repdir_gapmap.Gapmap_intf

let new_rep ?waiter ?lock_group () = Rep.create ?waiter ?lock_group ~name:"r" ()

let seeded () =
  let r = new_rep () in
  Rep.insert r ~txn:1 "b" 1 "vb";
  Rep.insert r ~txn:1 "d" 1 "vd";
  Rep.insert r ~txn:1 "f" 1 "vf";
  Rep.commit r ~txn:1;
  r

let keys r = List.map (fun (k, _, _) -> k) (Rep.entries r)

(* A one-step walk: DirRepPredecessor ([Down]) or DirRepSuccessor ([Up]). *)
let neighbor r ~txn dir b = fst (List.hd (Rep.walk r ~txn dir b ~depth:1))

let chain r ~txn dir b ~depth = List.map fst (Rep.walk r ~txn dir b ~depth)

(* A message envelope with no stamps and no notices. *)
let unstamped = { Rep.notices = []; deadline = None; shard_epoch = None; member_epoch = 0 }

(* --- operation semantics ----------------------------------------------------------- *)

let test_lookup_present_and_absent () =
  let r = seeded () in
  (match Rep.lookup r ~txn:2 (Bound.Key "d") with
  | Present { version; value } ->
      Alcotest.(check int) "version" 1 version;
      Alcotest.(check string) "value" "vd" value
  | Absent _ -> Alcotest.fail "d must be present");
  (match Rep.lookup r ~txn:2 (Bound.Key "c") with
  | Absent { gap_version } -> Alcotest.(check int) "gap version" 0 gap_version
  | Present _ -> Alcotest.fail "c must be absent");
  Rep.commit r ~txn:2

let test_predecessor_successor () =
  let r = seeded () in
  let p = neighbor r ~txn:2 Down (Bound.Key "d") in
  Alcotest.(check string) "pred of d" "b" (Bound.to_string p.key);
  let s = neighbor r ~txn:2 Up (Bound.Key "d") in
  Alcotest.(check string) "succ of d" "f" (Bound.to_string s.key);
  let s2 = neighbor r ~txn:2 Up (Bound.Key "f") in
  Alcotest.(check string) "succ of last" "HIGH" (Bound.to_string s2.key);
  Rep.commit r ~txn:2

let test_coalesce_returns_count () =
  let r = seeded () in
  let removed = Rep.coalesce r ~txn:2 ~lo:(Bound.Key "b") ~hi:(Bound.Key "f") 2 in
  Alcotest.(check int) "one entry between" 1 removed;
  Rep.commit r ~txn:2;
  Alcotest.(check (list string)) "d gone" [ "b"; "f" ] (keys r)

let test_coalesce_missing_endpoint_error () =
  let r = seeded () in
  (try
     ignore (Rep.coalesce r ~txn:2 ~lo:(Bound.Key "a") ~hi:(Bound.Key "f") 2);
     Alcotest.fail "missing endpoint accepted"
   with Missing_endpoint _ -> ());
  Rep.abort r ~txn:2

let test_predecessor_chain () =
  let r = seeded () in
  let preds = chain r ~txn:2 Down (Bound.Key "f") ~depth:3 in
  Alcotest.(check (list string)) "three predecessors, descending"
    [ "d"; "b"; "LOW" ]
    (List.map (fun (n : Repdir_gapmap.Gapmap_intf.neighbor) -> Bound.to_string n.key) preds);
  (* Chain stops at LOW even if depth allows more. *)
  let short = chain r ~txn:2 Down (Bound.Key "d") ~depth:5 in
  Alcotest.(check (list string)) "stops at LOW" [ "b"; "LOW" ]
    (List.map (fun (n : Repdir_gapmap.Gapmap_intf.neighbor) -> Bound.to_string n.key) short);
  Rep.commit r ~txn:2

let test_successor_chain () =
  let r = seeded () in
  let succs = chain r ~txn:2 Up (Bound.Key "b") ~depth:3 in
  Alcotest.(check (list string)) "successors ascending" [ "d"; "f"; "HIGH" ]
    (List.map (fun (n : Repdir_gapmap.Gapmap_intf.neighbor) -> Bound.to_string n.key) succs);
  Rep.commit r ~txn:2

let test_chain_gap_versions () =
  (* Each chain element carries the version of the gap on its walk side. *)
  let r = seeded () in
  ignore (Rep.coalesce r ~txn:2 ~lo:(Bound.Key "b") ~hi:(Bound.Key "d") 7);
  Rep.commit r ~txn:2;
  (match chain r ~txn:3 Down (Bound.Key "f") ~depth:2 with
  | [ d; b ] ->
      Alcotest.(check int) "gap after d" 0 d.Repdir_gapmap.Gapmap_intf.gap_version;
      Alcotest.(check int) "gap after b (coalesced)" 7 b.Repdir_gapmap.Gapmap_intf.gap_version
  | _ -> Alcotest.fail "expected two elements");
  Rep.commit r ~txn:3

let test_walk_values () =
  let r = seeded () in
  (* Transaction 2 rewrites d, then walks over it: every neighbour's value is
     read under the walk's lock, so it sees its own write, and the sentinel
     carries "". *)
  Rep.insert r ~txn:2 "d" 2 "vd2";
  let walked = Rep.walk r ~txn:2 Up (Bound.Key "b") ~depth:3 in
  Alcotest.(check (list (pair string string)))
    "neighbours and values"
    [ ("d", "vd2"); ("f", "vf"); ("HIGH", "") ]
    (List.map (fun ((n : neighbor), v) -> (Bound.to_string n.key, v)) walked);
  (* The span lock covers f: a writer of f must wait (the default waiter
     raises). *)
  (try
     Rep.insert r ~txn:3 "f" 2 "vf2";
     Alcotest.fail "a write inside the walked span proceeded without waiting"
   with Failure _ -> ());
  Rep.abort r ~txn:3;
  Rep.commit r ~txn:2;
  (* [B_walk] through [execute] answers exactly what [walk] answers, and
     each probe counts once whatever its depth. *)
  let c = Rep.counters r in
  let preds0 = c.Rep.predecessors and succs0 = c.Rep.successors in
  List.iter
    (fun (dir, b, depth) ->
      let direct = Rep.walk r ~txn:4 dir b ~depth in
      match Rep.execute r unstamped ~txn:5 [ Rep.B_walk (dir, b, depth) ] with
      | [ Rep.R_walk batched ] ->
          Alcotest.(check bool) "B_walk answers what walk answers" true (batched = direct)
      | _ -> Alcotest.fail "expected one R_walk")
    [ (Rep.Down, Bound.Key "f", 3); (Rep.Up, Bound.Low, 2); (Rep.Up, Bound.Key "c", 1) ];
  Alcotest.(check int) "one predecessors count per probe" (preds0 + 2) c.Rep.predecessors;
  Alcotest.(check int) "one successors count per probe" (succs0 + 4) c.Rep.successors;
  Rep.commit r ~txn:4;
  Rep.commit r ~txn:5

(* --- rollback ------------------------------------------------------------------------ *)

let test_abort_rolls_back_insert () =
  let r = seeded () in
  Rep.insert r ~txn:2 "c" 2 "vc";
  Alcotest.(check (list string)) "visible before abort" [ "b"; "c"; "d"; "f" ] (keys r);
  Rep.abort r ~txn:2;
  Alcotest.(check (list string)) "gone after abort" [ "b"; "d"; "f" ] (keys r)

let test_abort_rolls_back_update () =
  let r = seeded () in
  Rep.insert r ~txn:2 "d" 5 "changed";
  Rep.abort r ~txn:2;
  match Rep.lookup r ~txn:3 (Bound.Key "d") with
  | Present { version; value } ->
      Alcotest.(check int) "old version" 1 version;
      Alcotest.(check string) "old value" "vd" value
  | Absent _ -> Alcotest.fail "d lost"

let test_abort_rolls_back_coalesce () =
  let r = seeded () in
  let before_gaps = Rep.gaps r in
  ignore (Rep.coalesce r ~txn:2 ~lo:Bound.Low ~hi:Bound.High 7);
  Alcotest.(check int) "all removed" 0 (List.length (Rep.entries r));
  Rep.abort r ~txn:2;
  Alcotest.(check (list string)) "entries restored" [ "b"; "d"; "f" ] (keys r);
  Alcotest.(check bool) "gap versions restored" true (Rep.gaps r = before_gaps)

let test_abort_mixed_operations () =
  let r = seeded () in
  let before_entries = Rep.entries r and before_gaps = Rep.gaps r in
  Rep.insert r ~txn:2 "c" 2 "vc";
  ignore (Rep.coalesce r ~txn:2 ~lo:(Bound.Key "c") ~hi:(Bound.Key "f") 3);
  Rep.insert r ~txn:2 "e" 4 "ve";
  Rep.insert r ~txn:2 "b" 5 "vb'";
  Rep.abort r ~txn:2;
  Alcotest.(check bool) "entries restored exactly" true (Rep.entries r = before_entries);
  Alcotest.(check bool) "gaps restored exactly" true (Rep.gaps r = before_gaps)

(* --- locking --------------------------------------------------------------------------- *)

let test_strict_2pl_blocks_conflicting_txn () =
  (* With the default no-waiter, a conflicting acquisition fails loudly —
     proving the lock is actually held to commit. *)
  let r = seeded () in
  Rep.insert r ~txn:2 "c" 2 "vc";
  (try
     ignore (Rep.lookup r ~txn:3 (Bound.Key "c"));
     Alcotest.fail "conflicting lookup proceeded without waiting"
   with Failure _ -> ());
  Rep.commit r ~txn:2;
  (* After commit the lock is free. *)
  (match Rep.lookup r ~txn:3 (Bound.Key "c") with
  | Present _ -> ()
  | Absent _ -> Alcotest.fail "c must be present");
  Rep.commit r ~txn:3

let test_waiter_is_used_for_blocking () =
  let pending = ref None in
  let waiter register =
    (* Record the wake-up and pretend to block; the test fires it later. *)
    register (fun () -> ());
    pending := Some ()
  in
  let r = new_rep ~waiter () in
  Rep.insert r ~txn:1 "k" 1 "v";
  ignore (Rep.lookup r ~txn:2 (Bound.Key "k"));
  Alcotest.(check bool) "waiter invoked" true (!pending <> None);
  Alcotest.(check int) "lock wait counted" 1 (Rep.counters r).Rep.lock_waits

let test_deadlock_raises_txn_abort () =
  let group = Repdir_lock.Lock_manager.new_group () in
  let waiter register = register (fun () -> ()) in
  let a = new_rep ~waiter ~lock_group:group () in
  let b = new_rep ~waiter ~lock_group:group () in
  (* txn 1 writes at a, txn 2 writes at b; then each requests the other's
     key — the second request must abort with a deadlock. *)
  Rep.insert a ~txn:1 "k" 1 "v";
  Rep.insert b ~txn:2 "k" 1 "v";
  ignore (Rep.insert b ~txn:1 "k" 2 "v") (* txn1 now waits at b *);
  try
    Rep.insert a ~txn:2 "k" 2 "v";
    Alcotest.fail "expected deadlock abort"
  with Txn.Abort (Txn.Deadlock cycle) ->
    Alcotest.(check bool) "cycle has both txns" true (List.mem 1 cycle && List.mem 2 cycle)

(* A grant and a lease expiry at one instant. Transaction 1 holds RepModify
   on k and renews its lease at 5; transaction 2 starts waiting for k at 1,
   so its lease runs out at 11, the instant transaction 1 commits. The
   commit grants 2 the lock first, then the sweep aborts 2 and releases it,
   and only then does 2 resume. Its insert must unwind as an abort and leave
   the map, the undo log and the write-ahead log exactly as if 2 had never
   asked for the lock: the control run has 2 only renew its lease at 1. *)
let test_lease_expiry_at_grant () =
  let open Repdir_sim in
  let run ~waits =
    let sim = Sim.create () in
    let timers =
      {
        Rep.now = (fun () -> Sim.now sim);
        after = (fun d k -> Sim.spawn sim ~at:(Sim.now sim +. d) k);
      }
    in
    let r = Rep.create ~waiter:(Sim.suspend sim) ~timers ~lease:10.0 ~name:"r" () in
    let second = ref `Pending in
    Sim.spawn sim (fun () -> Rep.insert r ~txn:1 "k" 1 "v1");
    Sim.spawn sim ~at:11.0 (fun () -> Rep.commit r ~txn:1);
    Sim.spawn sim ~at:5.0 (fun () -> Rep.keepalive r ~txn:1);
    Sim.spawn sim ~at:1.0 (fun () ->
        if waits then
          second :=
            match Rep.insert r ~txn:2 "k" 2 "v2" with
            | () -> `Ran
            | exception Txn.Abort _ -> `Aborted
        else Rep.keepalive r ~txn:2);
    Sim.run sim;
    (r, !second)
  in
  let r, second = run ~waits:true in
  let control, _ = run ~waits:false in
  Alcotest.(check int) "the second transaction waited" 1 (Rep.counters r).Rep.lock_waits;
  Alcotest.(check bool) "its op unwound as an abort" true (second = `Aborted);
  Alcotest.(check bool) "aborted here" true (Rep.outcome_of r 2 = `Aborted);
  Alcotest.(check (list (triple string int string)))
    "the map holds only the committed write" [ ("k", 1, "v1") ] (Rep.entries r);
  Alcotest.(check int) "no lock held" 0 (Rep.locks_held r);
  Alcotest.(check int) "no lease left" 0 (Rep.active_txn_count r);
  Alcotest.(check int) "WAL as in the control run" (Rep.wal_length control) (Rep.wal_length r);
  Alcotest.(check (list string)) "live map equals the WAL replay" [] (Rep.scrub r);
  (* A checkpoint needs an empty undo log. *)
  Rep.checkpoint r

(* A lease expiry inside a forced vote. Transaction 1 inserts at 0, so its
   lease runs out at 10, and asks for its vote at 9. Transaction 2 inserted
   at 5 and has not voted, so it could join a group: the vote holds a
   2-unit group-commit window open, and at 10 the sweep aborts the
   unprepared transaction and rolls its insert back. The vote must then be
   no: a yes would promise a write the representative no longer holds, and
   its lease record would ask for resolution forever. So the simulation
   ends once transaction 2's lease runs out at 15, and nothing of either
   transaction is left. *)
let test_lease_expiry_in_forced_vote () =
  let open Repdir_sim in
  let sim = Sim.create () in
  let timers =
    {
      Rep.now = (fun () -> Sim.now sim);
      after = (fun d k -> Sim.spawn sim ~at:(Sim.now sim +. d) k);
    }
  in
  let r =
    Rep.create ~waiter:(Sim.suspend sim) ~timers ~lease:10.0 ~group_commit:2.0 ~name:"r" ()
  in
  let vote = ref `Pending in
  Sim.spawn sim (fun () -> Rep.insert r ~txn:1 "k" 1 "v1");
  Sim.spawn sim ~at:5.0 (fun () -> Rep.insert r ~txn:2 "j" 2 "v2");
  Sim.spawn sim ~at:9.0 (fun () ->
      vote :=
        match Rep.prepare r ~txn:1 ~coord:0 with
        | () -> `Yes
        | exception Txn.Abort _ -> `No);
  Sim.run ~until:1000.0 sim;
  Alcotest.(check bool) "the vote is no" true (!vote = `No);
  Alcotest.(check bool) "aborted here" true (Rep.outcome_of r 1 = `Aborted);
  Alcotest.(check (list (triple string int string))) "the insert rolled back" [] (Rep.entries r);
  Alcotest.(check int) "no lock held" 0 (Rep.locks_held r);
  Alcotest.(check int) "no lease left" 0 (Rep.active_txn_count r);
  Alcotest.(check int) "nothing in doubt" 0 (Rep.in_doubt_count r);
  Alcotest.(check (list string)) "live map equals the WAL replay" [] (Rep.scrub r);
  Alcotest.(check bool) "the simulation ends" true (Sim.now sim < 1000.0)

(* --- termination states ------------------------------------------------------------------ *)

(* The state table: what each entry point does for a transaction in each
   state a representative tells apart. Each cell brings transaction 2 into
   its state on a fresh sequential representative, then calls one entry
   point. "runs" and "aborts" say whether the call raised [Txn.Abort];
   "live" is [active_txn_count]/[in_doubt_count] before the call. With no
   lease configured, only a prepared transaction holds a live record. *)
let test_state_table () =
  let active r = Rep.insert r ~txn:2 "x" 2 "v" in
  let prepared r =
    active r;
    Rep.prepare r ~txn:2 ~coord:1
  in
  let attempt f = match f () with () -> "runs" | exception Txn.Abort _ -> "aborts" in
  let entry_points =
    [
      ("lookup", fun r -> attempt (fun () -> ignore (Rep.lookup r ~txn:2 (Bound.Key "d"))));
      ("insert", fun r -> attempt (fun () -> Rep.insert r ~txn:2 "y" 3 "v"));
      ("prepare", fun r -> attempt (fun () -> Rep.prepare r ~txn:2 ~coord:1));
      ("commit", fun r -> attempt (fun () -> Rep.commit r ~txn:2));
      ("abort", fun r -> attempt (fun () -> Rep.abort r ~txn:2));
      ("finish_readonly", fun r -> string_of_bool (Rep.finish_readonly r ~txn:2));
      ( "outcome",
        fun r ->
          match Rep.outcome_of r 2 with `Committed -> "C" | `Aborted -> "A" | `Unknown -> "?" );
      ( "live",
        fun r -> Printf.sprintf "%d/%d" (Rep.active_txn_count r) (Rep.in_doubt_count r) );
    ]
  in
  List.iter
    (fun (state, into, row) ->
      List.iter2
        (fun (entry, call) cell ->
          let r = seeded () in
          into r;
          Alcotest.(check string) (state ^ " / " ^ entry) cell (call r))
        entry_points row)
    [
      ("fresh", ignore, [ "runs"; "runs"; "runs"; "runs"; "runs"; "true"; "?"; "0/0" ]);
      ("active", active, [ "runs"; "runs"; "runs"; "runs"; "runs"; "false"; "?"; "0/0" ]);
      ("prepared", prepared, [ "runs"; "runs"; "runs"; "runs"; "runs"; "false"; "?"; "1/0" ]);
      ( "in doubt",
        (fun r ->
          prepared r;
          Rep.crash r;
          Rep.recover r),
        [ "aborts"; "aborts"; "runs"; "runs"; "runs"; "false"; "?"; "0/1" ] );
      ( "committed",
        (fun r ->
          active r;
          Rep.commit r ~txn:2),
        [ "aborts"; "aborts"; "runs"; "runs"; "aborts"; "false"; "C"; "0/0" ] );
      ( "aborted",
        (fun r ->
          active r;
          Rep.abort r ~txn:2),
        [ "aborts"; "aborts"; "aborts"; "aborts"; "runs"; "false"; "A"; "0/0" ] );
    ]

(* A duplicate commit that arrives while in-doubt resolution forces its
   commit record. Transaction 1 inserts at 0 and votes at 1; no other
   writer is open, so the vote syncs at once, its lease runs out at 11 and
   it goes in doubt. Transaction 2 inserted at 10 and has not voted, so
   when the resolver answers commit at once, the commit record's force
   holds a 2-unit group-commit window open until 13. A [Rep.commit] at 12
   must find the transaction ended, not resolve it a second time: the log
   holds one commit record, as in the control run without the duplicate.
   Transaction 2's insert and its lease abort add two records to both. The
   twin run crashes the representative after the vote, so recovery restores
   the transaction in doubt and commit re-applies its redo records;
   transaction 2 inserts just after recovery, and the duplicate arrives one
   unit after it. *)
let test_duplicate_commit_during_resolution () =
  let open Repdir_sim in
  let run ~recovered ~duplicate =
    let sim = Sim.create () in
    let timers =
      {
        Rep.now = (fun () -> Sim.now sim);
        after = (fun d k -> Sim.spawn sim ~at:(Sim.now sim +. d) k);
      }
    in
    let r =
      Rep.create ~waiter:(Sim.suspend sim) ~timers ~lease:10.0 ~group_commit:2.0 ~name:"r" ()
    in
    Rep.set_resolver r (fun ~coord:_ _ -> Some (`Committed, Rep.By_coordinator));
    Sim.spawn sim (fun () -> Rep.insert r ~txn:1 "k" 1 "v1");
    Sim.spawn sim ~at:1.0 (fun () -> Rep.prepare r ~txn:1 ~coord:0);
    let resolving = if recovered then 6.0 else 11.0 in
    let sibling () = Rep.insert r ~txn:2 "j" 2 "v2" in
    if recovered then
      Sim.spawn sim ~at:resolving (fun () ->
          Rep.crash r;
          Rep.recover r;
          sibling ())
    else Sim.spawn sim ~at:(resolving -. 1.0) sibling;
    if duplicate then Sim.spawn sim ~at:(resolving +. 1.0) (fun () -> Rep.commit r ~txn:1);
    Sim.run ~until:1000.0 sim;
    r
  in
  List.iter
    (fun (recovered, wal) ->
      let label s = (if recovered then "recovered: " else "expired: ") ^ s in
      let control = run ~recovered ~duplicate:false in
      let r = run ~recovered ~duplicate:true in
      Alcotest.(check int) (label "control WAL") wal (Rep.wal_length control);
      Alcotest.(check int) (label "one commit record") wal (Rep.wal_length r);
      Alcotest.(check bool) (label "committed") true (Rep.outcome_of r 1 = `Committed);
      Alcotest.(check (list (triple string int string)))
        (label "the insert applied once") [ ("k", 1, "v1") ] (Rep.entries r);
      Alcotest.(check int) (label "no lock held") 0 (Rep.locks_held r);
      Alcotest.(check int) (label "nothing in doubt") 0 (Rep.in_doubt_count r);
      Alcotest.(check (list string)) (label "live map equals the WAL replay") [] (Rep.scrub r))
    [ (false, 5); (true, 6) ]

(* A force with no one to wait for. Transaction 1 inserts at 0 and asks for
   its vote at 1 under a 2-unit group-commit window. Alone, the vote syncs
   and returns at 1. With transaction 2's insert open and unvoted, the vote
   holds the window and returns at 3, and transaction 2's own vote at 2
   rides on that sync. Run without a lease too, where an unvoted writer is
   [Fresh] rather than [Active]. *)
let test_lone_force_does_not_wait () =
  let open Repdir_sim in
  let run ?lease ~sibling () =
    let sim = Sim.create () in
    let timers =
      {
        Rep.now = (fun () -> Sim.now sim);
        after = (fun d k -> Sim.spawn sim ~at:(Sim.now sim +. d) k);
      }
    in
    let r = Rep.create ~waiter:(Sim.suspend sim) ~timers ?lease ~group_commit:2.0 ~name:"r" () in
    let voted = ref nan in
    Sim.spawn sim (fun () -> Rep.insert r ~txn:1 "k" 1 "v1");
    if sibling then begin
      Sim.spawn sim (fun () -> Rep.insert r ~txn:2 "j" 2 "v2");
      Sim.spawn sim ~at:2.0 (fun () -> Rep.prepare r ~txn:2 ~coord:0)
    end;
    Sim.spawn sim ~at:1.0 (fun () ->
        Rep.prepare r ~txn:1 ~coord:0;
        voted := Sim.now sim);
    Sim.run ~until:5.0 sim;
    (!voted, Rep.wal_group_absorbed r, Rep.wal_unsynced r)
  in
  List.iter
    (fun lease ->
      let label s = (if lease = None then "no lease: " else "lease: ") ^ s in
      let at, absorbed, unsynced = run ?lease ~sibling:false () in
      Alcotest.(check (float 1e-9)) (label "alone, the vote returns when asked") 1.0 at;
      Alcotest.(check int) (label "alone, nothing absorbed") 0 absorbed;
      Alcotest.(check int) (label "alone, the log is synced") 0 unsynced;
      let at, absorbed, unsynced = run ?lease ~sibling:true () in
      Alcotest.(check (float 1e-9)) (label "with a sibling, the vote waits the window") 3.0 at;
      Alcotest.(check int) (label "the sibling's vote is absorbed") 1 absorbed;
      Alcotest.(check int) (label "with a sibling, the log is synced") 0 unsynced)
    [ None; Some 10.0 ]

(* --- crash and recovery ------------------------------------------------------------------ *)

let test_crash_blocks_operations () =
  let r = seeded () in
  Rep.crash r;
  Alcotest.(check bool) "crashed" true (Rep.is_crashed r);
  (try
     ignore (Rep.lookup r ~txn:2 (Bound.Key "b"));
     Alcotest.fail "operation on crashed rep"
   with Rep.Crashed _ -> ());
  Rep.recover r;
  match Rep.lookup r ~txn:3 (Bound.Key "b") with
  | Present _ -> ()
  | Absent _ -> Alcotest.fail "state lost after recovery"

let test_recovery_replays_committed_only () =
  let r = seeded () in
  Rep.insert r ~txn:2 "x" 9 "uncommitted";
  Rep.crash r;
  Rep.recover r;
  Alcotest.(check (list string)) "uncommitted insert discarded" [ "b"; "d"; "f" ] (keys r)

let test_recovery_preserves_gap_versions () =
  let r = seeded () in
  ignore (Rep.coalesce r ~txn:2 ~lo:(Bound.Key "b") ~hi:(Bound.Key "f") 6);
  Rep.commit r ~txn:2;
  let gaps_before = Rep.gaps r in
  Rep.crash r;
  Rep.recover r;
  Alcotest.(check bool) "gaps identical" true (Rep.gaps r = gaps_before)

let test_checkpoint_truncates_and_preserves () =
  let r = seeded () in
  let wal_before = Rep.wal_length r in
  Rep.checkpoint r;
  Alcotest.(check bool) "wal truncated" true (Rep.wal_length r <= wal_before);
  let entries_before = Rep.entries r and gaps_before = Rep.gaps r in
  Rep.crash r;
  Rep.recover r;
  Alcotest.(check bool) "entries preserved" true (Rep.entries r = entries_before);
  Alcotest.(check bool) "gaps preserved" true (Rep.gaps r = gaps_before)

let test_checkpoint_rejected_with_active_txn () =
  let r = seeded () in
  Rep.insert r ~txn:2 "x" 2 "v";
  try
    Rep.checkpoint r;
    Alcotest.fail "checkpoint with active txn accepted"
  with Invalid_argument _ -> Rep.abort r ~txn:2

(* Property: random committed history interleaved with crashes, recoveries
   and checkpoints always recovers to exactly the committed state. *)
let recovery_equivalence =
  QCheck.Test.make ~name:"crash recovery preserves committed state" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Repdir_util.Rng.create (Int64.of_int seed) in
      let r = new_rep () in
      let next_txn = ref 0 and next_version = ref 1 in
      let committed_entries = ref [] and committed_gaps = ref (Rep.gaps r) in
      for _step = 1 to 40 do
        match Repdir_util.Rng.int rng 10 with
        | 0 ->
            Rep.crash r;
            Rep.recover r;
            if Rep.entries r <> !committed_entries || Rep.gaps r <> !committed_gaps then
              failwith "recovery diverged"
        | 1 ->
            Rep.checkpoint r;
            Rep.crash r;
            Rep.recover r;
            if Rep.entries r <> !committed_entries then failwith "checkpoint diverged"
        | n ->
            incr next_txn;
            let txn = !next_txn in
            let commit = n < 8 in
            let ops = 1 + Repdir_util.Rng.int rng 3 in
            for _ = 1 to ops do
              let v = !next_version in
              incr next_version;
              if Repdir_util.Rng.bool rng then
                Rep.insert r ~txn (Key.of_int (Repdir_util.Rng.int rng 15)) v "x"
              else begin
                let bounds =
                  Array.of_list
                    (Bound.Low :: Bound.High
                    :: List.map (fun (k, _, _) -> Bound.Key k) (Rep.entries r))
                in
                let a = Repdir_util.Rng.pick rng bounds
                and b = Repdir_util.Rng.pick rng bounds in
                let lo, hi = if Bound.compare a b <= 0 then (a, b) else (b, a) in
                if Bound.compare lo hi < 0 then ignore (Rep.coalesce r ~txn ~lo ~hi v)
              end
            done;
            if commit then begin
              Rep.commit r ~txn;
              committed_entries := Rep.entries r;
              committed_gaps := Rep.gaps r
            end
            else begin
              Rep.abort r ~txn;
              if Rep.entries r <> !committed_entries || Rep.gaps r <> !committed_gaps then
                failwith "abort did not restore committed state"
            end
      done;
      true)

(* --- checkpoints keep what recovery knows --------------------------------------------- *)

let refuses_prepare r ~txn =
  match Rep.prepare r ~txn ~coord:0 with () -> false | exception Txn.Abort _ -> true

let test_checkpoint_keeps_lost_effects () =
  (* Transaction 2's insert dies in a crash. A checkpoint drops the records
     that showed it; the representative must still refuse to vote for it. *)
  let r = seeded () in
  Rep.insert r ~txn:2 "x" 2 "v";
  Rep.crash r;
  Rep.recover r;
  Rep.checkpoint r;
  Alcotest.(check bool) "refused after checkpoint" true (refuses_prepare r ~txn:2);
  Rep.crash r;
  Rep.recover r;
  Alcotest.(check bool) "refused after checkpointed recovery" true (refuses_prepare r ~txn:2)

let test_checkpoint_keeps_outcomes () =
  (* Outcome records dropped by a checkpoint must survive the next crash. *)
  let r = seeded () in
  Rep.insert r ~txn:2 "x" 2 "v";
  Rep.abort r ~txn:2;
  Rep.checkpoint r;
  Rep.crash r;
  Rep.recover r;
  Alcotest.(check bool) "aborted transaction refused" true (refuses_prepare r ~txn:2);
  Alcotest.(check bool) "abort remembered" true (Rep.outcome_of r 2 = `Aborted);
  Alcotest.(check bool) "commit remembered" true (Rep.outcome_of r 1 = `Committed)

let test_checkpoint_keeps_refused_aborts () =
  (* Presumed abort rolls back even when the disk refuses the [Abort]
     record. Once the disk heals, a checkpoint drops the transaction's op
     records; the representative must still refuse to vote for it after the
     next crash. *)
  let r = seeded () in
  Rep.insert r ~txn:2 "x" 2 "v";
  Rep.set_io_fault r (Some Wal.Disk_full);
  Rep.abort r ~txn:2;
  Rep.set_io_fault r None;
  Rep.checkpoint r;
  Rep.crash r;
  Rep.recover r;
  Alcotest.(check bool) "refused after checkpointed recovery" true (refuses_prepare r ~txn:2)

(* Property: checkpoints are invisible to recovery. [r] checkpoints itself as
   it goes; [twin] holds a prepared, empty transaction from the start, so it
   is never quiescent and keeps the full log. Both run one history of
   transactions that commit, abort (on a healthy or a full disk), prepare,
   finish read-only, get stale termination messages, or are cut off by
   crashes with tail storage faults.
   Every verdict must agree, and after every recovery so must the entries,
   gaps, in-doubt set, scrubbed record count and every transaction's
   outcome. *)
let checkpoint_equivalence =
  let pin = 0 in
  QCheck.Test.make ~name:"checkpointed recovery equals full-log recovery" ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Repdir_util.Rng.create (Int64.of_int seed) in
      let pick n = Repdir_util.Rng.int rng n in
      let fail fmt = Printf.ksprintf failwith fmt in
      let r = new_rep () and twin = new_rep () in
      Rep.prepare twin ~txn:pin ~coord:0;
      (* Run [f] on both representatives: both must succeed or both refuse.
         [f] runs twice, so it must draw nothing from [rng]. *)
      let both what f =
        let run rep = match f rep with () -> true | exception Txn.Abort _ -> false in
        let a = run r and b = run twin in
        if a <> b then fail "%s: checkpointed %b, full log %b" what a b;
        a
      in
      let next_txn = ref 0 and next_version = ref 1 in
      let fresh () =
        incr next_txn;
        !next_txn
      in
      let do_ops txn =
        for _ = 1 to 1 + pick 3 do
          let v = !next_version in
          incr next_version;
          if pick 3 > 0 then begin
            let key = Key.of_int (pick 40) in
            ignore (both "insert" (fun rep -> Rep.insert rep ~txn key v "x"))
          end
          else begin
            let bounds =
              Array.of_list
                (Bound.Low :: Bound.High :: List.map (fun (k, _, _) -> Bound.Key k) (Rep.entries r))
            in
            let a = Repdir_util.Rng.pick rng bounds and b = Repdir_util.Rng.pick rng bounds in
            let lo, hi = if Bound.compare a b <= 0 then (a, b) else (b, a) in
            if Bound.compare lo hi < 0 then
              ignore (both "coalesce" (fun rep -> ignore (Rep.coalesce rep ~txn ~lo ~hi v)))
          end
        done
      in
      let decide what txn =
        let commit = pick 3 > 0 in
        ignore
          (both what (fun rep -> if commit then Rep.commit rep ~txn else Rep.abort rep ~txn))
      in
      let write_txn () =
        let txn = fresh () in
        do_ops txn;
        match pick 10 with
        | 0 | 1 | 2 | 3 -> ignore (both "commit" (fun rep -> Rep.commit rep ~txn))
        | 4 -> ignore (both "abort" (fun rep -> Rep.abort rep ~txn))
        | 5 ->
            (* The disk refuses the [Abort] record; presumed abort rolls back
               regardless. *)
            ignore
              (both "abort on a full disk" (fun rep ->
                   Rep.set_io_fault rep (Some Wal.Disk_full);
                   Rep.abort rep ~txn;
                   Rep.set_io_fault rep None))
        | _ -> if both "prepare" (fun rep -> Rep.prepare rep ~txn ~coord:1) then decide "decide" txn
      in
      let readonly_txn () =
        let txn = fresh () in
        for _ = 0 to pick 2 do
          let key = Bound.Key (Key.of_int (pick 40)) in
          ignore (both "lookup" (fun rep -> ignore (Rep.lookup rep ~txn key)))
        done;
        if Rep.finish_readonly r ~txn <> Rep.finish_readonly twin ~txn then
          fail "finish-readonly verdicts differ"
      in
      let stale_message () =
        if !next_txn > 0 then begin
          let txn = 1 + pick !next_txn in
          if pick 2 = 0 then ignore (both "stale abort" (fun rep -> Rep.abort rep ~txn))
          else if both "stale prepare" (fun rep -> Rep.prepare rep ~txn ~coord:1) then
            decide "stale decide" txn
        end
      in
      let same_state () =
        if Rep.entries r <> Rep.entries twin then fail "entries differ";
        if Rep.gaps r <> Rep.gaps twin then fail "gaps differ";
        if Rep.in_doubt_txns r <> List.filter (( <> ) pin) (Rep.in_doubt_txns twin) then
          fail "in-doubt sets differ";
        if Rep.wal_records_repaired r <> Rep.wal_records_repaired twin then
          fail "scrubbed record counts differ";
        for txn = 1 to !next_txn do
          if Rep.outcome_of r txn <> Rep.outcome_of twin txn then fail "outcome of %d differs" txn
        done
      in
      let crash () =
        (* Cut off an unfinished transaction, or leave a prepared one in doubt. *)
        (match pick 3 with
        | 0 -> do_ops (fresh ())
        | 1 ->
            let txn = fresh () in
            do_ops txn;
            ignore (both "prepare" (fun rep -> Rep.prepare rep ~txn ~coord:1))
        | _ -> ());
        let fault =
          match pick 4 with
          | 0 -> Some Wal.Tear_tail
          | 1 -> Some Wal.Corrupt_tail
          | 2 -> Some (Wal.Truncate_tail (1 + pick 3))
          | _ -> None
        in
        List.iter
          (fun rep ->
            Option.iter (Rep.inject_storage_fault rep) fault;
            Rep.crash rep;
            Rep.recover rep)
          [ r; twin ];
        same_state ();
        List.iter
          (fun txn ->
            let verdict = if pick 2 = 0 then `Committed else `Aborted in
            Rep.resolve_in_doubt r ~txn verdict;
            Rep.resolve_in_doubt twin ~txn verdict)
          (Rep.in_doubt_txns r)
      in
      for _step = 1 to 400 do
        match pick 20 with
        | 0 | 1 -> crash ()
        | 2 -> stale_message ()
        | 3 | 4 -> readonly_txn ()
        | _ -> write_txn ()
      done;
      crash ();
      if (Rep.counters twin).Rep.checkpoints <> 0 then fail "the twin checkpointed";
      (Rep.counters r).Rep.checkpoints > 0)

(* --- batched execution ---------------------------------------------------------------------- *)

let test_execute_runs_ops_in_order () =
  let r = seeded () in
  (* The batch mixes reads and writes; later ops must observe earlier ones
     (the lookup of "c" sees the insert two slots before it). *)
  match
    Rep.execute r unstamped ~txn:2
      [
        Rep.B_lookup (Bound.Key "d");
        Rep.B_insert ("c", 2, "vc");
        Rep.B_lookup (Bound.Key "c");
        Rep.B_coalesce (Bound.Key "c", Bound.Key "f", 3);
        Rep.B_prepare 7;
      ]
  with
  | [
   Rep.R_lookup (Present { version = 1; value = "vd" });
   Rep.R_unit;
   Rep.R_lookup (Present { version = 2; value = "vc" });
   Rep.R_removed 1;
   Rep.R_unit;
  ] ->
      (* The piggybacked prepare is a real vote: the transaction is
         prepared, so commit applies it. The coalesce saw the batch's own
         insert of "c" as its endpoint and removed "d" between c and f. *)
      Rep.commit r ~txn:2;
      Alcotest.(check (list string)) "batch effects committed" [ "b"; "c"; "f" ] (keys r);
      Alcotest.(check int) "batch counted once" 1 (Rep.counters r).Rep.batches;
      Alcotest.(check int) "all ops counted" 5 (Rep.counters r).Rep.batch_ops
  | _ -> Alcotest.fail "unexpected batch results"

let test_insert_if_absent_semantics () =
  let r = seeded () in
  (match
     Rep.execute r unstamped ~txn:2
       [ Rep.B_insert_if_absent ("b", 5, "clobber"); Rep.B_insert_if_absent ("c", 1, "vc") ]
   with
  | [ Rep.R_inserted false; Rep.R_inserted true ] -> ()
  | _ -> Alcotest.fail "unexpected insert-if-absent results");
  Rep.commit r ~txn:2;
  (* The present key kept its original version and value. *)
  match Rep.lookup r ~txn:3 (Bound.Key "b") with
  | Present { version = 1; value = "vb" } -> Rep.commit r ~txn:3
  | _ -> Alcotest.fail "present key was clobbered"

let test_finish_readonly_grant_and_refuse () =
  let r = seeded () in
  (* A pure reader is released in-round: locks drain, no outcome recorded. *)
  ignore (Rep.lookup r ~txn:2 (Bound.Key "b"));
  Alcotest.(check bool) "reader released" true (Rep.finish_readonly r ~txn:2);
  Alcotest.(check int) "locks drained" 0 (Rep.locks_held r);
  Alcotest.(check bool) "no outcome recorded" true (Rep.outcome_of r 2 = `Unknown);
  (* A transaction that wrote here must be refused. *)
  Rep.insert r ~txn:3 "x" 2 "v";
  Alcotest.(check bool) "writer refused" false (Rep.finish_readonly r ~txn:3);
  Rep.abort r ~txn:3;
  (* A prepared transaction holds a binding vote — also refused. *)
  ignore (Rep.lookup r ~txn:4 (Bound.Key "b"));
  Rep.prepare r ~txn:4 ~coord:1;
  Alcotest.(check bool) "prepared refused" false (Rep.finish_readonly r ~txn:4);
  Rep.commit r ~txn:4

(* The conditional lookup answers by comparing this member's tag with the
   client's line: equal is [R_current], lower is [R_older], anything else
   carries the payload. *)
let test_lookup_unless_verdicts () =
  let r = seeded () in
  let d = Bound.Key "d" and c = Bound.Key "c" in
  (match
     Rep.execute r unstamped ~txn:2
       [
         Rep.B_lookup_unless (d, Rep.Tag_entry 1);
         Rep.B_lookup_unless (d, Rep.Tag_entry 2);
         Rep.B_lookup_unless (d, Rep.Tag_entry 0);
         Rep.B_lookup_unless (c, Rep.Tag_gap 0);
         Rep.B_lookup_unless (c, Rep.Tag_entry 0);
       ]
   with
  | [
   Rep.R_current;
   Rep.R_older;
   Rep.R_lookup (Present { version = 1; value = "vd" });
   Rep.R_current;
   Rep.R_lookup (Absent { gap_version = 0 });
  ] ->
      ()
  | _ -> Alcotest.fail "unexpected conditional lookup verdicts");
  Alcotest.(check int) "counted as validations" 5 (Rep.counters r).Rep.validates;
  Alcotest.(check int) "no payload lookups counted" 0 (Rep.counters r).Rep.lookups;
  Rep.commit r ~txn:2;
  (* It takes lookup's RepLookup point lock: a RepModify holder makes it wait. *)
  let pending = ref false in
  let r = new_rep ~waiter:(fun register -> register ignore; pending := true) () in
  Rep.insert r ~txn:1 "k" 1 "v";
  ignore (Rep.execute r unstamped ~txn:2 [ Rep.B_lookup_unless (Bound.Key "k", Rep.Tag_gap 0) ]);
  Alcotest.(check bool) "waited behind the writer" true !pending;
  Alcotest.(check int) "lock wait counted" 1 (Rep.counters r).Rep.lock_waits

(* The one-round write: a member writes and votes only below the proposed
   version and, when asked, with the expected presence; otherwise it
   releases the transaction. Either way it answers the tag it read. A second
   execution of a transaction that wrote here is refused. *)
let test_write_unless_verdicts () =
  let r = seeded () in
  let write ~txn key v expect =
    Rep.execute r unstamped ~txn [ Rep.B_write_unless (key, v, "new", expect, 7) ]
  in
  Alcotest.(check bool) "absent below the proposal: wrote" true
    (write ~txn:2 "c" 5 (Some false) = [ Rep.R_write (Rep.Tag_gap 0, true) ]);
  (match write ~txn:2 "c" 5 (Some false) with
  | _ -> Alcotest.fail "a re-execution must be refused"
  | exception Repdir_txn.Txn.Abort _ -> ());
  Alcotest.(check bool) "version not below the proposal: refused" true
    (write ~txn:3 "b" 1 None = [ Rep.R_write (Rep.Tag_entry 1, false) ]);
  Alcotest.(check bool) "presence not the expected one: refused" true
    (write ~txn:4 "d" 5 (Some false) = [ Rep.R_write (Rep.Tag_entry 1, false) ]);
  Alcotest.(check bool) "no presence expected: wrote" true
    (write ~txn:5 "f" 5 None = [ Rep.R_write (Rep.Tag_entry 1, true) ]);
  Alcotest.(check int) "refusers released" 2 (Rep.counters r).Rep.readonly_finishes;
  Alcotest.(check bool) "refusers record no outcome" true
    (Rep.outcome_of r 3 = `Unknown && Rep.outcome_of r 4 = `Unknown);
  (* The writers voted: each is prepared, so a read-only finish is refused
     and commit applies the write. *)
  Alcotest.(check bool) "writer voted" false (Rep.finish_readonly r ~txn:2);
  Rep.commit r ~txn:2;
  Rep.abort r ~txn:5;
  Alcotest.(check int) "locks drained" 0 (Rep.locks_held r);
  Alcotest.(check (list string)) "only the committed write applied" [ "b"; "c"; "d"; "f" ] (keys r);
  match Rep.lookup r ~txn:6 (Bound.Key "f") with
  | Present { version = 1; value = "vf" } -> Rep.commit r ~txn:6
  | _ -> Alcotest.fail "the aborted write survived"

let test_deliver_notices_idempotent () =
  let r = seeded () in
  Rep.insert r ~txn:5 "x" 2 "v";
  Rep.prepare r ~txn:5 ~coord:1;
  Rep.insert r ~txn:6 "y" 2 "v";
  (* Duplicate and contradictory-after-settled notices are no-ops. *)
  Rep.deliver_notices r
    [ Rep.N_commit 5; Rep.N_abort 6; Rep.N_commit 5; Rep.N_abort 5 ];
  Alcotest.(check bool) "commit applied" true
    (List.exists (fun (k, _, _) -> k = "x") (Rep.entries r));
  Alcotest.(check bool) "abort applied" false
    (List.exists (fun (k, _, _) -> k = "y") (Rep.entries r));
  Alcotest.(check int) "locks drained" 0 (Rep.locks_held r);
  Alcotest.(check bool) "outcomes settled" true
    (Rep.outcome_of r 5 = `Committed && Rep.outcome_of r 6 = `Aborted);
  Alcotest.(check int) "notices counted" 4 (Rep.counters r).Rep.notices_applied

let test_envelope_order () =
  let clock = ref 0.0 in
  let timers = { Rep.now = (fun () -> !clock); after = (fun _ _ -> ()) } in
  let r = Rep.create ~timers ~name:"r" () in
  Alcotest.(check bool) "membership epoch 2" true
    (Rep.install_epoch r Rep.Membership ~epoch:2 ~record:"m2");
  (* Transaction 5 wrote here and waits for its commit notice. *)
  Rep.insert r ~txn:5 "x" 1 "vx";
  let stale = { unstamped with notices = [ Rep.N_commit 5 ]; member_epoch = 1 } in
  (match Rep.execute r stale ~txn:6 [ Rep.B_insert ("y", 1, "vy") ] with
  | _ -> Alcotest.fail "stale epoch accepted"
  | exception Rep.Stale_epoch { fence = Rep.Membership; epoch = 2; _ } -> ());
  (* The refused message still settled the transaction its notice named... *)
  Alcotest.(check bool) "notice applied" true (Rep.outcome_of r 5 = `Committed);
  Alcotest.(check (list string)) "committed write visible" [ "x" ] (keys r);
  (* ...but none of its own ops ran: no write, no lock, no batch. *)
  Alcotest.(check int) "no lock taken" 0 (Rep.locks_held r);
  Alcotest.(check int) "no batch counted" 0 (Rep.counters r).Rep.batches;
  Alcotest.(check int) "no op counted" 0 (Rep.counters r).Rep.batch_ops;
  (* An expired deadline is refused before either fence is consulted. *)
  clock := 10.0;
  Alcotest.(check bool) "shard epoch 3" true
    (Rep.install_epoch r Rep.Shard_map ~epoch:3 ~record:"s3");
  let late = { unstamped with deadline = Some 5.0; shard_epoch = Some 1; member_epoch = 1 } in
  (match Rep.execute r late ~txn:7 [ Rep.B_lookup (Bound.Key "x") ] with
  | _ -> Alcotest.fail "expired deadline accepted"
  | exception Rep.Deadline_exceeded _ -> ());
  (* With a live deadline the shard-map fence is checked before the
     membership fence. *)
  (match Rep.execute r { late with deadline = Some 20.0 } ~txn:7 [] with
  | _ -> Alcotest.fail "stale epochs accepted"
  | exception Rep.Stale_epoch { fence; _ } ->
      Alcotest.(check bool) "shard-map fence first" true (fence = Rep.Shard_map));
  Alcotest.(check int) "one expiry counted" 1 (Rep.counters r).Rep.expired_rejects;
  Alcotest.(check int) "still no op counted" 0 (Rep.counters r).Rep.batch_ops

(* --- counters ------------------------------------------------------------------------------ *)

let test_counters () =
  let r = seeded () in
  let c = Rep.counters r in
  let inserts0 = c.Rep.inserts in
  ignore (Rep.lookup r ~txn:2 (Bound.Key "b"));
  ignore (neighbor r ~txn:2 Down (Bound.Key "d"));
  ignore (neighbor r ~txn:2 Up (Bound.Key "d"));
  Rep.insert r ~txn:2 "z" 2 "v";
  ignore (Rep.coalesce r ~txn:2 ~lo:(Bound.Key "f") ~hi:Bound.High 3);
  Rep.commit r ~txn:2;
  Alcotest.(check int) "lookups" 1 c.Rep.lookups;
  Alcotest.(check int) "predecessors" 1 c.Rep.predecessors;
  Alcotest.(check int) "successors" 1 c.Rep.successors;
  Alcotest.(check int) "inserts" (inserts0 + 1) c.Rep.inserts;
  Alcotest.(check int) "coalesces" 1 c.Rep.coalesces

let () =
  Alcotest.run "rep"
    [
      ( "operations",
        [
          Alcotest.test_case "lookup present/absent" `Quick test_lookup_present_and_absent;
          Alcotest.test_case "predecessor/successor" `Quick test_predecessor_successor;
          Alcotest.test_case "coalesce count" `Quick test_coalesce_returns_count;
          Alcotest.test_case "coalesce missing endpoint" `Quick
            test_coalesce_missing_endpoint_error;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "predecessor chain" `Quick test_predecessor_chain;
          Alcotest.test_case "successor chain" `Quick test_successor_chain;
          Alcotest.test_case "chain gap versions" `Quick test_chain_gap_versions;
          Alcotest.test_case "walk values, B_walk and counts" `Quick test_walk_values;
        ] );
      ( "batched-execution",
        [
          Alcotest.test_case "execute runs ops in order" `Quick test_execute_runs_ops_in_order;
          Alcotest.test_case "insert-if-absent semantics" `Quick
            test_insert_if_absent_semantics;
          Alcotest.test_case "finish-readonly grant/refuse" `Quick
            test_finish_readonly_grant_and_refuse;
          Alcotest.test_case "conditional lookup verdicts" `Quick test_lookup_unless_verdicts;
          Alcotest.test_case "conditional write verdicts" `Quick test_write_unless_verdicts;
          Alcotest.test_case "notices are idempotent" `Quick test_deliver_notices_idempotent;
          Alcotest.test_case "envelope order: notices, deadline, shard, membership" `Quick
            test_envelope_order;
        ] );
      ( "rollback",
        [
          Alcotest.test_case "abort insert" `Quick test_abort_rolls_back_insert;
          Alcotest.test_case "abort update" `Quick test_abort_rolls_back_update;
          Alcotest.test_case "abort coalesce" `Quick test_abort_rolls_back_coalesce;
          Alcotest.test_case "abort mixed ops" `Quick test_abort_mixed_operations;
        ] );
      ( "locking",
        [
          Alcotest.test_case "strict 2PL to commit" `Quick test_strict_2pl_blocks_conflicting_txn;
          Alcotest.test_case "waiter used for blocking" `Quick test_waiter_is_used_for_blocking;
          Alcotest.test_case "cross-rep deadlock aborts" `Quick test_deadlock_raises_txn_abort;
          Alcotest.test_case "lease expiry at the grant aborts the waiter" `Quick
            test_lease_expiry_at_grant;
          Alcotest.test_case "lease expiry inside a forced vote votes no" `Quick
            test_lease_expiry_in_forced_vote;
        ] );
      ( "termination",
        [
          Alcotest.test_case "state x entry point table" `Quick test_state_table;
          Alcotest.test_case "a duplicate commit during a resolution's force" `Quick
            test_duplicate_commit_during_resolution;
          Alcotest.test_case "a lone force does not wait" `Quick test_lone_force_does_not_wait;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "crash blocks operations" `Quick test_crash_blocks_operations;
          Alcotest.test_case "replays committed only" `Quick test_recovery_replays_committed_only;
          Alcotest.test_case "preserves gap versions" `Quick test_recovery_preserves_gap_versions;
          Alcotest.test_case "checkpoint truncates + preserves" `Quick
            test_checkpoint_truncates_and_preserves;
          Alcotest.test_case "checkpoint needs quiescence" `Quick
            test_checkpoint_rejected_with_active_txn;
          Alcotest.test_case "checkpoint keeps lost effects" `Quick
            test_checkpoint_keeps_lost_effects;
          Alcotest.test_case "checkpoint keeps outcomes" `Quick test_checkpoint_keeps_outcomes;
          Alcotest.test_case "checkpoint keeps refused aborts" `Quick
            test_checkpoint_keeps_refused_aborts;
          QCheck_alcotest.to_alcotest recovery_equivalence;
          QCheck_alcotest.to_alcotest checkpoint_equivalence;
        ] );
    ]
