(* Tests for distributed transaction termination: the presumed-abort
   coordinator decision log, prepare records carrying the coordinator id,
   in-doubt crash recovery with locks re-held and effects withheld, lease
   expiry (unilateral abort / in-doubt), resolution by coordinator and by
   peer, and end-to-end two-phase commit through the suite with crash
   injection between the phases. *)

open Repdir_txn
open Repdir_rep
open Repdir_quorum
open Repdir_core

(* A manual virtual clock standing in for the simulator: [after] queues the
   callback; [set_now] moves the clock to a time (backward too, like a skewed
   representative clock) and fires everything due in (time, arm order), FIFO
   like [Sim], including callbacks scheduled by fired callbacks; [advance]
   moves it forward by a delta; [pending] counts the queued callbacks. *)
type clock = {
  timers : Rep.timers;
  set_now : float -> unit;
  advance : float -> unit;
  pending : unit -> int;
}

let make_clock () =
  let now = ref 0.0 and armed = ref 0 and pending = ref [] in
  let after d k =
    incr armed;
    pending := (!now +. d, !armed, k) :: !pending
  in
  let set_now t =
    now := t;
    let progress = ref true in
    while !progress do
      match List.partition (fun (at, _, _) -> at <= !now) !pending with
      | [], _ -> progress := false
      | due, rest ->
          pending := rest;
          List.sort (fun (a, i, _) (b, j, _) -> compare (a, i) (b, j)) due
          |> List.iter (fun (_, _, k) -> k ())
    done
  in
  {
    timers = { Rep.now = (fun () -> !now); after };
    set_now;
    advance = (fun dt -> set_now (!now +. dt));
    pending = (fun () -> List.length !pending);
  }

(* --- coordinator ------------------------------------------------------------------ *)

let test_coordinator_first_writer_wins () =
  let c = Coordinator.create ~id:9 () in
  Alcotest.(check bool) "first decision sticks" true
    (Coordinator.decide c 1 Coordinator.Committed = Coordinator.Committed);
  Alcotest.(check bool) "second decision loses" true
    (Coordinator.decide c 1 Coordinator.Aborted = Coordinator.Committed);
  Alcotest.(check bool) "decision on file" true
    (Coordinator.decision c 1 = Some Coordinator.Committed);
  Alcotest.(check bool) "unknown undecided" true (Coordinator.decision c 2 = None);
  Alcotest.(check int) "id stamped" 9 (Coordinator.id c)

let test_coordinator_resolve_presumes_abort () =
  let c = Coordinator.create () in
  (* A termination query for an undecided transaction decides abort — and
     that decision is binding: the coordinator's own late commit loses. *)
  Alcotest.(check bool) "no information means abort" true
    (Coordinator.resolve c 7 = Coordinator.Aborted);
  Alcotest.(check bool) "late commit degrades to abort" true
    (Coordinator.decide c 7 Coordinator.Committed = Coordinator.Aborted);
  Alcotest.(check bool) "decided commit resolves commit" true
    (Coordinator.decide c 8 Coordinator.Committed = Coordinator.Committed
    && Coordinator.resolve c 8 = Coordinator.Committed);
  let k = Coordinator.counters c in
  Alcotest.(check int) "presumed aborts counted" 1 k.Coordinator.presumed_aborts;
  Alcotest.(check int) "resolutions counted" 2 k.Coordinator.resolutions

let test_coordinator_recover_keeps_commits () =
  let c = Coordinator.create () in
  ignore (Coordinator.decide c 1 Coordinator.Committed);
  ignore (Coordinator.decide c 2 Coordinator.Aborted);
  Coordinator.recover c;
  Alcotest.(check bool) "commit survives recovery" true
    (Coordinator.decision c 1 = Some Coordinator.Committed);
  (* The abort record was never forced; whether it survives is immaterial —
     resolve must still answer abort (presumed if the record is gone). *)
  Alcotest.(check bool) "abort still answers abort" true
    (Coordinator.resolve c 2 = Coordinator.Aborted)

(* Past 64 records, a [decide] compacts the decision log into one checkpoint
   carrying every decided id; recovery reads them back from its chunks. *)
let test_coordinator_compaction_keeps_commits () =
  let c = Coordinator.create () in
  let compactions = ref 0 in
  let verdict txn = if txn mod 7 = 0 then Coordinator.Aborted else Coordinator.Committed in
  let check_recovered upto =
    Coordinator.recover c;
    for txn = 1 to upto do
      match (verdict txn, Coordinator.decision c txn) with
      | Coordinator.Committed, Some Coordinator.Committed -> ()
      | Coordinator.Committed, _ -> Alcotest.failf "commit of %d lost across compaction" txn
      (* Presumed abort: an abort may come back as a record or as no record. *)
      | Coordinator.Aborted, (Some Coordinator.Aborted | None) -> ()
      | Coordinator.Aborted, Some Coordinator.Committed ->
          Alcotest.failf "abort of %d came back committed" txn
    done
  in
  for txn = 1 to 500 do
    let before = Coordinator.log_length c in
    ignore (Coordinator.decide c txn (verdict txn));
    if Coordinator.log_length c < before then incr compactions;
    if txn = 250 then check_recovered txn
  done;
  Alcotest.(check bool) "several compactions" true (!compactions >= 5);
  check_recovered 500;
  Alcotest.(check bool) "never-seen id presumes abort" true
    (Coordinator.resolve c 10_000 = Coordinator.Aborted);
  Alcotest.(check int) "counted as presumed" 1 (Coordinator.counters c).Coordinator.presumed_aborts;
  Alcotest.(check bool) "recovered commit resolves commit" true
    (Coordinator.resolve c 1 = Coordinator.Committed)

let test_coordinator_compaction_waits_for_force () =
  let c = Coordinator.create () in
  for txn = 1 to 64 do
    ignore (Coordinator.decide c txn Coordinator.Committed)
  done;
  Alcotest.(check int) "at the floor: no compaction" 64 (Coordinator.log_length c);
  (* Abort records are never forced, so the log passes the floor whole. *)
  for txn = 65 to 70 do
    ignore (Coordinator.decide c txn Coordinator.Aborted)
  done;
  ignore (Coordinator.resolve c 71);
  Alcotest.(check int) "unforced abort tail: no compaction" 71 (Coordinator.log_length c);
  (* The next commit forces the log, and compaction follows. *)
  ignore (Coordinator.decide c 72 Coordinator.Committed);
  Alcotest.(check int) "forced: compacted" 1 (Coordinator.log_length c);
  Coordinator.recover c;
  Alcotest.(check bool) "commits survive" true
    (List.for_all
       (fun txn -> Coordinator.decision c txn = Some Coordinator.Committed)
       (72 :: List.init 64 succ))

(* The guard both checkpointers use: the coordinator compacts, and a
   representative checkpoints, only on a settled log. *)
let test_wal_settled () =
  let w = Wal.create () in
  Alcotest.(check bool) "empty log" true (Wal.settled w);
  Wal.append w (Wal.Abort 1);
  Alcotest.(check bool) "unforced tail" false (Wal.settled w);
  Wal.sync w;
  Alcotest.(check bool) "forced" true (Wal.settled w);
  Wal.set_io_fault w (Some Wal.Io_error);
  Alcotest.(check bool) "io fault armed" false (Wal.settled w);
  Wal.set_io_fault w None;
  Alcotest.(check bool) "healed" true (Wal.settled w)

(* --- wal in-doubt ------------------------------------------------------------------ *)

let test_wal_in_doubt () =
  let w = Wal.create () in
  Wal.append w (Wal.Insert (1, "a", 1, "v"));
  Wal.append w (Wal.Prepare (1, 4));
  Wal.append w (Wal.Insert (2, "b", 1, "v"));
  Wal.append w (Wal.Prepare (2, 4));
  Wal.append w (Wal.Commit 2);
  Wal.append w (Wal.Prepare (3, 5));
  Wal.append w (Wal.Abort 3);
  Alcotest.(check bool) "only txn 1 in doubt, with its coordinator" true
    (Wal.in_doubt w = [ (1, 4) ])

let test_wal_replay_prepared_decided () =
  let w = Wal.create () in
  Wal.append w (Wal.Insert (1, "a", 1, "v"));
  Wal.append w (Wal.Prepare (1, 4));
  Wal.append w (Wal.Insert (2, "b", 1, "v"));
  Wal.append w (Wal.Prepare (2, 4));
  let module Replay = Wal.Replay (Repdir_gapmap.Reference) in
  (* Coordinator says: txn 1 committed, txn 2 not. *)
  let g = Replay.replay ~decided:(fun id -> id = 1) w in
  Alcotest.(check (list string)) "only decided txn applies" [ "a" ]
    (List.map (fun (k, _, _) -> k) (Repdir_gapmap.Reference.entries g))

let test_wal_redo_deferred_commit () =
  let w = Wal.create () in
  Wal.append w (Wal.Insert (1, "a", 1, "v"));
  Wal.append w (Wal.Prepare (1, 4));
  let module Replay = Wal.Replay (Repdir_gapmap.Reference) in
  let g = Replay.replay w in
  Alcotest.(check int) "effects withheld" 0
    (List.length (Repdir_gapmap.Reference.entries g));
  Replay.redo w 1 g;
  Alcotest.(check (list string)) "redo applies the held effects" [ "a" ]
    (List.map (fun (k, _, _) -> k) (Repdir_gapmap.Reference.entries g))

(* --- rep in-doubt recovery ------------------------------------------------------------ *)

let test_rep_recovery_restores_in_doubt_locked () =
  let rep = Rep.create ~name:"r" () in
  Rep.insert rep ~txn:1 "k" 1 "v";
  Rep.prepare rep ~txn:1 ~coord:7;
  Rep.crash rep;
  Rep.recover rep;
  (* Effects withheld, transaction in doubt, its write range re-locked. *)
  Alcotest.(check (list string)) "effects withheld" []
    (List.map (fun (k, _, _) -> k) (Rep.entries rep));
  Alcotest.(check (list int)) "in doubt" [ 1 ] (Rep.in_doubt_txns rep);
  Alcotest.(check bool) "write range re-locked" true (Rep.locks_held rep > 0);
  (* Commit verdict: the held redo records apply and locks drain. *)
  Rep.resolve_in_doubt rep ~txn:1 `Committed;
  Alcotest.(check (list string)) "committed after resolution" [ "k" ]
    (List.map (fun (k, _, _) -> k) (Rep.entries rep));
  Alcotest.(check int) "in-doubt drained" 0 (Rep.in_doubt_count rep);
  Alcotest.(check int) "locks drained" 0 (Rep.locks_held rep);
  Alcotest.(check bool) "outcome is committed" true (Rep.outcome_of rep 1 = `Committed)

let test_rep_recovery_abort_verdict_drops_effects () =
  let rep = Rep.create ~name:"r" () in
  Rep.insert rep ~txn:1 "k" 1 "v";
  Rep.prepare rep ~txn:1 ~coord:7;
  Rep.crash rep;
  Rep.recover rep;
  Rep.resolve_in_doubt rep ~txn:1 `Aborted;
  Alcotest.(check int) "nothing applied" 0 (Rep.size rep);
  Alcotest.(check int) "locks drained" 0 (Rep.locks_held rep);
  Alcotest.(check bool) "outcome is aborted" true (Rep.outcome_of rep 1 = `Aborted);
  (* The decision is durable across another crash. *)
  Rep.crash rep;
  Rep.recover rep;
  Alcotest.(check bool) "abort survives another crash" true
    (Rep.outcome_of rep 1 = `Aborted);
  Alcotest.(check int) "still nothing in doubt" 0 (Rep.in_doubt_count rep)

let test_rep_recovery_resolver_terminates () =
  (* With timers and a resolver installed, recovery itself starts the
     termination protocol: the restored in-doubt transaction resolves
     without any outside call. *)
  let { timers; advance; _ } = make_clock () in
  let asked = ref [] in
  let rep = Rep.create ~timers ~name:"r" () in
  Rep.set_resolver rep (fun ~coord txn ->
      asked := (coord, txn) :: !asked;
      Some (`Committed, Rep.By_coordinator));
  Rep.insert rep ~txn:3 "k" 1 "v";
  Rep.prepare rep ~txn:3 ~coord:11;
  Rep.crash rep;
  Rep.recover rep;
  advance 0.0;
  Alcotest.(check bool) "resolver asked with the logged coordinator" true
    (!asked = [ (11, 3) ]);
  Alcotest.(check (list string)) "committed by the protocol" [ "k" ]
    (List.map (fun (k, _, _) -> k) (Rep.entries rep));
  Alcotest.(check int) "locks drained" 0 (Rep.locks_held rep);
  let c = Rep.counters rep in
  Alcotest.(check int) "counted as coordinator resolution" 1
    c.Rep.indoubt_by_coordinator;
  Alcotest.(check int) "counted as recovered" 1 c.Rep.indoubt_recovered

let test_rep_resolution_retries_until_answer () =
  let { timers; advance; _ } = make_clock () in
  let calls = ref 0 in
  let rep = Rep.create ~timers ~lease:10.0 ~name:"r" () in
  Rep.set_resolver rep (fun ~coord:_ _ ->
      incr calls;
      if !calls < 3 then None else Some (`Aborted, Rep.By_peer));
  Rep.insert rep ~txn:4 "k" 1 "v";
  Rep.prepare rep ~txn:4 ~coord:11;
  (* Lease expires: prepared, so in doubt — first query at once, then one
     retry per lease period until the peer answers. *)
  advance 11.0;
  Alcotest.(check int) "first query immediate" 1 !calls;
  Alcotest.(check int) "still in doubt" 1 (Rep.in_doubt_count rep);
  advance 10.0;
  advance 10.0;
  Alcotest.(check int) "retried each lease period" 3 !calls;
  Alcotest.(check int) "resolved" 0 (Rep.in_doubt_count rep);
  Alcotest.(check bool) "aborted by peer answer" true (Rep.outcome_of rep 4 = `Aborted);
  Alcotest.(check int) "counted as peer resolution" 1
    (Rep.counters rep).Rep.indoubt_by_peer

(* --- leases --------------------------------------------------------------------------- *)

let test_lease_expiry_unilateral_abort () =
  let { timers; advance; _ } = make_clock () in
  let rep = Rep.create ~timers ~lease:10.0 ~name:"r" () in
  Rep.insert rep ~txn:1 "k" 1 "v";
  advance 5.0;
  (* Any operation renews the sliding lease. *)
  ignore (Rep.lookup rep ~txn:1 (Repdir_key.Bound.key "k"));
  advance 8.0;
  Alcotest.(check bool) "touch kept it alive" true (Rep.outcome_of rep 1 = `Unknown);
  advance 10.0;
  (* Unprepared and idle past the lease: unilaterally aborted, locks gone. *)
  Alcotest.(check bool) "unilaterally aborted" true (Rep.outcome_of rep 1 = `Aborted);
  Alcotest.(check int) "rolled back" 0 (Rep.size rep);
  Alcotest.(check int) "locks released" 0 (Rep.locks_held rep);
  let c = Rep.counters rep in
  Alcotest.(check int) "lease expiry counted" 1 c.Rep.leases_expired;
  Alcotest.(check int) "unilateral abort counted" 1 c.Rep.unilateral_aborts;
  (* The abort is binding: a late prepare for the same transaction must be
     refused, so the coordinator can never commit it. *)
  (try
     Rep.prepare rep ~txn:1 ~coord:7;
     Alcotest.fail "prepare accepted after unilateral abort"
   with Txn.Abort _ -> ());
  (* Late duplicate abort is idempotent; late commit must be refused. *)
  Rep.abort rep ~txn:1;
  (try
     Rep.commit rep ~txn:1;
     Alcotest.fail "commit accepted after unilateral abort"
   with Txn.Abort _ -> ())

let test_lease_expiry_prepared_goes_in_doubt () =
  let { timers; advance; _ } = make_clock () in
  let answer = ref None in
  let rep = Rep.create ~timers ~lease:10.0 ~name:"r" () in
  Rep.set_resolver rep (fun ~coord:_ _ -> !answer);
  Rep.insert rep ~txn:2 "k" 1 "v";
  Rep.prepare rep ~txn:2 ~coord:7;
  advance 11.0;
  (* Prepared: may not abort alone. It sits in doubt, locks held. *)
  Alcotest.(check (list int)) "in doubt" [ 2 ] (Rep.in_doubt_txns rep);
  Alcotest.(check bool) "locks still held" true (Rep.locks_held rep > 0);
  Alcotest.(check bool) "no unilateral abort" true
    ((Rep.counters rep).Rep.unilateral_aborts = 0);
  answer := Some (`Committed, Rep.By_coordinator);
  advance 10.0;
  Alcotest.(check (list string)) "committed once the coordinator answers" [ "k" ]
    (List.map (fun (k, _, _) -> k) (Rep.entries rep));
  Alcotest.(check int) "locks drained" 0 (Rep.locks_held rep)

let expect_outcome rep what txn expected =
  Alcotest.(check bool) what true (Rep.outcome_of rep txn = expected)

(* One sweep per representative, not one timer per transaction: 200 short
   transactions under a 10-unit lease keep at most two lease callbacks
   queued, and the transactions that do expire go at their deadlines. *)
let test_lease_one_sweep () =
  let c = make_clock () in
  let rep = Rep.create ~timers:c.timers ~lease:10.0 ~name:"r" () in
  let peak = ref 0 in
  let at t f =
    c.set_now t;
    f ();
    peak := max !peak (c.pending ())
  in
  let idle = 1000 and renewed = 1001 in
  let outcome = expect_outcome rep in
  Rep.insert rep ~txn:idle "idle" 1 "v";
  Rep.insert rep ~txn:renewed "renewed" 1 "v";
  let loop =
    List.concat_map
      (fun i ->
        let t = 0.5 *. float_of_int i in
        [
          (t, fun () -> Rep.insert rep ~txn:i (Printf.sprintf "k%03d" i) 1 "v");
          (t +. 0.5, fun () -> Rep.commit rep ~txn:i);
        ])
      (List.init 200 Fun.id)
  in
  let checks =
    [
      (5.0, fun () -> Rep.keepalive rep ~txn:renewed);
      (9.99, fun () -> outcome "idle alive just before its deadline" idle `Unknown);
      (10.0, fun () -> outcome "idle aborted at its deadline" idle `Aborted);
      (14.99, fun () -> outcome "renewed alive before touch + lease" renewed `Unknown);
      (15.0, fun () -> outcome "renewed aborted at touch + lease" renewed `Aborted);
    ]
  in
  List.stable_sort (fun (a, _) (b, _) -> compare a b) (checks @ loop)
  |> List.iter (fun (t, f) -> at t f);
  Alcotest.(check int) "all 200 committed" 200 (Rep.size rep);
  Alcotest.(check int) "two leases expired" 2 (Rep.counters rep).Rep.leases_expired;
  Alcotest.(check bool) (Printf.sprintf "at most 2 lease callbacks queued (peak %d)" !peak) true
    (!peak <= 2)

(* A backward clock jump: a renewal that lowers a deadline below the armed
   sweep arms an earlier one, so the lease still runs out at its local
   deadline and not when the old, later sweep fires. *)
let test_lease_backward_jump () =
  let c = make_clock () in
  let rep = Rep.create ~timers:c.timers ~lease:10.0 ~name:"r" () in
  Rep.insert rep ~txn:1 "k" 1 "v";
  c.set_now 5.0;
  c.set_now (-5.0);
  Rep.keepalive rep ~txn:1;
  c.set_now 4.99;
  expect_outcome rep "alive before the lowered deadline" 1 `Unknown;
  c.set_now 5.0;
  expect_outcome rep "aborted at the lowered deadline" 1 `Aborted

(* A sweep armed before a crash does nothing afterwards, and a transaction
   begun after recovery still gets a sweep of its own. *)
let test_lease_sweep_across_crash () =
  let c = make_clock () in
  let rep = Rep.create ~timers:c.timers ~lease:10.0 ~name:"r" () in
  Rep.insert rep ~txn:1 "k" 1 "v";
  c.set_now 2.0;
  Rep.crash rep;
  c.set_now 3.0;
  Rep.recover rep;
  Rep.insert rep ~txn:2 "k" 1 "v";
  c.set_now 10.0;
  Alcotest.(check int) "the orphaned sweep re-armed nothing" 1 (c.pending ());
  expect_outcome rep "post-recovery transaction alive" 2 `Unknown;
  c.set_now 12.99;
  expect_outcome rep "alive before its deadline" 2 `Unknown;
  c.set_now 13.0;
  expect_outcome rep "aborted at its deadline" 2 `Aborted;
  Alcotest.(check int) "one lease expired" 1 (Rep.counters rep).Rep.leases_expired

let test_commit_abort_mutual_exclusion () =
  let rep = Rep.create ~name:"r" () in
  Rep.insert rep ~txn:1 "k" 1 "v";
  Rep.commit rep ~txn:1;
  Rep.commit rep ~txn:1 (* duplicate delivery: idempotent *);
  (try
     Rep.abort rep ~txn:1;
     Alcotest.fail "abort accepted after commit"
   with Txn.Abort _ -> ());
  Rep.insert rep ~txn:2 "x" 1 "v";
  Rep.abort rep ~txn:2;
  Rep.abort rep ~txn:2;
  (try
     Rep.commit rep ~txn:2;
     Alcotest.fail "commit accepted after abort"
   with Txn.Abort _ -> ());
  Alcotest.(check bool) "outcomes on file" true
    (Rep.outcome_of rep 1 = `Committed && Rep.outcome_of rep 2 = `Aborted)

(* --- end-to-end through the suite ------------------------------------------------------ *)

let test_suite_commit_success () =
  let coordinator = Coordinator.create ~id:3 () in
  let reps = Array.init 3 (fun i -> Rep.create ~name:(Printf.sprintf "r%d" i) ()) in
  let suite =
    Suite.create ~coordinator
      ~config:(Config.simple ~n:3 ~r:2 ~w:2)
      ~transport:(Transport.local reps)
      ~txns:(Txn.Manager.create ())
      ()
  in
  (match Suite.insert suite "k" "v" with Ok () -> () | Error _ -> Alcotest.fail "insert");
  Alcotest.(check bool) "visible" true (Suite.mem suite "k");
  (* The commit decision was force-logged by this client's coordinator. *)
  Alcotest.(check bool) "coordinator logged the commit" true
    (Coordinator.decision coordinator 1 = Some Coordinator.Committed);
  Alcotest.(check bool) "log is durable (non-empty)" true
    (Coordinator.log_length coordinator > 0)

(* Two-phase commit is the only commit: the [two_phase] label that perfbench
   still passes accepts [true] and refuses [false]. *)
let test_one_phase_refused () =
  let config = Config.simple ~n:3 ~r:2 ~w:2 in
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted ~two_phase:false" what
    | exception Invalid_argument _ -> ()
  in
  refused "Suite.create" (fun () ->
      let reps = Array.init 3 (fun i -> Rep.create ~name:(Printf.sprintf "r%d" i) ()) in
      ignore
        (Suite.create ~two_phase:false ~config ~transport:(Transport.local reps)
           ~txns:(Txn.Manager.create ()) ()));
  refused "Shard_world.create" (fun () ->
      ignore (Repdir_harness.Shard_world.create ~two_phase:false ~config ~groups:1 ()))

let test_suite_crash_between_phases () =
  (* A write-quorum member crashes after every prepare succeeded but before
     its commit arrives; the coordinator logged commit, so recovery restores
     the transaction in doubt and the termination protocol commits it — the
     exact window in which a commit without a prepare phase would lose the
     write. *)
  let coordinator = Coordinator.create ~id:3 () in
  let reps = Array.init 3 (fun i -> Rep.create ~name:(Printf.sprintf "r%d" i) ()) in
  let txns = Txn.Manager.create () in
  let txn = Txn.Manager.begin_txn txns in
  Rep.insert reps.(0) ~txn "w" 9 "v";
  Rep.insert reps.(1) ~txn "w" 9 "v";
  Rep.prepare reps.(0) ~txn ~coord:3;
  Rep.prepare reps.(1) ~txn ~coord:3;
  ignore (Coordinator.decide coordinator txn Coordinator.Committed);
  Rep.commit reps.(1) ~txn;
  (* rep0 crashes before its commit arrives. *)
  Rep.crash reps.(0);
  Rep.recover reps.(0);
  Alcotest.(check (list int)) "rep0 holds the txn in doubt" [ txn ]
    (Rep.in_doubt_txns reps.(0));
  (* Termination: rep0 queries the coordinator it logged at prepare. *)
  let verdict =
    match Coordinator.resolve coordinator txn with
    | Coordinator.Committed -> `Committed
    | Coordinator.Aborted -> `Aborted
  in
  Rep.resolve_in_doubt reps.(0) ~txn verdict;
  Alcotest.(check bool) "window closed: rep0 has the entry" true
    (List.exists (fun (k, _, _) -> k = "w") (Rep.entries reps.(0)));
  Alcotest.(check int) "no orphaned locks" 0 (Rep.locks_held reps.(0))

let test_suite_prepare_failure_aborts_all () =
  (* rep0 crashes after the operation body but before the prepare round:
     its vote cannot be collected, so the whole transaction must abort —
     no representative may keep the entry. *)
  let reps = Array.init 3 (fun i -> Rep.create ~name:(Printf.sprintf "r%d" i) ()) in
  let txns = Txn.Manager.create () in
  let suite =
    Suite.create ~picker:(Picker.Fixed [| 0; 1; 2 |])
      ~config:(Config.simple ~n:3 ~r:2 ~w:2)
      ~transport:(Transport.local reps) ~txns ()
  in
  ignore (Suite.insert suite "pre" "v");
  (match
     Suite.with_txn suite (fun txn ->
         (match Suite.insert ~txn suite "k" "v" with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "insert op");
         (* Crash the first write-quorum member before its prepare. *)
         Rep.crash reps.(0))
   with
  | () -> Alcotest.fail "commit should have failed"
  | exception Suite.Unavailable _ -> ());
  Rep.recover reps.(0);
  (* Atomicity: no representative kept the entry, and the pre-existing
     entry survives everywhere it was written. *)
  Array.iter
    (fun rep ->
      Alcotest.(check bool) "no k on any rep" false
        (List.exists (fun (key, _, _) -> key = "k") (Rep.entries rep)))
    reps;
  Alcotest.(check bool) "k gone from the suite" false (Suite.mem suite "k");
  Alcotest.(check bool) "pre survives" true (Suite.mem suite "pre")

let test_prepare_refused_after_mid_txn_crash () =
  (* A representative that crashed and recovered *while a transaction was in
     flight* lost that transaction's effects; it must refuse the prepare
     vote, aborting the transaction instead of half-committing it. (Found by
     the chaos test.) *)
  let rep = Rep.create ~name:"r" () in
  Rep.insert rep ~txn:5 "k" 1 "v";
  Rep.crash rep;
  Rep.recover rep;
  (* The transaction's client is unaware and proceeds to commit. *)
  (try
     Rep.prepare rep ~txn:5 ~coord:3;
     Alcotest.fail "prepare accepted a half-lost transaction"
   with Txn.Abort (Txn.Unavailable _) -> ());
  (* A transaction whose operations all happened after the recovery is fine. *)
  Rep.insert rep ~txn:6 "k2" 1 "v";
  Rep.prepare rep ~txn:6 ~coord:3;
  Rep.commit rep ~txn:6;
  Alcotest.(check bool) "fresh txn commits" true
    (List.exists (fun (k, _, _) -> k = "k2") (Rep.entries rep))

let test_suite_mid_txn_crash_aborts_atomically () =
  (* End-to-end: rep0 crashes and recovers between the transaction's two
     inserts; 2PC must abort the whole transaction — neither key may be
     visible afterwards. *)
  let reps = Array.init 3 (fun i -> Rep.create ~name:(Printf.sprintf "r%d" i) ()) in
  let suite =
    Suite.create ~picker:(Picker.Fixed [| 0; 1; 2 |])
      ~config:(Config.simple ~n:3 ~r:2 ~w:2)
      ~transport:(Transport.local reps)
      ~txns:(Txn.Manager.create ())
      ()
  in
  (match
     Suite.with_txn suite (fun txn ->
         (match Suite.insert ~txn suite "x" "v" with Ok () -> () | Error _ -> assert false);
         Rep.crash reps.(0);
         Rep.recover reps.(0);
         match Suite.insert ~txn suite "y" "v" with Ok () -> () | Error _ -> assert false)
   with
  | () -> Alcotest.fail "commit should have been refused"
  | exception Suite.Unavailable _ -> ());
  Array.iter
    (fun rep ->
      List.iter
        (fun (k, _, _) ->
          if k = "x" || k = "y" then Alcotest.failf "%s survived on %s" k (Rep.name rep))
        (Rep.entries rep))
    reps;
  Alcotest.(check bool) "x not visible" false (Suite.mem suite "x");
  Alcotest.(check bool) "y not visible" false (Suite.mem suite "y")

let test_recovery_race_resolution_beats_late_commit () =
  (* The participant recovers and resolves (presumed abort) before the
     coordinator decides: the coordinator's later commit must lose and
     abort the other participant too. *)
  let coordinator = Coordinator.create ~id:3 () in
  let a = Rep.create ~name:"a" () in
  let b = Rep.create ~name:"b" () in
  let txn = 41 in
  Rep.insert a ~txn "k" 1 "v";
  Rep.insert b ~txn "k" 1 "v";
  Rep.prepare a ~txn ~coord:3;
  Rep.prepare b ~txn ~coord:3;
  Rep.crash a;
  Rep.recover a;
  (* a's termination query reaches the coordinator first: no decision on
     file, so the query decides abort (first-writer-wins). *)
  let verdict =
    match Coordinator.resolve coordinator txn with
    | Coordinator.Committed -> `Committed
    | Coordinator.Aborted -> `Aborted
  in
  Rep.resolve_in_doubt a ~txn verdict;
  Alcotest.(check bool) "coordinator's late commit loses" true
    (Coordinator.decide coordinator txn Coordinator.Committed = Coordinator.Aborted);
  (* The coordinator conforms by aborting b. *)
  Rep.abort b ~txn;
  Alcotest.(check int) "a empty" 0 (Rep.size a);
  Alcotest.(check int) "b empty" 0 (Rep.size b);
  Alcotest.(check int) "no locks on a" 0 (Rep.locks_held a);
  Alcotest.(check int) "no locks on b" 0 (Rep.locks_held b)

let test_peer_resolution_is_final () =
  (* The coordinator is unreachable; a peer that heard the commit round
     answers the termination query, and that answer is safe to act on. *)
  let coordinator = Coordinator.create ~id:3 () in
  let a = Rep.create ~name:"a" () in
  let b = Rep.create ~name:"b" () in
  let txn = 42 in
  Rep.insert a ~txn "k" 1 "v";
  Rep.insert b ~txn "k" 1 "v";
  Rep.prepare a ~txn ~coord:3;
  Rep.prepare b ~txn ~coord:3;
  ignore (Coordinator.decide coordinator txn Coordinator.Committed);
  Rep.commit b ~txn;
  Rep.crash a;
  Rep.recover a;
  (* a cannot reach the coordinator; it asks b instead. *)
  (match Rep.outcome_of b txn with
  | `Committed -> Rep.resolve_in_doubt a ~txn `Committed
  | `Aborted | `Unknown -> Alcotest.fail "peer should know the commit");
  Alcotest.(check bool) "a committed via peer" true
    (List.exists (fun (k, _, _) -> k = "k") (Rep.entries a));
  Alcotest.(check int) "locks drained" 0 (Rep.locks_held a)

(* --- end-to-end on the simulator -------------------------------------------------------- *)

let test_sim_world_end_to_end () =
  let open Repdir_sim in
  let open Repdir_harness in
  let world =
    Shard_world.create ~rpc_timeout:30.0
      ~config:(Config.simple ~n:3 ~r:2 ~w:2) ~groups:1 ()
  in
  let sim = Shard_world.sim world in
  let suite = Shard_world.suite_for_client world 0 0 in
  let ok = ref false in
  Sim.spawn sim (fun () ->
      ignore (Suite.insert suite "k" "v");
      Shard_world.crash_rep world ~g:0 2;
      (match Suite.update suite "k" "v2" with Ok () -> () | Error _ -> ());
      Shard_world.recover_rep world ~g:0 2;
      ok := Suite.lookup suite "k" = Some (2, "v2") || Suite.mem suite "k");
  Sim.run sim;
  Alcotest.(check bool) "2PC world runs correctly" true !ok

let test_sim_world_in_doubt_resolves_by_rpc () =
  (* Crash a participant right after its prepare is durable; after recovery
     its in-doubt transaction must resolve through the installed RPC
     resolver (coordinator first) without any outside help. *)
  let open Repdir_sim in
  let open Repdir_harness in
  let world =
    Shard_world.create ~lease:20.0 ~rpc_timeout:10.0
      ~config:(Config.simple ~n:3 ~r:3 ~w:3) ~groups:1 ()
  in
  let sim = Shard_world.sim world in
  let reps = Shard_world.group_reps world 0 in
  let suite = Shard_world.suite_for_client world 0 0 in
  Sim.spawn sim (fun () ->
      ignore (Suite.insert suite "k" "v");
      (* Simulate the lost-commit window at rep 2 directly: a prepared
         transaction whose commit never arrives. *)
      let txn = 99 in
      Rep.insert reps.(2) ~txn "z" 5 "v";
      Rep.prepare reps.(2) ~txn ~coord:(Shard_world.coordinator world 0 |> Coordinator.id);
      Shard_world.crash_rep world ~g:0 2;
      Shard_world.recover_rep world ~g:0 2;
      (* The restored in-doubt transaction queries the (live) coordinator;
         no decision is on file, so presumed abort terminates it. *)
      Sim.sleep sim 100.0);
  Sim.run sim;
  Alcotest.(check int) "in-doubt drained" 0 (Rep.in_doubt_count reps.(2));
  Alcotest.(check int) "locks drained" 0 (Rep.locks_held reps.(2));
  Alcotest.(check bool) "presumed abort" true (Rep.outcome_of reps.(2) 99 = `Aborted);
  Alcotest.(check bool) "resolved by coordinator query" true
    ((Rep.counters reps.(2)).Rep.indoubt_by_coordinator = 1)

(* --- batching: deferred commits and group commit on the simulator ----------------------- *)

let test_sim_batched_commit_flush_drains () =
  (* Batched two-phase mode defers the commit round as notices; the flush
     timer must deliver them so locks drain without any further client
     traffic. *)
  let open Repdir_sim in
  let open Repdir_harness in
  let world =
    Shard_world.create ~lease:200.0 ~rpc_timeout:30.0
      ~config:(Config.simple ~n:3 ~r:2 ~w:2) ~groups:1 ()
  in
  let sim = Shard_world.sim world in
  let suite = Shard_world.suite_for_client ~batching:true world 0 0 in
  Sim.spawn sim (fun () ->
      ignore (Suite.insert suite "k" "v");
      ignore (Suite.insert suite "k2" "v2");
      Alcotest.(check bool) "read-back sees the insert" true (Suite.mem suite "k"));
  Sim.run sim;
  Alcotest.(check int) "notices drained" 0 (Suite.pending_notice_count suite);
  Array.iter
    (fun rep ->
      Alcotest.(check int) (Rep.name rep ^ " locks drained") 0 (Rep.locks_held rep);
      Alcotest.(check int) (Rep.name rep ^ " nothing in doubt") 0 (Rep.in_doubt_count rep))
    (Shard_world.group_reps world 0)

let test_sim_batched_commit_lease_backstop () =
  (* Kill the pipeline: the suite's timers drop every callback, so the
     flush never fires and the deferred commit notices are lost. Every
     prepared participant's lease must push the transaction in doubt and
     the termination protocol must commit it from the coordinator's
     decision log — same verdict as the lost notice, just slower. *)
  let open Repdir_sim in
  let open Repdir_harness in
  let config = Config.simple ~n:3 ~r:2 ~w:2 in
  let world = Shard_world.create ~lease:20.0 ~rpc_timeout:10.0 ~config ~groups:1 () in
  let sim = Shard_world.sim world in
  let suite =
    Suite.create ~batching:true
      ~timers:{ Rep.now = (fun () -> Sim.now sim); after = (fun _ _ -> ()) }
      ~coordinator:(Shard_world.coordinator world 0) ~config
      ~transport:(Shard_world.client_transport world 0 0) ~txns:(Shard_world.txns world) ()
  in
  Sim.spawn sim (fun () ->
      ignore (Suite.insert suite "k" "v");
      Sim.sleep sim 400.0);
  Sim.run sim;
  let reps = Shard_world.group_reps world 0 in
  Array.iter
    (fun rep ->
      Alcotest.(check int) (Rep.name rep ^ " locks drained") 0 (Rep.locks_held rep);
      Alcotest.(check int) (Rep.name rep ^ " nothing in doubt") 0 (Rep.in_doubt_count rep))
    reps;
  (* The write quorum's members applied the commit despite never receiving
     the commit round. *)
  let holders =
    Array.fold_left
      (fun n rep ->
        if List.exists (fun (k, _, _) -> k = "k") (Rep.entries rep) then n + 1 else n)
      0 reps
  in
  Alcotest.(check bool) "a write quorum holds the entry" true (holders >= 2);
  let resolved =
    Array.fold_left
      (fun n rep -> n + (Rep.counters rep).Rep.indoubt_by_coordinator)
      0 reps
  in
  Alcotest.(check bool) "resolved through the coordinator" true (resolved >= 2)

let test_sim_notice_not_held_by_crashed_member () =
  (* A batched insert returns with both write-quorum members prepared and
     holding RepModify on k; the lower-indexed one crashes at that instant,
     before its commit notice lands. The survivor's notice must not wait for
     a window, nor for the crashed member's RPC timeout (50 units here): the
     flush leaves at the decision instant and reaches every member at once,
     so the survivor's locks drain within a network round trip. *)
  let open Repdir_sim in
  let open Repdir_harness in
  let world = Shard_world.create ~config:(Config.simple ~n:3 ~r:2 ~w:2) ~groups:1 () in
  let sim = Shard_world.sim world in
  let suite = Shard_world.suite_for_client ~batching:true world 0 0 in
  let reps = Shard_world.group_reps world 0 in
  let drained_after = ref infinity in
  Sim.spawn sim (fun () ->
      Alcotest.(check bool) "insert ok" true (Suite.insert suite "k" "v" = Ok ());
      let returned = Sim.now sim in
      match List.filter (fun i -> Rep.locks_held reps.(i) > 0) [ 0; 1; 2 ] with
      | [ crashed; survivor ] ->
          Shard_world.crash_rep world ~g:0 crashed;
          let rec wait () =
            if Rep.locks_held reps.(survivor) > 0 && Sim.now sim -. returned < 100.0 then begin
              Sim.sleep sim 0.25;
              wait ()
            end
          in
          wait ();
          drained_after := Sim.now sim -. returned;
          Shard_world.recover_rep world ~g:0 crashed
      | _ -> Alcotest.fail "expected two write-quorum members holding locks");
  Sim.run sim;
  if !drained_after > 3.0 then
    Alcotest.failf "survivor's locks held %.2f units after the insert returned" !drained_after;
  (* Once the crashed member is back, the re-queued notice commits it too. *)
  Alcotest.(check int) "notices drained" 0 (Suite.pending_notice_count suite);
  Array.iter
    (fun rep ->
      Alcotest.(check int) (Rep.name rep ^ " locks drained") 0 (Rep.locks_held rep);
      Alcotest.(check int) (Rep.name rep ^ " nothing in doubt") 0 (Rep.in_doubt_count rep))
    reps

let test_sim_cross_group_prepares_overlap () =
  (* A transaction that wrote in two groups: a transport wrapper logs the
     send and reply time of every call made after the body returned and
     before the coordinator decided, which are exactly the prepare rounds'
     calls. Run concurrently, the two groups' rounds overlap in virtual
     time; run one after the other, the second would start only when the
     first's last reply arrived. *)
  let open Repdir_sim in
  let open Repdir_harness in
  let config = Config.simple ~n:3 ~r:2 ~w:2 in
  let world = Shard_world.create ~config ~groups:2 () in
  let sim = Shard_world.sim world in
  let coord = Shard_world.coordinator world 0 in
  let committing = ref None and calls = ref [] in
  let logged g (tr : Transport.t) =
    let call i f =
      let sent = Sim.now sim in
      let prepare =
        match !committing with
        | Some txn -> Coordinator.decision coord txn = None
        | None -> false
      in
      let r = tr.Transport.call i f in
      if prepare then calls := (g, sent, Sim.now sim) :: !calls;
      r
    in
    { tr with Transport.call }
  in
  let suites =
    Array.init 2 (fun g ->
        Suite.create ~coordinator:coord ~config
          ~transport:(logged g (Shard_world.client_transport world 0 g))
          ~txns:(Shard_world.txns world) ())
  in
  Sim.spawn sim (fun () ->
      Suite.with_txns suites (fun txn ->
          Alcotest.(check bool) "insert a" true (Suite.insert ~txn suites.(0) "a" "va" = Ok ());
          Alcotest.(check bool) "insert b" true (Suite.insert ~txn suites.(1) "b" "vb" = Ok ());
          committing := Some txn));
  Sim.run sim;
  let span g =
    match List.filter (fun (g', _, _) -> g' = g) !calls with
    | [] -> Alcotest.failf "group %d sent no prepare" g
    | cs ->
        ( List.fold_left (fun a (_, s, _) -> Float.min a s) infinity cs,
          List.fold_left (fun a (_, _, e) -> Float.max a e) neg_infinity cs )
  in
  let s0, e0 = span 0 and s1, e1 = span 1 in
  if not (s0 < e1 && s1 < e0) then
    Alcotest.failf "prepare rounds do not overlap: group 0 [%.2f, %.2f], group 1 [%.2f, %.2f]" s0
      e0 s1 e1

let test_sim_group_commit_coalesces_syncs () =
  (* Two clients hammer the same representatives under a group-commit
     window: concurrent forces must share leaders' syncs, visible as
     absorbed followers — and nothing may be lost doing so. The clients
     run unbatched: a batched one-round write votes in the message that
     logs it, so it is never an unvoted writer a leader would wait for. *)
  let open Repdir_sim in
  let open Repdir_harness in
  let world =
    Shard_world.create ~n_clients:2 ~group_commit:3.0 ~rpc_timeout:30.0
      ~config:(Config.simple ~n:3 ~r:2 ~w:2) ~groups:1 ()
  in
  let sim = Shard_world.sim world in
  let suites =
    Array.init 2 (fun c -> Shard_world.suite_for_client ~batching:false world c 0)
  in
  let done_count = ref 0 in
  for c = 0 to 1 do
    Sim.spawn sim (fun () ->
        for i = 0 to 14 do
          ignore
            (Suite.with_retries ~sleep:(Sim.sleep sim) (fun () ->
                 Suite.insert suites.(c) (Printf.sprintf "c%d-%d" c i) "v"))
        done;
        incr done_count)
  done;
  Sim.run sim;
  Alcotest.(check int) "both clients finished" 2 !done_count;
  let reps = Shard_world.group_reps world 0 in
  Array.iter (fun s -> Suite.flush_notices s) suites;
  Sim.run sim;
  let absorbed = Array.fold_left (fun n rep -> n + Rep.wal_group_absorbed rep) 0 reps in
  Alcotest.(check bool) "some forces were absorbed into a group" true (absorbed > 0);
  Array.iter
    (fun rep ->
      Alcotest.(check int) (Rep.name rep ^ " locks drained") 0 (Rep.locks_held rep);
      Alcotest.(check int) (Rep.name rep ^ " unsynced tail empty") 0 (Rep.wal_unsynced rep))
    reps;
  (* Every acknowledged insert is durable and visible. *)
  Sim.spawn sim (fun () ->
      for c = 0 to 1 do
        for i = 0 to 14 do
          Alcotest.(check bool)
            (Printf.sprintf "c%d-%d visible" c i)
            true
            (Suite.mem suites.(c) (Printf.sprintf "c%d-%d" c i))
        done
      done);
  Sim.run sim

(* --- batching: when a transaction ends without waiting ----------------------------- *)

(* A batched world with latency, leases and two-phase commit: the path
   perfbench measures. *)
let batched_world ?(n_clients = 1) config =
  let open Repdir_harness in
  let world =
    Shard_world.create ~n_clients ~lease:200.0 ~rpc_timeout:30.0 ~config ~groups:1 ()
  in
  let suites =
    Array.init n_clients (fun c -> Shard_world.suite_for_client ~batching:true world c 0)
  in
  (Shard_world.sim world, Shard_world.group_reps world 0, suites)

let readonly_finishes reps = Array.map (fun rep -> (Rep.counters rep).Rep.readonly_finishes) reps

let test_errored_write_one_round () =
  (* An implicit insert of a present key, and an update of an absent one,
     decide from their one conditional-write round alone: no member writes,
     and each releases the transaction in the same message. The client
     returns after that round (2 messages), nothing follows it, and each
     quorum member has been released once and holds nothing. *)
  let open Repdir_sim in
  let check name write =
    let sim, reps, suites = batched_world (Config.simple ~n:3 ~r:2 ~w:2) in
    let suite = suites.(0) in
    let transport = Suite.transport suite in
    Sim.spawn sim (fun () -> ignore (Suite.insert suite "k" "v"));
    Sim.run sim;
    let msgs0 = transport.Transport.msg_count and fin0 = readonly_finishes reps in
    let at_return = ref (-1) in
    Sim.spawn sim (fun () ->
        write suite;
        at_return := transport.Transport.msg_count - msgs0);
    Sim.run sim;
    Alcotest.(check int) (name ^ ": messages when the client returns") 2 !at_return;
    Alcotest.(check int) (name ^ ": messages in all") 2 (transport.Transport.msg_count - msgs0);
    let released = Array.map2 ( - ) (readonly_finishes reps) fin0 in
    Alcotest.(check (list int)) (name ^ ": released once each") [ 0; 1; 1 ]
      (List.sort compare (Array.to_list released));
    Array.iter
      (fun rep ->
        Alcotest.(check int) (name ^ " " ^ Rep.name rep ^ " locks") 0 (Rep.locks_held rep);
        Alcotest.(check int) (name ^ " " ^ Rep.name rep ^ " leases") 0 (Rep.active_txn_count rep))
      reps
  in
  check "insert of a present key" (fun s ->
      Alcotest.(check bool) "already present" true
        (Suite.insert s "k" "v2" = Error `Already_present));
  check "update of an absent key" (fun s ->
      Alcotest.(check bool) "not present" true (Suite.update s "absent" "v" = Error `Not_present))

let test_explicit_error_keeps_read_lock () =
  (* Inside an explicit transaction the client may keep operating, so an
     insert that answers [Already_present] keeps its read locks until the
     transaction ends: another client's update of the key waits for it. *)
  let open Repdir_sim in
  let sim, _reps, suites = batched_world ~n_clients:2 (Config.simple ~n:3 ~r:2 ~w:2) in
  Sim.spawn sim (fun () -> ignore (Suite.insert suites.(0) "k" "v"));
  Sim.run sim;
  let t0 = Sim.now sim in
  let body_done = ref nan and update_done = ref nan in
  Sim.spawn sim (fun () ->
      Suite.with_txn suites.(0) (fun txn ->
          Alcotest.(check bool) "already present" true
            (Suite.insert ~txn suites.(0) "k" "x" = Error `Already_present);
          Sim.sleep sim 50.0;
          body_done := Sim.now sim));
  Sim.spawn sim ~at:(t0 +. 10.0) (fun () ->
      Alcotest.(check bool) "update applies" true (Suite.update suites.(1) "k" "y" = Ok ());
      update_done := Sim.now sim);
  Sim.run sim;
  Alcotest.(check bool)
    (Printf.sprintf "update (done at %.2f) waited for the transaction (body done at %.2f)"
       !update_done !body_done)
    true (!update_done > !body_done)

let test_written_members_get_no_readonly_offer () =
  (* 3-3-2: an explicit insert reads at all three members and writes at two.
     The prepare round offers a read-only finish to the one member it only
     read at, and sends the two written members straight to prepare: three
     termination messages, one finish and two prepares. *)
  let open Repdir_sim in
  let sim, reps, suites = batched_world (Config.simple ~n:3 ~r:3 ~w:2) in
  let suite = suites.(0) in
  let transport = Suite.transport suite in
  let fin0 = readonly_finishes reps in
  let termination = ref (-1) in
  Sim.spawn sim (fun () ->
      let at_body_end = ref 0 in
      Suite.with_txn suite (fun txn ->
          Alcotest.(check bool) "inserted" true (Suite.insert ~txn suite "k" "v" = Ok ());
          at_body_end := transport.Transport.msg_count);
      termination := transport.Transport.msg_count - !at_body_end);
  Sim.run sim;
  Alcotest.(check int) "termination messages" 3 !termination;
  let released = Array.map2 ( - ) (readonly_finishes reps) fin0 in
  Alcotest.(check (list int)) "only the read-only member released" [ 0; 0; 1 ]
    (List.sort compare (Array.to_list released));
  Alcotest.(check int) "written at two members" 2
    (Array.fold_left
       (fun n rep -> if List.exists (fun (k, _, _) -> k = "k") (Rep.entries rep) then n + 1 else n)
       0 reps)

let test_restarted_member_is_prepared () =
  (* rep0 is written (or read), then crashes and recovers before the commit:
     it lost the transaction's write (or read lock), and knowing nothing of
     the transaction it would grant a read-only finish. It goes to prepare
     instead, where the changed incarnation aborts the whole transaction, as
     the unbatched suite does; releasing it would commit an insert at one
     member of a two-member write quorum, or a read no lock protected to the
     end. *)
  let check name op =
    let reps = Array.init 3 (fun i -> Rep.create ~name:(Printf.sprintf "r%d" i) ()) in
    let suite =
      Suite.create ~batching:true ~picker:(Picker.Fixed [| 0; 1; 2 |])
        ~config:(Config.simple ~n:3 ~r:2 ~w:2)
        ~transport:(Transport.local reps)
        ~txns:(Txn.Manager.create ())
        ()
    in
    (match
       Suite.with_txn suite (fun txn ->
           op suite txn;
           Rep.crash reps.(0);
           Rep.recover reps.(0))
     with
    | () -> Alcotest.failf "%s: commit should have been refused" name
    | exception Suite.Unavailable _ -> ());
    Array.iter
      (fun rep ->
        if List.exists (fun (k, _, _) -> k = "x") (Rep.entries rep) then
          Alcotest.failf "%s: x survived on %s" name (Rep.name rep))
      reps
  in
  check "written" (fun suite txn ->
      Alcotest.(check bool) "inserted" true (Suite.insert ~txn suite "x" "v" = Ok ()));
  check "read" (fun suite txn ->
      Alcotest.(check bool) "absent" true (Suite.lookup ~txn suite "x" = None))

(* --- batching: a delete resolves its neighbours from its probe replies -------------- *)

module Bound = Repdir_key.Bound

(* Three local representatives: A = 0, B = 1, C = 2. *)
type fixed_world = { reps : Rep.t array; transport : Transport.t; txns : Txn.Manager.t }

let fixed_world () =
  let reps = Array.init 3 (fun i -> Rep.create ~name:(Printf.sprintf "r%d" i) ()) in
  { reps; transport = Transport.local reps; txns = Txn.Manager.create () }

(* [f] over a batched two-phase suite with a fixed quorum order; then the
   commit notices its transactions left queued are delivered (a suite
   without timers never flushes them itself). *)
let run ?(config = Config.simple ~n:3 ~r:2 ~w:2) w order f =
  let s =
    Suite.create ~batching:true ~picker:(Picker.Fixed (Array.of_list order)) ~config
      ~transport:w.transport ~txns:w.txns ()
  in
  let r = f s in
  Suite.flush_notices s;
  r

(* Commit [f]'s writes straight to the chosen representatives. *)
let write w indices f =
  let txn = Txn.Manager.begin_txn w.txns in
  List.iter
    (fun i ->
      f w.reps.(i) ~txn;
      Rep.commit w.reps.(i) ~txn)
    indices;
  Txn.Manager.commit w.txns txn

let keys_at w i = List.map (fun (k, _, _) -> k) (Rep.entries w.reps.(i))

(* A delete, and the messages it sent by the time the client returned. *)
let counted_delete w order key =
  run w order (fun s ->
      let m0 = w.transport.Transport.msg_count in
      let r = Suite.delete s key in
      (r, w.transport.Transport.msg_count - m0))

(* Every read quorum agrees the key is gone. *)
let absent_everywhere w key =
  List.iter
    (fun order ->
      Alcotest.(check bool) (key ^ " absent") false (run w order (fun s -> Suite.mem s key)))
    [ [ 0; 1; 2 ]; [ 0; 2; 1 ]; [ 1; 2; 0 ] ]

let inserted w k v =
  Alcotest.(check bool) ("insert " ^ k) true (run w [ 0; 1; 2 ] (fun s -> Suite.insert s k v) = Ok ())

let test_batched_delete_two_rounds () =
  (* With no ghost in the way, the probe round resolves both neighbours and
     the write round carries the coalesce and the prepare: two messages to
     each of the two quorum members. *)
  let w = fixed_world () in
  List.iter (fun k -> inserted w k ("v" ^ k)) [ "a"; "b"; "c" ];
  let report, msgs = counted_delete w [ 0; 1; 2 ] "b" in
  Alcotest.(check int) "messages when the client returns" 4 msgs;
  Alcotest.(check bool) "was present" true report.Suite.was_present;
  Alcotest.(check bool) "pred a" true (Bound.equal report.pred (Bound.Key "a"));
  Alcotest.(check bool) "succ c" true (Bound.equal report.succ (Bound.Key "c"));
  Alcotest.(check int) "no repair" 0 report.repair_inserts;
  Alcotest.(check int) "no ghost" 0 report.ghosts_deleted;
  absent_everywhere w "b"

let test_batched_ghost_walk () =
  (* Figures 10-11 on the batched path: A keeps a ghost of b (version v)
     where C holds a newer gap over it, and bb sits at A and B only. The
     ghost takes one more round, to A alone, the one member that returned
     it; bb's value came with A's probe, so it is copied to C without a
     lookup. The report is the unbatched walk's (test_suite, "figures
     10-11: ghost walk"). *)
  let w = fixed_world () in
  inserted w "a" "va";
  inserted w "b" "vb";
  ignore (run w [ 1; 2; 0 ] (fun s -> Suite.delete s "b"));
  inserted w "bb" "vbb";
  Alcotest.(check (list string)) "A: a, ghost b, bb" [ "a"; "b"; "bb" ] (keys_at w 0);
  Alcotest.(check (list string)) "B: a, bb" [ "a"; "bb" ] (keys_at w 1);
  Alcotest.(check (list string)) "C: a only" [ "a" ] (keys_at w 2);
  let report, msgs = counted_delete w [ 0; 2; 1 ] "a" in
  Alcotest.(check bool) "succ is bb" true (Bound.equal report.Suite.succ (Bound.Key "bb"));
  Alcotest.(check bool) "pred is LOW" true (Bound.equal report.pred Bound.Low);
  Alcotest.(check int) "one repair insert (bb -> C)" 1 report.repair_inserts;
  Alcotest.(check int) "one ghost deleted (b on A)" 1 report.ghosts_deleted;
  Alcotest.(check (list string)) "A: only bb left" [ "bb" ] (keys_at w 0);
  Alcotest.(check (list string)) "C: only bb left" [ "bb" ] (keys_at w 2);
  Alcotest.(check (option string)) "bb copied with its value" (Some "vbb")
    (run w [ 2; 1; 0 ] (fun s -> Option.map snd (Suite.lookup s "bb")));
  absent_everywhere w "a";
  absent_everywhere w "b";
  Alcotest.(check int) "one message past a ghost-free delete" 5 msgs

let test_batched_ghost_beside_newer_gap () =
  (* The predecessor side's candidate b is an entry at A (version 2) and
     lies in C's gap (a, c), which a delete of b at {B, C} raised to 3. The
     gap's version wins over the entry's, so b is a ghost and the walk goes
     on to a; trusting the entry version alone would copy b to C and keep
     it alive. *)
  let w = fixed_world () in
  let insert k v r ~txn = Rep.insert r ~txn k v ("v" ^ k) in
  write w [ 0; 1; 2 ] (insert "a" 1);
  write w [ 0; 1; 2 ] (insert "c" 1);
  write w [ 0; 1 ] (insert "b" 2);
  write w [ 1; 2 ] (fun r ~txn ->
      ignore (Rep.coalesce r ~txn ~lo:(Bound.Key "a") ~hi:(Bound.Key "c") 3 : int));
  let report, msgs = counted_delete w [ 0; 2; 1 ] "c" in
  Alcotest.(check bool) "was present" true report.Suite.was_present;
  Alcotest.(check bool) "pred is a" true (Bound.equal report.pred (Bound.Key "a"));
  Alcotest.(check bool) "succ is HIGH" true (Bound.equal report.succ Bound.High);
  Alcotest.(check int) "no repair" 0 report.repair_inserts;
  Alcotest.(check int) "one ghost deleted (b on A)" 1 report.ghosts_deleted;
  Alcotest.(check (list string)) "A: a" [ "a" ] (keys_at w 0);
  Alcotest.(check (list string)) "C: a" [ "a" ] (keys_at w 2);
  absent_everywhere w "b";
  absent_everywhere w "c";
  Alcotest.(check int) "one round past the ghost, to A alone" 5 msgs

(* Each representative's [batch_ops] counter. *)
let batch_ops w = Array.map (fun rep -> (Rep.counters rep).Rep.batch_ops) w.reps

let test_repair_only_where_missing () =
  (* Figure 13 copies a real neighbour only into a member that lacks it. a
     and b are everywhere, c at A and B only, and the delete of b reads at
     {A, C}. Round 1 showed that A holds both neighbours and b, and that C
     holds a and b: A's write round is the coalesce and the prepare, C's
     adds one copy, of c, with the value A's probe carried. The dropped ops
     are two copies and a tag read at A and one of each at C: 51 and 32
     bytes of requests and replies, off the 502 they cost before. *)
  let w = fixed_world () in
  let insert k v r ~txn = Rep.insert r ~txn k v ("v" ^ k) in
  write w [ 0; 1; 2 ] (insert "a" 1);
  write w [ 0; 1; 2 ] (insert "b" 1);
  write w [ 0; 1 ] (insert "c" 2);
  let ops0 = batch_ops w and bytes0 = w.transport.Transport.bytes_count in
  let report, msgs = counted_delete w [ 0; 2; 1 ] "b" in
  let bytes = w.transport.Transport.bytes_count - bytes0 in
  Alcotest.(check int) "two rounds" 4 msgs;
  Alcotest.(check (list int)) "ops: A probes, then coalesce + prepare; C adds one copy"
    [ 3 + 2; 0; 3 + 3 ]
    (Array.to_list (Array.map2 ( - ) (batch_ops w) ops0));
  Alcotest.(check int) "one repair insert (c -> C)" 1 report.Suite.repair_inserts;
  Alcotest.(check int) "no ghost" 0 report.ghosts_deleted;
  Alcotest.(check bool) "succ is c" true (Bound.equal report.succ (Bound.Key "c"));
  Alcotest.(check (list (triple string int string))) "C: a, then c as probed"
    [ ("a", 1, "va"); ("c", 2, "vc") ]
    (Rep.entries w.reps.(2));
  Alcotest.(check int) "bytes: the dropped ops' 83 fewer" (502 - 83) bytes;
  absent_everywhere w "b"

let test_outside_member_keeps_its_ops () =
  (* 3-1-3: the delete of b reads at A alone and writes at all three. B and
     C showed nothing in round 1, so each gets both copies and the tag read
     of b; B, which lacks c, installs it. Each holds b, so the delete removes
     no ghost. *)
  let config = Config.simple ~n:3 ~r:1 ~w:3 in
  let w = fixed_world () in
  let insert k v r ~txn = Rep.insert r ~txn k v ("v" ^ k) in
  write w [ 0; 1; 2 ] (insert "a" 1);
  write w [ 0; 1; 2 ] (insert "b" 1);
  write w [ 0; 2 ] (insert "c" 1);
  let ops0 = batch_ops w in
  let report = run ~config w [ 0; 1; 2 ] (fun s -> Suite.delete s "b") in
  Alcotest.(check (list int)) "ops: A probes, then coalesce + prepare; B and C all five"
    [ 3 + 2; 5; 5 ]
    (Array.to_list (Array.map2 ( - ) (batch_ops w) ops0));
  Alcotest.(check int) "one repair insert (c -> B)" 1 report.Suite.repair_inserts;
  Alcotest.(check int) "no ghost" 0 report.ghosts_deleted;
  Alcotest.(check (list string)) "B: a, c" [ "a"; "c" ] (keys_at w 1)

(* --- batching: one round per implicit write ------------------------------------------- *)

(* The messages [f] sent by the time it returned. *)
let counted w f =
  let m0 = w.transport.Transport.msg_count in
  let r = f () in
  (r, w.transport.Transport.msg_count - m0)

(* What the key reads as at every read quorum. *)
let read_everywhere w key =
  List.map
    (fun order -> run w order (fun s -> Suite.lookup s key))
    [ [ 0; 1; 2 ]; [ 0; 2; 1 ]; [ 1; 2; 0 ] ]

let finishes w = Array.to_list (readonly_finishes w.reps)

(* The id the next transaction will get. *)
let next_txn w =
  let id = Txn.Manager.begin_txn w.txns in
  Txn.Manager.abort w.txns id;
  id + 1

let test_one_round_writes () =
  (* With no stale copy in the way, an implicit insert and an update are each
     one conditional write to the two quorum members: two messages, at the
     versions after the client's clock. *)
  let w = fixed_world () in
  run w [ 0; 1; 2 ] (fun s ->
      let r, msgs = counted w (fun () -> Suite.insert s "k" "v") in
      Alcotest.(check bool) "insert ok" true (r = Ok ());
      Alcotest.(check int) "insert: messages when the client returns" 2 msgs;
      let r, msgs = counted w (fun () -> Suite.update s "k" "v2") in
      Alcotest.(check bool) "update ok" true (r = Ok ());
      Alcotest.(check int) "update: messages when the client returns" 2 msgs);
  List.iter
    (fun r -> Alcotest.(check (option (pair int string))) "k everywhere" (Some (2, "v2")) r)
    (read_everywhere w "k")

let test_refusal_raises_the_clock () =
  (* k sits at version 10 everywhere, far above a fresh client's clock. Both
     quorum members refuse the proposal 1 and are released in the same
     message; the retry proposes the version after 10 and commits. The clock
     now stands at 11, so the next write takes 12. *)
  let w = fixed_world () in
  write w [ 0; 1; 2 ] (fun r ~txn -> Rep.insert r ~txn "k" 10 "v");
  let fin0 = finishes w in
  run w [ 0; 1; 2 ] (fun s ->
      let r, msgs = counted w (fun () -> Suite.update s "k" "v2") in
      Alcotest.(check bool) "update ok" true (r = Ok ());
      Alcotest.(check int) "two rounds of two messages" 4 msgs;
      Alcotest.(check bool) "z inserted" true (Suite.insert s "z" "vz" = Ok ()));
  Alcotest.(check (list int)) "the refusing members released in-round" [ 1; 1; 0 ]
    (List.map2 ( - ) (finishes w) fin0);
  Alcotest.(check (option (pair int string))) "k at the version after 10" (Some (11, "v2"))
    (run w [ 0; 1; 2 ] (fun s -> Suite.lookup s "k"));
  Alcotest.(check (option (pair int string))) "z at the clock's next" (Some (12, "vz"))
    (run w [ 0; 1; 2 ] (fun s -> Suite.lookup s "z"))

let test_stale_member_repaired () =
  (* The write's quorum is {A, B}, and A is stale. For an insert, A keeps a
     stale copy of k (version 1) where B and C hold a gap at 2 over it; for
     an update, A missed k's insert, which B and C hold at 2. B writes, and
     A refuses on presence alone with a tag below the proposal 3. One more
     message to A, which reports the same tag again, writes there: the
     first attempt commits, nothing is aborted, and every read quorum
     agrees. *)
  let check name ~stale ~write =
    let w = fixed_world () in
    stale w;
    let first = next_txn w + 1 in
    run w [ 0; 1; 2 ] (fun s ->
        ignore (Suite.lookup s "k");
        let r, msgs = counted w (fun () -> write s) in
        Alcotest.(check bool) (name ^ " ok") true (r = Ok ());
        Alcotest.(check int) (name ^ ": two messages and one repair") 3 msgs);
    Alcotest.(check bool) (name ^ ": the first attempt committed") true
      (Txn.Manager.status w.txns first = Txn.Committed);
    List.iter
      (fun i ->
        Alcotest.(check bool) (name ^ ": committed, not aborted") true
          (Rep.outcome_of w.reps.(i) first = `Committed))
      [ 0; 1 ];
    Alcotest.(check (list (triple string int string))) (name ^ ": A holds the new version")
      [ ("k", 3, "new") ] (Rep.entries w.reps.(0));
    List.iter
      (fun r -> Alcotest.(check (option (pair int string))) "k everywhere" (Some (3, "new")) r)
      (read_everywhere w "k")
  in
  check "insert"
    ~stale:(fun w ->
      write w [ 0; 1; 2 ] (fun r ~txn -> Rep.insert r ~txn "k" 1 "old");
      write w [ 1; 2 ] (fun r ~txn ->
          ignore (Rep.coalesce r ~txn ~lo:Bound.Low ~hi:Bound.High 2 : int)))
    ~write:(fun s -> Suite.insert s "k" "new");
  check "update"
    ~stale:(fun w -> write w [ 1; 2 ] (fun r ~txn -> Rep.insert r ~txn "k" 2 "old"))
    ~write:(fun s -> Suite.update s "k" "new")

let test_repair_checks_the_tag () =
  (* A holds k at 1, B missed its insert, C holds it. Client A has read z
     at 40, so its update of k proposes 41: A writes, B refuses on presence
     alone. Before the repair reaches B, client B, whose clock stands at 0,
     deletes k through B and C at a version below 41 and commits. B's tag
     has changed, so the repair must not commit: the update restarts and
     answers [Not_present], and k stays deleted. *)
  let w = fixed_world () in
  write w [ 0; 1; 2 ] (fun r ~txn -> Rep.insert r ~txn "z" 40 "vz");
  write w [ 0; 2 ] (fun r ~txn -> Rep.insert r ~txn "k" 1 "old");
  let armed = ref false and calls_to_b = ref 0 in
  let delete_first i =
    if !armed && i = 1 then begin
      incr calls_to_b;
      if !calls_to_b = 2 then
        Alcotest.(check bool) "the other client deleted k" true
          (run w [ 1; 2; 0 ] (fun s -> Suite.delete s "k")).Suite.was_present
    end
  in
  let transport =
    {
      w.transport with
      Transport.call =
        (fun i f ->
          delete_first i;
          w.transport.Transport.call i f);
    }
  in
  let a =
    Suite.create ~batching:true ~picker:(Picker.Fixed [| 0; 1; 2 |])
      ~config:(Config.simple ~n:3 ~r:2 ~w:2) ~transport ~txns:w.txns ()
  in
  Alcotest.(check (option (pair int string))) "z at 40" (Some (40, "vz")) (Suite.lookup a "z");
  armed := true;
  Alcotest.(check bool) "the update finds k deleted" true
    (Suite.update a "k" "new" = Error `Not_present);
  Suite.flush_notices a;
  Alcotest.(check int) "B: round 1, the repair, its abort, the restart's round and abort" 5
    !calls_to_b;
  Alcotest.(check (list (triple string int string))) "B: z alone" [ ("z", 40, "vz") ]
    (Rep.entries w.reps.(1));
  Alcotest.(check (list int)) "B: the delete's gap below 41, then z's" [ 2; 0 ]
    (List.map (fun (_, _, v) -> v) (Rep.gaps w.reps.(1)));
  absent_everywhere w "k"

let test_stale_epoch_restarts_the_write () =
  (* B has installed membership epoch 1, so the round's message to B is
     fenced after A has already written and voted. The attempt is aborted
     at A before anything re-runs, and the operation runs again in a new
     transaction under the adopted epoch: the insert answers [Ok], never its
     own tentative write. *)
  let w = fixed_world () in
  let config = Config.simple ~n:3 ~r:2 ~w:2 in
  let record =
    Repdir_member.Member.(
      encode (Stable (Result.get_ok (make_view ~epoch:1 ~config ~roster:(Array.make 3 Active)))))
  in
  Alcotest.(check bool) "B fenced" true
    (Rep.install_epoch w.reps.(1) Rep.Membership ~epoch:1 ~record);
  let first = next_txn w in
  Alcotest.(check bool) "insert ok" true
    (run w [ 0; 1; 2 ] (fun s -> Suite.insert s "k" "v") = Ok ());
  Alcotest.(check bool) "the fenced attempt aborted" true
    (Txn.Manager.status w.txns first = Txn.Aborted);
  Alcotest.(check bool) "A rolled its write back" true (Rep.outcome_of w.reps.(0) first = `Aborted);
  List.iter
    (fun r -> Alcotest.(check (option string)) "k everywhere" (Some "v") (Option.map snd r))
    (read_everywhere w "k");
  Array.iter
    (fun rep -> Alcotest.(check int) (Rep.name rep ^ " locks") 0 (Rep.locks_held rep))
    w.reps

(* --- batching: one-round proposals from a hybrid logical clock ------------------------ *)

(* Client 0 writes k at [t0] and three more times; client 1, which never read
   k, updates it 10 units after client 0 finished. Returns the messages
   client 1 sent by the time its update returned and what k then reads as at
   client 0. *)
let update_after_other_writer ?(t0 = 0.0) ?(skew = 0.0) () =
  let open Repdir_sim in
  let open Repdir_harness in
  let config = Config.simple ~n:3 ~r:2 ~w:2 in
  let world =
    Shard_world.create ~n_clients:2 ~lease:200.0 ~rpc_timeout:30.0 ~config ~groups:1 ()
  in
  let sim = Shard_world.sim world in
  let a = Shard_world.suite_for_client ~batching:true world 0 0 in
  let b =
    Suite.create ~batching:true
      ~timers:
        {
          Rep.now = (fun () -> Sim.now sim -. skew);
          after = (fun d k -> Sim.spawn sim ~at:(Sim.now sim +. d) k);
        }
      ~coordinator:(Shard_world.coordinator world 1) ~config
      ~transport:(Shard_world.client_transport world 1 0) ~txns:(Shard_world.txns world) ()
  in
  let msgs = ref (-1) and read = ref None in
  Sim.spawn sim ~at:t0 (fun () ->
      Alcotest.(check bool) "insert ok" true (Suite.insert a "k" "a0" = Ok ());
      for i = 1 to 3 do
        Alcotest.(check bool) "update ok" true (Suite.update a "k" (Printf.sprintf "a%d" i) = Ok ())
      done;
      Sim.sleep sim 10.0;
      let transport = Suite.transport b in
      let m0 = transport.Transport.msg_count in
      Alcotest.(check bool) "the other client's update ok" true (Suite.update b "k" "b" = Ok ());
      msgs := transport.Transport.msg_count - m0;
      Sim.sleep sim 10.0;
      read := Option.map snd (Suite.lookup a "k"));
  Sim.run sim;
  (!msgs, !read)

let test_blind_update_one_round () =
  (* Client 1's Lamport clock alone stands at 0, below every version client
     0 wrote; its clock's reading of the time is above them. *)
  let msgs, read = update_after_other_writer () in
  Alcotest.(check int) "one message per quorum member" 2 msgs;
  Alcotest.(check (option string)) "the update is read" (Some "b") read

let test_slow_clock_restarts_once () =
  (* Client 1's clock reads 1000 units behind the others', so its first
     proposal is below client 0's versions and refused; the retry proposes
     above every tag it saw and commits. *)
  let msgs, read = update_after_other_writer ~t0:1100.0 ~skew:1000.0 () in
  Alcotest.(check int) "two rounds of two messages" 4 msgs;
  Alcotest.(check (option string)) "the update is read" (Some "b") read

let test_proposal () =
  (* Without timers a suite proposes exactly the version after its clock: 1
     for a fresh client, 41 after reading 40. With timers it proposes the
     time in ticks (1024 per unit) when that is higher, 512 at 0.5, and the
     version after its clock when that is, 513 at the same instant. The
     timers drop their callbacks, so the notices are flushed by hand. *)
  let w = fixed_world () in
  write w [ 0; 1; 2 ] (fun r ~txn -> Rep.insert r ~txn "z" 40 "vz");
  let insert s key =
    Alcotest.(check bool) (key ^ " inserted") true (Suite.insert s key "v" = Ok ())
  in
  run w [ 0; 1; 2 ] (fun s ->
      insert s "a";
      ignore (Suite.lookup s "z");
      insert s "y");
  let timed =
    Suite.create ~batching:true ~picker:(Picker.Fixed [| 0; 1; 2 |])
      ~timers:{ Rep.now = (fun () -> 0.5); after = (fun _ _ -> ()) }
      ~config:(Config.simple ~n:3 ~r:2 ~w:2) ~transport:w.transport ~txns:w.txns ()
  in
  insert timed "b";
  insert timed "c";
  Suite.flush_notices timed;
  Alcotest.(check (list (option int))) "versions of a, y, b and c"
    [ Some 1; Some 41; Some 512; Some 513 ]
    (List.map
       (fun key -> Option.map fst (run w [ 0; 1; 2 ] (fun s -> Suite.lookup s key)))
       [ "a"; "y"; "b"; "c" ])

(* --- batching: home quorums ------------------------------------------------------------ *)

(* A batched suite drawing quorums at random: its keyed rounds go to the
   key's home quorum. *)
let random_suite ~seed w transport =
  Suite.create ~seed ~batching:true ~picker:Picker.Random ~config:(Config.simple ~n:3 ~r:2 ~w:2)
    ~transport ~txns:w.txns ()

(* The key's rendezvous order over the three representatives. *)
let home_order key = Array.of_list (Picker.home_order key (Config.simple ~n:3 ~r:2 ~w:2))

let test_home_quorum_ignores_the_seed () =
  (* Client A inserts twenty keys and client B, with another seed, updates
     them: each write goes to the first two members of its key's rendezvous
     order, and only there (where B's clock is behind A's versions, its
     refused round and the retry both do). *)
  let w = fixed_world () in
  let called = ref [] in
  let recording =
    let call i f =
      called := i :: !called;
      w.transport.Transport.call i f
    in
    { w.transport with Transport.call }
  in
  let a = random_suite ~seed:1L w recording in
  let b = random_suite ~seed:2L w recording in
  let members s write =
    called := [];
    Alcotest.(check bool) "write ok" true (write () = Ok ());
    let m = List.sort_uniq compare !called in
    Suite.flush_notices s;
    m
  in
  let homes =
    List.init 20 (fun i ->
        let key = Printf.sprintf "k%02d" i in
        let home = List.sort compare (Array.to_list (Array.sub (home_order key) 0 2)) in
        Alcotest.(check (list int)) (key ^ ": A's insert") home
          (members a (fun () -> Suite.insert a key "v"));
        Alcotest.(check (list int)) (key ^ ": B's update") home
          (members b (fun () -> Suite.update b key "v2"));
        home)
  in
  Alcotest.(check int) "keys spread over all three pairs" 3
    (List.length (List.sort_uniq compare homes))

let test_failover_then_repair () =
  (* k's first home member is down when k is inserted, so the next slot of
     its rendezvous order stands in. Once the member is back, an update of
     k goes to k's home pair again and finds it stale: two messages and one
     repair, and the first attempt commits. *)
  let w = fixed_world () in
  let order = home_order "k" in
  let s = random_suite ~seed:1L w w.transport in
  Rep.crash w.reps.(order.(0));
  Alcotest.(check bool) "insert ok" true (Suite.insert s "k" "v" = Ok ());
  Suite.flush_notices s;
  List.iteri
    (fun j i ->
      Alcotest.(check bool) (Printf.sprintf "k at slot %d" j) (j > 0) (List.mem "k" (keys_at w i)))
    (Array.to_list order);
  Rep.recover w.reps.(order.(0));
  let r, msgs = counted w (fun () -> Suite.update s "k" "new") in
  Suite.flush_notices s;
  Alcotest.(check bool) "update ok" true (r = Ok ());
  Alcotest.(check int) "two messages and one repair" 3 msgs;
  Alcotest.(check (list string)) "the home member holds k again" [ "k" ] (keys_at w order.(0));
  List.iter
    (fun r -> Alcotest.(check (option string)) "k everywhere" (Some "new") (Option.map snd r))
    (read_everywhere w "k")

(* --- batching: one version read per key per transaction ------------------------------- *)

let test_upsert_reads_once () =
  (* perfbench's cross-shard upsert: an update that answers [Not_present],
     then an insert of the same key. The insert's decision is the update's
     version read, still under its locks, and its write is deferred to the
     prepare, so the transaction sends the update's read round (2) and one
     round carrying the write and the vote (2): 4 messages, 2 fewer than a
     write round of its own and a separate prepare round. *)
  let w = fixed_world () in
  let msgs =
    run w [ 0; 1; 2 ] (fun s ->
        snd
          (counted w (fun () ->
               Suite.with_txn s (fun txn ->
                   Alcotest.(check bool) "update: not present" true
                     (Suite.update ~txn s "k" "v" = Error `Not_present);
                   Alcotest.(check bool) "insert ok" true (Suite.insert ~txn s "k" "v" = Ok ())))))
  in
  Alcotest.(check int) "messages" 4 msgs;
  List.iter
    (fun r -> Alcotest.(check (option string)) "k everywhere" (Some "v") (Option.map snd r))
    (read_everywhere w "k")

let test_deferred_write_seen () =
  (* A batched explicit insert's write leaves before the transaction's next
     operation: a lookup of the key in the same transaction reads it, and a
     delete of the key finds it present and removes it. *)
  let w = fixed_world () in
  run w [ 0; 1; 2 ] (fun s ->
      Suite.with_txn s (fun txn ->
          Alcotest.(check bool) "insert k" true (Suite.insert ~txn s "k" "v" = Ok ());
          Alcotest.(check (option string)) "lookup k" (Some "v")
            (Option.map snd (Suite.lookup ~txn s "k"));
          Alcotest.(check bool) "insert j" true (Suite.insert ~txn s "j" "v" = Ok ());
          Alcotest.(check bool) "j was present" true (Suite.delete ~txn s "j").Suite.was_present));
  List.iter
    (fun r -> Alcotest.(check (option string)) "k everywhere" (Some "v") (Option.map snd r))
    (read_everywhere w "k");
  absent_everywhere w "j"

let test_failed_fused_round_aborts () =
  (* An update's version read locks k at r0 and r1, and its write waits for
     the prepare; r0 crashes in between. The transport still reports r0 up,
     so the round carrying the write and the vote goes to r0 and r1 and
     fails at r0. That is a no vote: the commit raises [Unavailable], r1's
     voted write is rolled back, and k is unchanged at every member, with
     nothing locked, leased or in doubt. *)
  let w = fixed_world () in
  inserted w "k" "old";
  let before = Array.map Rep.entries w.reps in
  let transport = { w.transport with Transport.is_up = (fun _ -> true) } in
  let s =
    Suite.create ~batching:true ~picker:(Picker.Fixed [| 0; 1; 2 |])
      ~config:(Config.simple ~n:3 ~r:2 ~w:2) ~transport ~txns:w.txns ()
  in
  (match
     Suite.with_txn s (fun txn ->
         Alcotest.(check bool) "update ok" true (Suite.update ~txn s "k" "new" = Ok ());
         Rep.crash w.reps.(0))
   with
  | () -> Alcotest.fail "the commit should have been refused"
  | exception Suite.Unavailable _ -> ());
  Rep.recover w.reps.(0);
  Array.iteri
    (fun i rep ->
      let name = Rep.name rep in
      Alcotest.(check int) (name ^ " locks") 0 (Rep.locks_held rep);
      Alcotest.(check int) (name ^ " leases") 0 (Rep.active_txn_count rep);
      Alcotest.(check int) (name ^ " in doubt") 0 (Rep.in_doubt_count rep);
      Alcotest.(check bool) (name ^ " k unchanged") true (Rep.entries rep = before.(i)))
    w.reps

let test_delete_then_insert () =
  (* One transaction reads b (present) and bb (absent, inside the gap
     (b, c)), deletes b, then inserts both. The delete turned (a, c) into one
     gap at a version above both reads, so neither read may answer for the
     inserts: b must not read present, and bb must not be written below the
     new gap, where every read quorum would lose it. *)
  let w = fixed_world () in
  List.iter (fun k -> inserted w k ("v" ^ k)) [ "a"; "b"; "c" ];
  run w [ 0; 1; 2 ] (fun s ->
      Suite.with_txn s (fun txn ->
          Alcotest.(check bool) "b already present" true
            (Suite.insert ~txn s "b" "x" = Error `Already_present);
          Alcotest.(check bool) "bb not present" true
            (Suite.update ~txn s "bb" "x" = Error `Not_present);
          Alcotest.(check bool) "b was present" true (Suite.delete ~txn s "b").Suite.was_present;
          Alcotest.(check bool) "insert b" true (Suite.insert ~txn s "b" "b2" = Ok ());
          Alcotest.(check bool) "insert bb" true (Suite.insert ~txn s "bb" "bb2" = Ok ())));
  List.iter
    (fun (k, v) ->
      List.iter
        (fun r -> Alcotest.(check (option string)) (k ^ " everywhere") (Some v) (Option.map snd r))
        (read_everywhere w k))
    [ ("b", "b2"); ("bb", "bb2") ]

(* --- the safety property ---------------------------------------------------------------- *)

(* A representative must never both commit and abort the same transaction,
   under any interleaving of crashes, duplicate deliveries, retries and
   termination queries. The script drives one rep + its coordinator through
   a random event sequence; transient protocol refusals (Txn.Abort) are the
   protocol working, so they are swallowed — the property is about the
   durable outcome bookkeeping. *)
let qcheck_never_commit_and_abort =
  QCheck.Test.make ~name:"rep never both commits and aborts a txn" ~count:500
    QCheck.(list_of_size Gen.(int_range 1 14) (int_bound 7))
    (fun script ->
      let coord = Coordinator.create ~id:9 () in
      let rep = Rep.create ~name:"r" () in
      let txn = 1 in
      let seen_commit = ref false and seen_abort = ref false in
      let note () =
        match Rep.outcome_of rep txn with
        | `Committed -> seen_commit := true
        | `Aborted -> seen_abort := true
        | `Unknown -> ()
      in
      let resolve_if_in_doubt () =
        if List.mem txn (Rep.in_doubt_txns rep) then
          let verdict =
            match Coordinator.resolve coord txn with
            | Coordinator.Committed -> `Committed
            | Coordinator.Aborted -> `Aborted
          in
          Rep.resolve_in_doubt rep ~txn verdict
      in
      let key = ref 0 in
      let apply ev =
        (try
           match ev with
           | 0 ->
               incr key;
               Rep.insert rep ~txn (Printf.sprintf "k%d" !key) 1 "v"
           | 1 -> Rep.prepare rep ~txn ~coord:9
           | 2 -> (
               (* The coordinator tries to commit; it obeys the winner. *)
               match Coordinator.decide coord txn Coordinator.Committed with
               | Coordinator.Committed -> Rep.commit rep ~txn
               | Coordinator.Aborted -> Rep.abort rep ~txn)
           | 3 -> (
               match Coordinator.decide coord txn Coordinator.Aborted with
               | Coordinator.Committed -> Rep.commit rep ~txn
               | Coordinator.Aborted -> Rep.abort rep ~txn)
           | 4 ->
               Rep.crash rep;
               Rep.recover rep
           | 5 -> (
               (* Duplicate delivery of an already-made decision. *)
               match Coordinator.decision coord txn with
               | Some Coordinator.Committed -> Rep.commit rep ~txn
               | Some Coordinator.Aborted -> Rep.abort rep ~txn
               | None -> ())
           | 6 -> resolve_if_in_doubt ()
           | _ -> Coordinator.recover coord
         with _ -> ());
        note ()
      in
      List.iter apply script;
      (* Quiesce: terminate whatever is left in doubt, then final check. *)
      (try resolve_if_in_doubt () with _ -> ());
      note ();
      not (!seen_commit && !seen_abort))

let () =
  Alcotest.run "two-phase"
    [
      ( "coordinator",
        [
          Alcotest.test_case "first writer wins" `Quick test_coordinator_first_writer_wins;
          Alcotest.test_case "resolve presumes abort" `Quick
            test_coordinator_resolve_presumes_abort;
          Alcotest.test_case "recovery keeps commits" `Quick
            test_coordinator_recover_keeps_commits;
          Alcotest.test_case "compaction keeps every commit" `Quick
            test_coordinator_compaction_keeps_commits;
          Alcotest.test_case "compaction waits for a forced log" `Quick
            test_coordinator_compaction_waits_for_force;
        ] );
      ( "wal",
        [
          Alcotest.test_case "in-doubt detection" `Quick test_wal_in_doubt;
          Alcotest.test_case "replay decided prepared" `Quick test_wal_replay_prepared_decided;
          Alcotest.test_case "redo applies held effects" `Quick test_wal_redo_deferred_commit;
          Alcotest.test_case "settled: forced and writable" `Quick test_wal_settled;
        ] );
      ( "rep",
        [
          Alcotest.test_case "recovery restores in-doubt locked" `Quick
            test_rep_recovery_restores_in_doubt_locked;
          Alcotest.test_case "abort verdict drops effects" `Quick
            test_rep_recovery_abort_verdict_drops_effects;
          Alcotest.test_case "recovery resolver terminates" `Quick
            test_rep_recovery_resolver_terminates;
          Alcotest.test_case "resolution retries until answer" `Quick
            test_rep_resolution_retries_until_answer;
          Alcotest.test_case "commit/abort mutual exclusion" `Quick
            test_commit_abort_mutual_exclusion;
        ] );
      ( "lease",
        [
          Alcotest.test_case "expiry aborts unprepared unilaterally" `Quick
            test_lease_expiry_unilateral_abort;
          Alcotest.test_case "expiry sends prepared in doubt" `Quick
            test_lease_expiry_prepared_goes_in_doubt;
          Alcotest.test_case "one sweep: bounded callbacks, expiry at deadline" `Quick
            test_lease_one_sweep;
          Alcotest.test_case "backward clock jump arms an earlier sweep" `Quick
            test_lease_backward_jump;
          Alcotest.test_case "crash orphans the sweep, recovery re-arms" `Quick
            test_lease_sweep_across_crash;
        ] );
      ( "suite",
        [
          Alcotest.test_case "2PC success path" `Quick test_suite_commit_success;
          Alcotest.test_case "two_phase:false refused" `Quick test_one_phase_refused;
          Alcotest.test_case "crash between phases" `Quick
            test_suite_crash_between_phases;
          Alcotest.test_case "prepare failure aborts all" `Quick
            test_suite_prepare_failure_aborts_all;
          Alcotest.test_case "recovery resolution beats late commit" `Quick
            test_recovery_race_resolution_beats_late_commit;
          Alcotest.test_case "peer resolution is final" `Quick test_peer_resolution_is_final;
          Alcotest.test_case "prepare refused after mid-txn crash" `Quick
            test_prepare_refused_after_mid_txn_crash;
          Alcotest.test_case "mid-txn crash aborts atomically" `Quick
            test_suite_mid_txn_crash_aborts_atomically;
        ] );
      ( "sim",
        [
          Alcotest.test_case "sim world end to end" `Quick test_sim_world_end_to_end;
          Alcotest.test_case "in-doubt resolves by rpc" `Quick
            test_sim_world_in_doubt_resolves_by_rpc;
          Alcotest.test_case "cross-group prepares overlap" `Quick
            test_sim_cross_group_prepares_overlap;
        ] );
      ( "batching",
        [
          Alcotest.test_case "deferred commits flush and drain" `Quick
            test_sim_batched_commit_flush_drains;
          Alcotest.test_case "lease backstops a lost commit notice" `Quick
            test_sim_batched_commit_lease_backstop;
          Alcotest.test_case "a crashed member does not hold back a notice" `Quick
            test_sim_notice_not_held_by_crashed_member;
          Alcotest.test_case "group commit coalesces syncs" `Quick
            test_sim_group_commit_coalesces_syncs;
          Alcotest.test_case "errored write ends with its version read" `Quick
            test_errored_write_one_round;
          Alcotest.test_case "explicit error keeps its read lock" `Quick
            test_explicit_error_keeps_read_lock;
          Alcotest.test_case "written members get no read-only offer" `Quick
            test_written_members_get_no_readonly_offer;
          Alcotest.test_case "restarted member is prepared, not released" `Quick
            test_restarted_member_is_prepared;
          Alcotest.test_case "delete: two rounds without a ghost" `Quick
            test_batched_delete_two_rounds;
          Alcotest.test_case "delete: figures 10-11 ghost walk" `Quick test_batched_ghost_walk;
          Alcotest.test_case "delete: ghost beside a newer gap" `Quick
            test_batched_ghost_beside_newer_gap;
          Alcotest.test_case "delete: a repair copy only where it is missing" `Quick
            test_repair_only_where_missing;
          Alcotest.test_case "delete: a member outside the read quorum keeps its ops" `Quick
            test_outside_member_keeps_its_ops;
          Alcotest.test_case "txn: upsert reads the version once" `Quick test_upsert_reads_once;
          Alcotest.test_case "txn: a deferred write reaches its own transaction" `Quick
            test_deferred_write_seen;
          Alcotest.test_case "txn: a failed fused round aborts cleanly" `Quick
            test_failed_fused_round_aborts;
          Alcotest.test_case "txn: delete then insert in one transaction" `Quick
            test_delete_then_insert;
          Alcotest.test_case "write: one round of two messages" `Quick test_one_round_writes;
          Alcotest.test_case "write: a refusal raises the clock" `Quick
            test_refusal_raises_the_clock;
          Alcotest.test_case "write: a stale member is repaired in one message" `Quick
            test_stale_member_repaired;
          Alcotest.test_case "write: a repair whose tag changed restarts" `Quick
            test_repair_checks_the_tag;
          Alcotest.test_case "write: a fenced round restarts" `Quick
            test_stale_epoch_restarts_the_write;
          Alcotest.test_case "write: a blind update after another client's writes" `Quick
            test_blind_update_one_round;
          Alcotest.test_case "write: a clock behind restarts once" `Quick
            test_slow_clock_restarts_once;
          Alcotest.test_case "write: the clock's next, or the time in ticks" `Quick
            test_proposal;
          Alcotest.test_case "home quorum: same members whatever the seed" `Quick
            test_home_quorum_ignores_the_seed;
          Alcotest.test_case "home quorum: a failover, then one repair" `Quick
            test_failover_then_repair;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest qcheck_never_commit_and_abort ] );
    ]
