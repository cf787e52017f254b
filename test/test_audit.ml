(* The consistency auditor: strict-serializability checker semantics
   (including a deliberately-injected lost delete it must catch), replica
   scrubbing, the disk-full fault family's graceful degradation, audited
   nemesis campaigns, and the §3.1 claim that transactions on disjoint key
   ranges never interfere. *)

open Repdir_key
open Repdir_txn
open Repdir_rep
open Repdir_harness
open Repdir_audit
open Repdir_gapmap.Gapmap_intf
module Config = Repdir_quorum.Config
module Suite = Repdir_core.Suite

let cfg_322 = Config.simple ~n:3 ~r:2 ~w:2

(* --- checker semantics ------------------------------------------------------------- *)

(* Hand-built history events: one client per stream, prims all stamped at
   the event's start. *)
let ev ?(client = 0) ~txn ~start_ ~finish status prims =
  {
    History.client;
    txn;
    start_;
    finish;
    status;
    prims = List.map (fun p -> (start_, p)) prims;
  }

let check_history ?(clients = 1) events =
  let ch = Checker.create ~clients () in
  List.iter (Checker.feed ch) events;
  Checker.finalize ch;
  Checker.violations ch

let test_checker_accepts_sequential () =
  let violations =
    check_history
      [
        ev ~txn:1 ~start_:0.0 ~finish:1.0 `Ok [ History.Insert ("k", "a", true) ];
        ev ~txn:2 ~start_:2.0 ~finish:3.0 `Ok [ History.Lookup ("k", Some "a") ];
        ev ~txn:3 ~start_:4.0 ~finish:5.0 `Ok [ History.Update ("k", "b", true) ];
        ev ~txn:4 ~start_:6.0 ~finish:7.0 `Ok [ History.Delete ("k", true) ];
        ev ~txn:5 ~start_:8.0 ~finish:9.0 `Ok [ History.Lookup ("k", None) ];
      ]
  in
  Alcotest.(check int) "clean sequential history" 0 (List.length violations)

let test_checker_catches_lost_delete () =
  (* The acceptance gate: a committed delete whose effect vanished — a later
     read still sees the value — must be flagged. *)
  let violations =
    check_history
      [
        ev ~txn:1 ~start_:0.0 ~finish:1.0 `Ok [ History.Insert ("k", "a", true) ];
        ev ~txn:2 ~start_:2.0 ~finish:3.0 `Ok [ History.Delete ("k", true) ];
        ev ~txn:3 ~start_:4.0 ~finish:5.0 `Ok [ History.Lookup ("k", Some "a") ];
      ]
  in
  Alcotest.(check bool) "lost delete caught" true (List.length violations > 0);
  List.iter
    (fun v -> Alcotest.(check string) "on the right key" "k" v.Checker.v_key)
    violations

let test_checker_failed_ops_have_no_effect () =
  (* A cleanly-aborted write must not be readable... *)
  let bad =
    check_history
      [
        ev ~txn:1 ~start_:0.0 ~finish:1.0 `Ok [ History.Insert ("k", "a", true) ];
        ev ~txn:2 ~start_:2.0 ~finish:3.0 `Failed [ History.Update ("k", "b", true) ];
        ev ~txn:3 ~start_:4.0 ~finish:5.0 `Ok [ History.Lookup ("k", Some "b") ];
      ]
  in
  Alcotest.(check bool) "aborted write observed" true (List.length bad > 0);
  (* ... and its absence is the legal outcome. *)
  let good =
    check_history
      [
        ev ~txn:1 ~start_:0.0 ~finish:1.0 `Ok [ History.Insert ("k", "a", true) ];
        ev ~txn:2 ~start_:2.0 ~finish:3.0 `Failed [ History.Update ("k", "b", true) ];
        ev ~txn:3 ~start_:4.0 ~finish:5.0 `Ok [ History.Lookup ("k", Some "a") ];
      ]
  in
  Alcotest.(check int) "aborted write invisible" 0 (List.length good)

let test_checker_ambiguous_may_or_may_not_apply () =
  let base observed =
    [
      ev ~txn:1 ~start_:0.0 ~finish:1.0 `Ok [ History.Insert ("k", "a", true) ];
      ev ~txn:2 ~start_:2.0 ~finish:3.0 `Ambiguous [ History.Update ("k", "b", true) ];
      ev ~txn:3 ~start_:4.0 ~finish:5.0 `Ok [ History.Lookup ("k", observed) ];
    ]
  in
  Alcotest.(check int) "ambiguous write landed" 0 (List.length (check_history (base (Some "b"))));
  Alcotest.(check int) "ambiguous write lost" 0 (List.length (check_history (base (Some "a"))));
  Alcotest.(check bool) "but not a third value" true
    (List.length (check_history (base (Some "c"))) > 0)

let test_checker_real_time_order () =
  (* Two clients; c1's operation finished before c0's even started, so its
     observation cannot be explained by c0's later insert. *)
  let bad =
    check_history ~clients:2
      [
        ev ~client:1 ~txn:2 ~start_:5.0 ~finish:8.0 `Ok
          [ History.Insert ("k", "b", false) ];
        ev ~client:0 ~txn:1 ~start_:9.0 ~finish:10.0 `Ok
          [ History.Insert ("k", "a", true) ];
      ]
  in
  Alcotest.(check bool) "real-time precedence enforced" true (List.length bad > 0);
  (* Overlapping intervals leave the order open: c0's insert may linearize
     first, explaining why c1 found the key taken. *)
  let good =
    check_history ~clients:2
      [
        ev ~client:1 ~txn:2 ~start_:5.0 ~finish:8.0 `Ok
          [ History.Insert ("k", "b", false) ];
        ev ~client:0 ~txn:1 ~start_:0.0 ~finish:10.0 `Ok
          [ History.Insert ("k", "a", true) ];
      ]
  in
  Alcotest.(check int) "concurrent order left open" 0 (List.length good)

(* --- recorded timestamps ----------------------------------------------------------- *)

(* A recorded primitive carries its invocation time, not its reply time: a
   read that linearized before a concurrent write but replied after it must
   still look concurrent with that write. Link latencies are positive, so
   the lookup's replies arrive strictly after its invocation — also for the
   batched lookup, which releases its read locks in its only round. *)
let test_prims_stamped_at_invocation () =
  let open Repdir_sim in
  List.iter
    (fun batching ->
      let world = Shard_world.create ~config:cfg_322 ~groups:1 () in
      let sim = Shard_world.sim world in
      let recorder = Shard_world.recorder_for_client world 0 in
      let suite = Shard_world.suite_for_client ~batching ~recorder world 0 0 in
      let invoked = ref nan and replied = ref nan in
      Sim.spawn sim (fun () ->
          ignore (Suite.insert suite "k" "v" : (unit, _) result);
          invoked := Sim.now sim;
          ignore (Suite.lookup suite "k" : (Repdir_key.Version.t * string) option);
          replied := Sim.now sim);
      Sim.run sim;
      let name what = Printf.sprintf "%s (batching %b)" what batching in
      Alcotest.(check bool) (name "the lookup took time") true (!replied > !invoked);
      match List.rev (History.events recorder) with
      | { History.start_; prims = [ (at, History.Lookup ("k", Some "v")) ]; _ } :: _ ->
          Alcotest.(check (float 0.0)) (name "event starts at invocation") !invoked start_;
          Alcotest.(check (float 0.0)) (name "prim stamped at invocation") !invoked at
      | _ -> Alcotest.fail (name "lookup event not recorded"))
    [ false; true ]

(* --- replica scrubber ------------------------------------------------------------- *)

let settled_world () =
  let open Repdir_sim in
  let world = Shard_world.create ~config:cfg_322 ~groups:1 () in
  let sim = Shard_world.sim world in
  let suite = Shard_world.suite_for_client world 0 0 in
  Sim.spawn sim (fun () ->
      List.iter
        (fun k -> ignore (Suite.insert suite k ("v" ^ k) : (unit, _) result))
        [ "b"; "d"; "f"; "h" ];
      ignore (Suite.delete suite "d" : Suite.delete_report);
      match Suite.update suite "f" "f2" with
      | Ok () -> ()
      | Error `Not_present -> Alcotest.fail "update lost");
  Sim.run sim;
  world

let test_scrubber_clean_world () =
  let world = settled_world () in
  let problems = Scrub.run ~config:cfg_322 (Shard_world.group_reps world 0) in
  Alcotest.(check (list string)) "no findings on a clean suite" [] problems

let test_scrubber_catches_diverged_replica () =
  let world = settled_world () in
  let reps = Shard_world.group_reps world 0 in
  (* A rogue locally-committed write no quorum ever saw: rep0 now answers a
     version for "zz" that no read quorum excluding it can reproduce. *)
  Rep.insert reps.(0) ~txn:9999 "zz" 5 "rogue";
  Rep.commit reps.(0) ~txn:9999;
  let problems = Scrub.run ~config:cfg_322 reps in
  Alcotest.(check bool) "divergence caught" true (List.length problems > 0)

let test_scrubber_catches_orphan_lock () =
  let world = settled_world () in
  let reps = Shard_world.group_reps world 0 in
  (* A transaction that will never terminate: its locks are orphans. *)
  Rep.insert reps.(1) ~txn:9999 "zz" 5 "stuck";
  let problems = Scrub.run ~config:cfg_322 reps in
  Alcotest.(check bool) "orphan residue caught" true (List.length problems > 0)

let test_scrubber_large_group () =
  (* 20,000 keys at three representatives. Every 1000th key was deleted at
     r1 and r2 only, leaving a ghost at r0 that every read quorum outvotes;
     the delete of k12345 reached r1 alone, so the read quorum {r0, r2}
     still reads it. The scrub reports that key and nothing else. *)
  let key i = Printf.sprintf "k%05d" i in
  let reps = Array.init 3 (fun i -> Rep.create ~name:(Printf.sprintf "r%d" i) ()) in
  let txn = ref 0 in
  let committed rep f =
    incr txn;
    f ~txn:!txn;
    Rep.commit rep ~txn:!txn
  in
  Array.iter
    (fun rep ->
      committed rep (fun ~txn ->
          for i = 0 to 19_999 do
            Rep.insert rep ~txn (key i) 1 ("v" ^ key i)
          done))
    reps;
  let delete_at members i =
    List.iter
      (fun r ->
        committed reps.(r) (fun ~txn ->
            ignore
              (Rep.coalesce reps.(r) ~txn ~lo:(Bound.Key (key (i - 1))) ~hi:(Bound.Key (key (i + 1))) 2
                : int)))
      members
  in
  for j = 1 to 19 do
    delete_at [ 1; 2 ] (j * 1000)
  done;
  delete_at [ 1 ] 12_345;
  Alcotest.(check (list string)) "the half-done delete alone"
    [ "key k12345: read quorum {0,2} answers 1=vk12345 but the global latest is absent@2" ]
    (Scrub.run ~config:cfg_322 reps)

(* --- disk-full fault family -------------------------------------------------------- *)

let test_disk_full_rep_aborts_cleanly () =
  let r = Rep.create ~name:"r" () in
  Rep.insert r ~txn:1 "b" 1 "vb";
  Rep.commit r ~txn:1;
  Rep.set_io_fault r (Some Wal.Disk_full);
  (* A mutating operation aborts its transaction with a typed failure —
     no exception through the effect handler, no dead representative. *)
  (try
     Rep.insert r ~txn:2 "c" 1 "vc";
     Alcotest.fail "insert under disk-full must abort"
   with Txn.Abort (Txn.Unavailable _) -> ());
  Rep.abort r ~txn:2;
  Alcotest.(check bool) "rep stays up" false (Rep.is_crashed r);
  (* Reads still serve from the live map. *)
  (match Rep.lookup r ~txn:3 (Bound.Key "b") with
  | Present { value = "vb"; _ } -> ()
  | _ -> Alcotest.fail "read under disk-full lost the entry");
  Rep.abort r ~txn:3;
  Rep.set_io_fault r None;
  Rep.insert r ~txn:4 "c" 1 "vc";
  Rep.commit r ~txn:4;
  Alcotest.(check int) "no orphan locks" 0 (Rep.locks_held r);
  Alcotest.(check (list string)) "healed write landed" [ "b"; "c" ]
    (List.map (fun (k, _, _) -> k) (Rep.entries r));
  Alcotest.(check (list string)) "rep scrub clean" [] (Rep.scrub r)

(* --- audited campaigns -------------------------------------------------------------- *)

(* The catalogue plan [name] from its own schedule seed, for three
   representatives. *)
let plan ~duration ~seed name =
  let e = Nemesis.find name in
  e.build ~seed ~n:3 { e.defaults with duration }

let check_audited ~seed outcomes =
  Alcotest.(check int)
    (Printf.sprintf "seed %Ld: nine plans" seed)
    9 (List.length outcomes);
  List.iter
    (fun o ->
      let label what = Printf.sprintf "seed %Ld, %s: %s" seed o.Nemesis.plan what in
      Alcotest.(check int) (label "zero violations (model + audit)") 0
        (Nemesis.total_violations o);
      Alcotest.(check int) (label "no orphaned locks") 0 o.Nemesis.orphan_locks;
      Alcotest.(check int) (label "no open in-doubt txns") 0 o.Nemesis.indoubt_open;
      Alcotest.(check bool) (label "checker proved ops") true (o.Nemesis.audit.checked_ops > 0);
      Alcotest.(check int) (label "no keys given up") 0 o.Nemesis.audit.keys_given_up)
    outcomes

let test_audited_plans_clean () =
  check_audited ~seed:42L
    (List.filter_map
       (fun e ->
         Option.map
           (fun _ -> Nemesis.run { e.Nemesis.defaults with seed = 42L } e)
           e.Nemesis.slot)
       Nemesis.catalogue)

let test_audited_multi_client () =
  (* Three concurrent clients under a rolling partition: the inline
     sequential model is off, the history checker is the oracle. *)
  let plan = plan ~duration:400.0 ~seed:5L "rolling partition" in
  let o = Nemesis.run_plan ~seed:7L ~clients:3 plan in
  Alcotest.(check int) "zero violations" 0 (Nemesis.total_violations o);
  Alcotest.(check int) "no orphaned locks" 0 o.Nemesis.orphan_locks;
  Alcotest.(check bool) "checker proved ops" true (o.Nemesis.audit.checked_ops > 0)

let test_clock_skew_and_disk_full_plans () =
  (* The two new fault families on their own, audited, across extra seeds. *)
  List.iter
    (fun seed ->
      List.iter
        (fun plan ->
          let o = Nemesis.run_plan ~seed plan in
          Alcotest.(check int)
            (Printf.sprintf "seed %Ld, %s: zero violations" seed o.Nemesis.plan)
            0
            (Nemesis.total_violations o))
        [
          plan ~duration:600.0 ~seed "clock skew";
          plan ~duration:600.0 ~seed "disk full";
        ])
    [ 1L; 7L ]

(* --- §3.1: disjoint ranges never interfere ----------------------------------------- *)

(* Two concurrent transactions confined to disjoint, fenced key ranges must
   both commit: range locks (gap reads, insert splits, delete coalesces)
   stay inside each client's fence posts, so there is no conflict to
   deadlock or abort on. Full replication (3-3-3) keeps the ranges disjoint
   at every representative — under a partial write quorum a minority replica
   can miss the fence entries, and a range walk there legitimately crosses
   into the neighbour range (the ghost-repair machinery at work), which is
   outside the §3.1 claim. *)
let prop_disjoint_ranges_no_interference =
  let gen =
    QCheck.(
      triple (int_bound 1000)
        (list_of_size Gen.(1 -- 8) (pair (int_bound 3) (int_bound 4)))
        (list_of_size Gen.(1 -- 8) (pair (int_bound 3) (int_bound 4))))
  in
  QCheck.Test.make ~count:25 ~name:"disjoint-range transactions never interfere" gen
    (fun (seed, ops_a, ops_b) ->
      let open Repdir_sim in
      let world =
        Shard_world.create
          ~seed:(Int64.of_int (1 + seed))
          ~config:(Config.simple ~n:3 ~r:3 ~w:3)
          ~n_clients:2 ~groups:1 ()
      in
      let sim = Shard_world.sim world in
      let suites = Array.init 2 (fun c -> Shard_world.suite_for_client world c 0) in
      let failures = ref [] in
      let finished = ref 0 in
      let run_client c prefix ops =
        Sim.spawn sim (fun () ->
            (try
               Suite.with_txn suites.(c) (fun txn ->
                   List.iter
                     (fun (kind, idx) ->
                       let key = Printf.sprintf "%s%d" prefix idx in
                       (match kind with
                       | 0 -> ignore (Suite.lookup ~txn suites.(c) key : (_ * string) option)
                       | 1 ->
                           ignore
                             (Suite.insert ~txn suites.(c) key ("v" ^ key)
                               : (unit, _) result)
                       | 2 ->
                           ignore
                             (Suite.update ~txn suites.(c) key ("w" ^ key)
                               : (unit, _) result)
                       | _ -> ignore (Suite.delete ~txn suites.(c) key : Suite.delete_report));
                       (* Let the other client's operations interleave. *)
                       Sim.sleep sim 0.5)
                     ops)
             with e -> failures := (c, Printexc.to_string e) :: !failures);
            incr finished)
      in
      Sim.spawn sim (fun () ->
          (* Fence posts enclosing each client's working range, so every
             range lock (gaps, coalesces) stays on its own side. ASCII:
             '!' < digits < '~'. *)
          List.iter
            (fun k -> ignore (Suite.insert suites.(0) k "fence" : (unit, _) result))
            [ "a!"; "a~"; "b!"; "b~" ];
          run_client 0 "a" ops_a;
          run_client 1 "b" ops_b);
      Sim.run sim;
      if !failures <> [] then
        QCheck.Test.fail_reportf "interference: %s"
          (String.concat "; "
             (List.map (fun (c, e) -> Printf.sprintf "client %d: %s" c e) !failures));
      !finished = 2)

let () =
  Alcotest.run "audit"
    [
      ( "checker",
        [
          Alcotest.test_case "accepts sequential history" `Quick
            test_checker_accepts_sequential;
          Alcotest.test_case "catches injected lost delete" `Quick
            test_checker_catches_lost_delete;
          Alcotest.test_case "failed ops have no effect" `Quick
            test_checker_failed_ops_have_no_effect;
          Alcotest.test_case "ambiguous ops optional" `Quick
            test_checker_ambiguous_may_or_may_not_apply;
          Alcotest.test_case "real-time order enforced" `Quick
            test_checker_real_time_order;
        ] );
      ( "history",
        [
          Alcotest.test_case "prims stamped at invocation" `Quick
            test_prims_stamped_at_invocation;
        ] );
      ( "scrubber",
        [
          Alcotest.test_case "clean world" `Quick test_scrubber_clean_world;
          Alcotest.test_case "catches diverged replica" `Quick
            test_scrubber_catches_diverged_replica;
          Alcotest.test_case "catches orphan lock" `Quick
            test_scrubber_catches_orphan_lock;
          Alcotest.test_case "20,000 keys: ghosts outvoted, one lost delete" `Quick
            test_scrubber_large_group;
        ] );
      ( "disk-full",
        [
          Alcotest.test_case "mutations abort cleanly, rep stays up" `Quick
            test_disk_full_rep_aborts_cleanly;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "all plans audited, zero violations" `Quick
            test_audited_plans_clean;
          Alcotest.test_case "multi-client audited plan" `Quick
            test_audited_multi_client;
          Alcotest.test_case "clock-skew and disk-full plans, extra seeds" `Quick
            test_clock_skew_and_disk_full_plans;
        ] );
      ( "disjoint ranges",
        [ QCheck_alcotest.to_alcotest prop_disjoint_ranges_no_interference ] );
    ]
