(* Overload and gray-failure robustness: the client-side retry bounds
   (deadline, budget), representative-side admission control and deadline
   pushback, health-scored quorum selection with hedged reads, and the
   bounded dedup cache under concurrent in-flight retries. *)

open Repdir_key
open Repdir_sim
open Repdir_core
open Repdir_harness
module Config = Repdir_quorum.Config
module Picker = Repdir_quorum.Picker
module Rep = Repdir_rep.Rep
module Rng = Repdir_util.Rng

let cfg_322 = Config.simple ~n:3 ~r:2 ~w:2

(* --- with_retries: wall-clock and budget bounds -------------------------------- *)

let test_with_retries_default_deadline_bounds_sleep () =
  (* Regression for the unbounded-wall-clock hazard: exponential backoff with
     a generous attempt count used to sleep for 2^k-ish times the backoff.
     The default deadline caps *cumulative* sleep at 48 x backoff no matter
     how many attempts remain. *)
  let slept = ref 0.0 in
  let calls = ref 0 in
  let rng = Rng.create 5L in
  (match
     Suite.with_retries ~attempts:50 ~backoff:1.0
       ~sleep:(fun d -> slept := !slept +. d)
       ~rng
       (fun () ->
         incr calls;
         raise (Suite.Unavailable "perma"))
   with
  | () -> Alcotest.fail "permanently unavailable operation succeeded"
  | exception Suite.Unavailable _ -> ());
  Alcotest.(check bool)
    (Printf.sprintf "cumulative sleep %.1f bounded by 48 x backoff" !slept)
    true (!slept <= 48.0);
  Alcotest.(check bool)
    (Printf.sprintf "gave up long before 50 attempts (made %d)" !calls)
    true
    (!calls < 10)

let test_with_retries_explicit_deadline () =
  let slept = ref 0.0 in
  (match
     Suite.with_retries ~attempts:50 ~backoff:1.0 ~deadline:5.0
       ~sleep:(fun d -> slept := !slept +. d)
       (fun () -> raise (Suite.Unavailable "perma"))
   with
  | () -> Alcotest.fail "unexpected success"
  | exception Suite.Unavailable _ -> ());
  Alcotest.(check bool)
    (Printf.sprintf "cumulative sleep %.1f within the explicit deadline" !slept)
    true (!slept <= 5.0);
  Alcotest.check_raises "non-positive deadline rejected"
    (Invalid_argument "Suite.with_retries: deadline must be positive") (fun () ->
      Suite.with_retries ~deadline:0.0 (fun () -> ()))

let test_with_retries_budget_spend_and_earn () =
  (* An empty bucket turns retries off: every retry buys one token, so a
     budget with one spare token allows exactly one retry. *)
  let budget = Suite.Retry_budget.create ~cap:1.0 ~earn:0.5 () in
  let calls = ref 0 in
  (match
     Suite.with_retries ~attempts:5 ~backoff:0.001 ~budget (fun () ->
         incr calls;
         raise (Suite.Unavailable "perma"))
   with
  | () -> Alcotest.fail "unexpected success"
  | exception Suite.Unavailable _ -> ());
  Alcotest.(check int) "one initial call plus the single budgeted retry" 2 !calls;
  Alcotest.(check bool) "budget exhausted" true (Suite.Retry_budget.tokens budget < 1.0);
  (* Success earns a fraction back. *)
  Suite.with_retries ~budget (fun () -> ());
  Alcotest.(check (float 1e-9)) "success earned 0.5 tokens back" 0.5
    (Suite.Retry_budget.tokens budget)

(* --- representative admission control and deadline pushback -------------------- *)

let clocked_rep ?admission name =
  let clock = ref 0.0 in
  let timers = { Rep.now = (fun () -> !clock); after = (fun _ _ -> ()) } in
  (Rep.create ~timers ?admission ~name (), clock)

let test_admission_cap_and_window () =
  let adm = { Rep.window = 10.0; cap = 5; shed_at = 4 } in
  let rep, clock = clocked_rep ~admission:adm "r0" in
  let probe = Bound.Key (Key.of_int 1) in
  for i = 1 to 5 do
    ignore (Rep.lookup rep ~txn:(900 + i) probe : Repdir_gapmap.Gapmap_intf.lookup)
  done;
  Alcotest.(check int) "window holds the admitted arrivals" 5 (Rep.admission_depth rep);
  Alcotest.check_raises "arrival at the cap is pushed back" (Rep.Overloaded "r0")
    (fun () -> ignore (Rep.lookup rep ~txn:906 probe));
  Alcotest.(check int) "overload reject counted" 1 (Rep.counters rep).Rep.overload_rejects;
  (* The window slides: once the old arrivals age out, work is admitted
     again. *)
  clock := 10.0;
  ignore (Rep.lookup rep ~txn:907 probe : Repdir_gapmap.Gapmap_intf.lookup);
  Alcotest.(check int) "stale arrivals pruned, fresh one admitted" 1
    (Rep.admission_depth rep)

let test_admission_sheds_maintenance_first () =
  let adm = { Rep.window = 10.0; cap = 8; shed_at = 3 } in
  let rep, _clock = clocked_rep ~admission:adm "r0" in
  let probe = Bound.Key (Key.of_int 1) in
  for i = 1 to 3 do
    ignore (Rep.lookup rep ~txn:(900 + i) probe : Repdir_gapmap.Gapmap_intf.lookup)
  done;
  (* From shed_at up, maintenance work (keepalives, anti-entropy) is refused
     while quorum-critical operations still get in. *)
  Alcotest.check_raises "keepalive shed by the breaker" (Rep.Overloaded "r0") (fun () ->
      Rep.keepalive rep ~txn:904);
  Alcotest.(check int) "shed counted separately" 1 (Rep.counters rep).Rep.shed_rejects;
  ignore (Rep.lookup rep ~txn:905 probe : Repdir_gapmap.Gapmap_intf.lookup);
  Alcotest.(check int) "critical work admitted past shed_at" 4 (Rep.admission_depth rep)

let test_reject_expired () =
  let rep, clock = clocked_rep "r0" in
  clock := 5.0;
  Rep.reject_expired rep ~deadline:5.0;
  (* A deadline AT the clock is still live; one strictly behind it is not. *)
  (match Rep.reject_expired rep ~deadline:4.0 with
  | () -> Alcotest.fail "expired deadline accepted"
  | exception Rep.Deadline_exceeded _ -> ());
  Alcotest.(check int) "expiry counted" 1 (Rep.counters rep).Rep.expired_rejects

let test_suite_treats_overloaded_rep_as_unavailable () =
  (* Saturate one representative's admission window, then run suite lookups:
     the Overloaded pushback must read as a non-quorum-eligible member — the
     operation completes on the other two — not as an error. *)
  let adm = { Rep.window = 1.0e9; cap = 4; shed_at = 4 } in
  let clock = ref 0.0 in
  let timers = { Rep.now = (fun () -> !clock); after = (fun _ _ -> ()) } in
  let reps =
    Array.init 3 (fun i ->
        let name = Printf.sprintf "r%d" i in
        if i = 0 then Rep.create ~timers ~admission:adm ~name () else Rep.create ~name ())
  in
  let suite =
    Suite.create ~seed:7L ~config:cfg_322 ~transport:(Transport.local reps)
      ~txns:(Repdir_txn.Txn.Manager.create ())
      ()
  in
  (match Suite.insert suite (Key.of_int 1) "v" with
  | Ok () -> ()
  | Error `Already_present -> Alcotest.fail "fresh key already present");
  (* Fill r0's window with direct reads (the huge window never slides). *)
  let probe = Bound.Key (Key.of_int 9) in
  while Rep.admission_depth reps.(0) < adm.cap do
    ignore (Rep.lookup reps.(0) ~txn:999 probe : Repdir_gapmap.Gapmap_intf.lookup)
  done;
  for _ = 1 to 20 do
    match Suite.lookup suite (Key.of_int 1) with
    | Some (_, v) -> Alcotest.(check string) "value survives r0's overload" "v" v
    | None -> Alcotest.fail "entry unreadable while only r0 is overloaded"
  done;
  Alcotest.(check bool) "r0 actually pushed back" true
    ((Rep.counters reps.(0)).Rep.overload_rejects > 0)

(* --- health scores and the Healthy picker -------------------------------------- *)

let test_health_outlier_detection () =
  let h = Picker.Health.create ~n:3 () in
  for _ = 1 to 5 do
    Picker.Health.observe h 0 ~latency:10.0 ~ok:true;
    Picker.Health.observe h 1 ~latency:1.0 ~ok:true;
    Picker.Health.observe h 2 ~latency:1.2 ~ok:true
  done;
  Alcotest.(check bool) "slow rep flagged" true (Picker.Health.outlier h 0);
  Alcotest.(check bool) "healthy reps not flagged" false
    (Picker.Health.outlier h 1 || Picker.Health.outlier h 2);
  (* Outcome-based flagging needs no peer baseline. *)
  let h2 = Picker.Health.create ~n:3 () in
  for _ = 1 to 5 do
    Picker.Health.observe h2 1 ~latency:1.0 ~ok:false
  done;
  Alcotest.(check bool) "failing rep flagged on ok-rate alone" true
    (Picker.Health.outlier h2 1)

let test_health_suspect_early_warning () =
  (* One sample each is enough for the pairwise early warning — the window
     where a turning-gray replica is not yet flaggable but hedging should
     already cover it. *)
  let h = Picker.Health.create ~n:3 () in
  Picker.Health.observe h 0 ~latency:12.0 ~ok:true;
  Picker.Health.observe h 2 ~latency:1.0 ~ok:true;
  Alcotest.(check bool) "not yet an outlier (too few samples)" false
    (Picker.Health.outlier h 0);
  Alcotest.(check bool) "already suspect next to the fast spare" true
    (Picker.Health.suspect h 0 ~against:2);
  Alcotest.(check bool) "the fast spare is not suspect" false
    (Picker.Health.suspect h 2 ~against:0);
  Alcotest.(check bool) "no samples, no suspicion" false
    (Picker.Health.suspect h 1 ~against:2)

let test_healthy_picker_avoids_gray_rep () =
  let h = Picker.Health.create ~n:3 () in
  for _ = 1 to 6 do
    Picker.Health.observe h 0 ~latency:20.0 ~ok:true;
    Picker.Health.observe h 1 ~latency:1.0 ~ok:true;
    Picker.Health.observe h 2 ~latency:1.0 ~ok:true
  done;
  let rng = Rng.create 11L in
  let everyone _ = true in
  for _ = 1 to 100 do
    match
      Picker.read_quorum (Picker.Healthy h) rng cfg_322 ~available:everyone
    with
    | Some q ->
        Alcotest.(check bool) "gray rep never picked while spares have the votes" false
          (Array.exists (Int.equal 0) q)
    | None -> Alcotest.fail "quorum unattainable with everyone available"
  done;
  (* Demoted, never excluded: when the healthy population cannot muster the
     votes, the walk falls through to the gray member. *)
  (match
     Picker.read_quorum (Picker.Healthy h) rng cfg_322 ~available:(fun i -> i <> 1)
   with
  | Some q ->
      Alcotest.(check bool) "gray rep used when the votes require it" true
        (Array.exists (Int.equal 0) q)
  | None -> Alcotest.fail "quorum unattainable with two reps available")

let test_hedge_delay_floor_and_p99 () =
  let h = Picker.Health.create ~n:3 () in
  Alcotest.(check (float 1e-9)) "floor before any samples" 2.5
    (Picker.Health.hedge_delay ~floor:2.5 h);
  for _ = 1 to 20 do
    Picker.Health.observe h 1 ~latency:4.0 ~ok:true;
    Picker.Health.observe h 2 ~latency:4.0 ~ok:true
  done;
  let d = Picker.Health.hedge_delay ~floor:1.0 h in
  Alcotest.(check (float 1e-9)) "p99-derived delay once the ring fills" 4.0 d

(* --- gray failure end to end ---------------------------------------------------- *)

let slow_links world ~victim ~factor =
  let net = Sim_world.net world in
  let slow = { Net.no_faults with spike = 1.0; spike_factor = factor } in
  for j = 0 to Net.n_nodes net - 1 do
    if j <> victim then Net.set_link_faults net victim j slow
  done

let run_ops sim suite ~ops ~retry_rng k =
  let succeeded = ref 0 and failed = ref 0 in
  Sim.spawn sim (fun () ->
      for i = 1 to ops do
        (match
           Suite.with_retries ~attempts:4 ~backoff:2.0 ~sleep:(Sim.sleep sim)
             ~rng:retry_rng (fun () -> k i)
         with
        | () -> incr succeeded
        | exception (Suite.Unavailable _ | Suite.Deadline_exceeded _) -> incr failed);
        Sim.sleep sim 2.0
      done);
  Sim.run sim;
  ignore (suite : Suite.t);
  (!succeeded, !failed)

let test_random_picker_terminates_with_slow_rep () =
  (* A slow-but-alive representative must not hang the uniform-random
     baseline: every operation still terminates (success or a clean
     write-off), and most succeed — slow is not crashed. *)
  let world =
    Sim_world.create ~seed:21L ~rpc_timeout:10.0 ~rpc_attempts:4 ~rpc_backoff:2.0
      ~two_phase:true ~config:cfg_322 ()
  in
  slow_links world ~victim:0 ~factor:8.0;
  let sim = Sim_world.sim world in
  let suite = Sim_world.suite_for_client world 0 in
  let retry_rng = Rng.create 22L in
  let ops = 25 in
  let succeeded, failed =
    run_ops sim suite ~ops ~retry_rng (fun i ->
        let key = Key.of_int (i mod 10) in
        ignore (Suite.insert suite key "v" : (unit, _) result);
        ignore (Suite.lookup suite key : (_ * string) option))
  in
  Alcotest.(check int) "every operation terminated" ops (succeeded + failed);
  Alcotest.(check bool)
    (Printf.sprintf "most operations succeeded (%d/%d)" succeeded ops)
    true
    (succeeded > ops / 2)

let test_healthy_picker_and_hedging_under_gray_rep () =
  (* The full robustness stack against one gray representative: health
     scoring must steer quorums off the victim in steady state, and during
     the detection lag the suspect-based hedge must fire at least once. *)
  let world =
    Sim_world.create ~seed:21L ~rpc_timeout:10.0 ~rpc_attempts:4 ~rpc_backoff:2.0
      ~two_phase:true ~admission:Rep.default_admission ~config:cfg_322 ()
  in
  (* Factor 3 sits right at the outlier boundary: slow enough to hurt, mild
     enough that the flag flickers — exactly the regime where the
     suspect-based hedge carries the load. *)
  slow_links world ~victim:0 ~factor:3.0;
  let sim = Sim_world.sim world in
  let health = Picker.Health.create ~n:3 () in
  let suite =
    Sim_world.suite_for_client ~health world 0
  in
  let retry_rng = Rng.create 22L in
  let ops = 40 in
  let succeeded, failed =
    run_ops sim suite ~ops ~retry_rng (fun i ->
        let key = Key.of_int (i mod 10) in
        ignore (Suite.insert suite key "v" : (unit, _) result);
        ignore (Suite.lookup suite key : (_ * string) option))
  in
  Alcotest.(check int) "every operation terminated" ops (succeeded + failed);
  Alcotest.(check bool)
    (Printf.sprintf "workload survived the gray rep (%d/%d)" succeeded ops)
    true
    (succeeded > (ops * 3) / 4);
  Alcotest.(check bool) "victim was sampled" true (Picker.Health.samples health 0 > 0);
  Alcotest.(check bool)
    (Printf.sprintf "hedge fired during the detection lag (%d)" (Suite.hedged_count suite))
    true
    (Suite.hedged_count suite > 0)

(* --- the client-side operation deadline ----------------------------------------- *)

(* The client (node 3) is cut off from representatives 1 and 2, so every
   read quorum needs a member whose calls only time out — four 10-unit
   attempts plus backoff per call. Returns how the lookup ended and when. *)
let partitioned_lookup ?health () =
  let world =
    Sim_world.create ~seed:31L ~rpc_timeout:10.0 ~rpc_attempts:4 ~rpc_backoff:2.0
      ~config:cfg_322 ()
  in
  Net.partition (Sim_world.net world) [ 3 ] [ 1; 2 ];
  let sim = Sim_world.sim world in
  let suite = Sim_world.suite_for_client ?health world 0 in
  let ended = ref None in
  Sim.spawn sim (fun () ->
      let how =
        match Suite.lookup suite (Key.of_int 1) with
        | _ -> "answered"
        | exception Suite.Deadline_exceeded _ -> "deadline exceeded"
        | exception Suite.Unavailable _ -> "unavailable"
      in
      ended := Some (how, Sim.now sim));
  Sim.run sim;
  Option.get !ended

let test_deadline_stops_timed_out_reruns () =
  (* With a health table the suite runs on a 30-unit budget: the first
     failed member spends it, and the re-run check stops the operation. *)
  let how, at = partitioned_lookup ~health:(Picker.Health.create ~n:3 ()) () in
  Alcotest.(check string) "outcome" "deadline exceeded" how;
  Alcotest.(check bool) (Printf.sprintf "budget spent first (t=%.1f)" at) true (at > 30.0);
  (* Without one there is no budget: the suite excludes failed members
     until no quorum is left, which takes longer. *)
  let how, at' = partitioned_lookup () in
  Alcotest.(check string) "outcome without health" "unavailable" how;
  Alcotest.(check bool) (Printf.sprintf "stopped sooner (%.1f < %.1f)" at at') true (at < at')

(* --- dedup cache: in-flight entries at the cap ---------------------------------- *)

let test_dedup_inflight_exceeds_cap_uneviced () =
  (* Exactly cap + 1 concurrent retried requests: in-flight entries are not
     evictable (only completed replies age out), so the cache briefly holds
     cap + 1 entries, every handler still runs exactly once despite the
     retransmissions, and every call completes. *)
  let sim = Sim.create ~seed:13L () in
  let net = Net.create sim ~n_nodes:2 ~latency:(fun _ -> 1.0) () in
  let cap = 2 in
  let server = Rpc.server ~cap ~ttl:1.0e6 () in
  let calls = cap + 1 in
  let execs = Array.make calls 0 in
  let completed = ref 0 in
  let peak = ref 0 in
  let jitter = Rng.create 3L in
  for i = 0 to calls - 1 do
    Sim.spawn sim (fun () ->
        match
          Rpc.call_at_most_once net ~src:0 ~dst:1 ~server ~timeout:5.0 ~attempts:5
            ~backoff:1.0 ~rng:jitter
            ~on_retry:(fun () -> peak := max !peak (Rpc.server_entries server))
            (fun () ->
              execs.(i) <- execs.(i) + 1;
              (* Outlast several client timeouts so retransmissions pile onto
                 the in-flight entry. *)
              Sim.sleep sim 12.0)
        with
        | Ok () -> incr completed
        | Error Rpc.Timeout -> Alcotest.fail "in-flight call timed out for good")
  done;
  Sim.run sim;
  Alcotest.(check int) "all cap+1 concurrent calls completed" calls !completed;
  Array.iteri
    (fun i n -> Alcotest.(check int) (Printf.sprintf "handler %d ran once" i) 1 n)
    execs;
  Alcotest.(check bool)
    (Printf.sprintf "in-flight entries rode above the cap (peak %d)" !peak)
    true
    (!peak = calls);
  (* Once everything completed, the next arrival enforces the cap again. *)
  Sim.spawn sim (fun () ->
      match Rpc.call_at_most_once net ~src:0 ~dst:1 ~server ~timeout:5.0 (fun () -> ()) with
      | Ok () -> ()
      | Error Rpc.Timeout -> Alcotest.fail "trailing call timed out");
  Sim.run sim;
  Alcotest.(check bool)
    (Printf.sprintf "cache back under the cap (+1 arrival): %d"
       (Rpc.server_entries server))
    true
    (Rpc.server_entries server <= cap + 1)

(* --- audited robustness plans ---------------------------------------------------- *)

let test_robust_plans_audited_clean () =
  List.iter
    (fun plan ->
      let o = Nemesis.run_plan ~seed:42L plan in
      let label what = Printf.sprintf "%s: %s" o.Nemesis.plan what in
      Alcotest.(check int) (label "zero violations") 0 (Nemesis.total_violations o);
      Alcotest.(check bool) (label "made progress") true (o.Nemesis.succeeded > 0);
      Alcotest.(check int) (label "no orphaned locks") 0 o.Nemesis.orphan_locks;
      Alcotest.(check int) (label "no open in-doubt txns") 0 o.Nemesis.indoubt_open)
    (List.map
       (fun name ->
         let e = Nemesis.find name in
         e.build ~seed:42L ~n:3 { e.defaults with duration = 400.0 })
       [ "slow replica"; "retry storm" ])

let () =
  Alcotest.run "overload"
    [
      ( "with_retries",
        [
          Alcotest.test_case "default deadline bounds cumulative sleep" `Quick
            test_with_retries_default_deadline_bounds_sleep;
          Alcotest.test_case "explicit deadline honoured" `Quick
            test_with_retries_explicit_deadline;
          Alcotest.test_case "retry budget spends and earns" `Quick
            test_with_retries_budget_spend_and_earn;
        ] );
      ( "admission",
        [
          Alcotest.test_case "cap rejection and sliding window" `Quick
            test_admission_cap_and_window;
          Alcotest.test_case "maintenance shed before critical" `Quick
            test_admission_sheds_maintenance_first;
          Alcotest.test_case "expired deadlines refused" `Quick test_reject_expired;
          Alcotest.test_case "overloaded rep is non-quorum-eligible" `Quick
            test_suite_treats_overloaded_rep_as_unavailable;
        ] );
      ( "health",
        [
          Alcotest.test_case "outlier detection" `Quick test_health_outlier_detection;
          Alcotest.test_case "suspect early warning" `Quick
            test_health_suspect_early_warning;
          Alcotest.test_case "healthy picker avoids gray rep" `Quick
            test_healthy_picker_avoids_gray_rep;
          Alcotest.test_case "hedge delay floor and p99" `Quick
            test_hedge_delay_floor_and_p99;
        ] );
      ( "gray failure",
        [
          Alcotest.test_case "random picker terminates with a slow rep" `Quick
            test_random_picker_terminates_with_slow_rep;
          Alcotest.test_case "healthy picker and hedging under a gray rep" `Quick
            test_healthy_picker_and_hedging_under_gray_rep;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "re-run stops once the budget is spent" `Quick
            test_deadline_stops_timed_out_reruns;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "cap+1 in-flight retried requests" `Quick
            test_dedup_inflight_exceeds_cap_uneviced;
        ] );
      ( "nemesis",
        [
          Alcotest.test_case "robust plans audited clean" `Quick
            test_robust_plans_audited_clean;
        ] );
    ]
