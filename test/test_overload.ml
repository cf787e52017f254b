(* Overload and gray-failure robustness: the client-side retry bounds
   (deadline, budget), representative-side admission control and deadline
   pushback, health-scored quorum selection and its gray-replica p99 gate,
   and the bounded dedup cache under concurrent in-flight retries. *)

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
  let send deadline =
    let env =
      { Rep.notices = []; deadline = Some deadline; shard_epoch = None; member_epoch = 0 }
    in
    ignore (Rep.execute rep env ~txn:1 [] : Rep.batch_result list)
  in
  send 5.0;
  (* A deadline AT the clock is still live; one strictly behind it is not. *)
  (match send 4.0 with
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

(* --- gray failure end to end ---------------------------------------------------- *)

let slow_links world ~victim ~factor =
  let net = Shard_world.net world in
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
    Shard_world.create ~seed:21L ~rpc_timeout:10.0 ~rpc_attempts:4 ~rpc_backoff:2.0
      ~two_phase:true ~config:cfg_322 ~groups:1 ()
  in
  slow_links world ~victim:0 ~factor:8.0;
  let sim = Shard_world.sim world in
  let suite = Shard_world.suite_for_client world 0 0 in
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

let test_healthy_picker_under_gray_rep () =
  (* The full robustness stack against one gray representative: the
     workload survives, and health scoring samples the victim. *)
  let world =
    Shard_world.create ~seed:21L ~rpc_timeout:10.0 ~rpc_attempts:4 ~rpc_backoff:2.0
      ~two_phase:true ~admission:Rep.default_admission ~config:cfg_322 ~groups:1 ()
  in
  (* Factor 3 sits right at the outlier boundary: slow enough to hurt, mild
     enough that the flag flickers. *)
  slow_links world ~victim:0 ~factor:3.0;
  let sim = Shard_world.sim world in
  let health = Picker.Health.create ~n:3 () in
  let suite =
    Shard_world.suite_for_client ~health world 0 0
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
  Alcotest.(check bool) "victim was sampled" true (Picker.Health.samples health 0 > 0)

(* The gray-replica gate. Four clients run a mixed workload for 800 units
   against 3-2-2 with the robustness stack armed (admission, 60-unit lease,
   10-unit RPC timeout with 4 attempts, retry budgets); latency is virtual
   time from an operation's start to its success, counted from time 100 on.
   [gray] makes every link touching representative 0 ten times slow: the
   node never crashes, it only answers late. Returns the p99 and the number
   of operations it is taken over. *)
let gray_phase ~gray ~healthy =
  let seed = 1983L and clients = 4 and duration = 800.0 and warmup = 100.0 in
  let world =
    Shard_world.create ~seed ~rpc_timeout:10.0 ~rpc_attempts:4 ~rpc_backoff:2.0
      ~two_phase:true ~n_clients:clients ~lease:60.0 ~admission:Rep.default_admission
      ~config:cfg_322 ~groups:1 ()
  in
  let sim = Shard_world.sim world in
  let health = if healthy then Some (Picker.Health.create ~n:3 ()) else None in
  let suites = Array.init clients (fun c -> Shard_world.suite_for_client ?health world c 0) in
  if gray then slow_links world ~victim:0 ~factor:10.0;
  let lats = ref [] in
  for c = 0 to clients - 1 do
    let rng = Rng.create (Int64.add seed (Int64.of_int (100 + c))) in
    let retry_rng = Rng.create (Int64.add seed (Int64.of_int (200 + c))) in
    let budget = Suite.Retry_budget.create () in
    let suite = suites.(c) in
    let ops = ref 0 in
    let one_op () =
      incr ops;
      let key = Key.of_int (Rng.int rng 30) in
      let value = Printf.sprintf "c%d-v%d-%f" c !ops (Sim.now sim) in
      let kind = Rng.int rng 4 in
      let t0 = Sim.now sim in
      match
        Suite.with_retries ~attempts:4 ~backoff:2.0 ~budget ~sleep:(Sim.sleep sim)
          ~rng:retry_rng (fun () ->
            match kind with
            | 0 -> ignore (Suite.lookup suite key : (_ * string) option)
            | 1 -> ignore (Suite.insert suite key value : (unit, _) result)
            | 2 -> ignore (Suite.update suite key value : (unit, _) result)
            | _ -> ignore (Suite.delete suite key : Suite.delete_report))
      with
      | () -> if t0 >= warmup then lats := (Sim.now sim -. t0) :: !lats
      | exception (Suite.Unavailable _ | Suite.Deadline_exceeded _ | Repdir_txn.Txn.Abort _)
        ->
          ()
    in
    Sim.spawn sim (fun () ->
        while Sim.now sim < duration do
          one_op ();
          Sim.sleep sim (Rng.exponential rng ~mean:4.0)
        done)
  done;
  Sim.run sim;
  let a = Array.of_list !lats in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Alcotest.fail "no operation succeeded after warm-up";
  (a.(min (n - 1) (n * 99 / 100)), n)

let test_gray_p99_gate () =
  (* Quorum choice alone carries the gray-failure result: with the Healthy
     picker the gray p99 stays within 3x the fault-free one; the Random
     picker on the same gray world does not, so the gate fails if the gray
     links stop being slow. The 30-unit deadline writes slow operations off
     before they can raise a p99 over successes, so a Healthy picker that
     stops steering keeps its p99 and loses operations instead: the gray run
     must also complete two thirds of the fault-free run's operations. *)
  let steady, steady_ok = gray_phase ~gray:false ~healthy:true in
  let healthy, healthy_ok = gray_phase ~gray:true ~healthy:true in
  let random, _ = gray_phase ~gray:true ~healthy:false in
  Alcotest.(check bool)
    (Printf.sprintf "Healthy gray p99 %.2fx fault-free <= 3x" (healthy /. steady))
    true
    (healthy <= 3.0 *. steady);
  Alcotest.(check bool)
    (Printf.sprintf "Healthy gray run completes %d of %d fault-free ops (>= 2/3)" healthy_ok
       steady_ok)
    true
    (3 * healthy_ok >= 2 * steady_ok);
  Alcotest.(check bool)
    (Printf.sprintf "Random gray p99 %.2fx fault-free > 3x" (random /. steady))
    true
    (random > 3.0 *. steady)

(* --- the client-side operation deadline ----------------------------------------- *)

(* The client (node 3) is cut off from representatives 1 and 2, so every
   read quorum needs a member whose calls only time out — four 10-unit
   attempts plus backoff per call. Returns how the lookup ended and when. *)
let partitioned_lookup ?health () =
  let world =
    Shard_world.create ~seed:31L ~rpc_timeout:10.0 ~rpc_attempts:4 ~rpc_backoff:2.0
      ~two_phase:false ~config:cfg_322 ~groups:1 ()
  in
  Net.partition (Shard_world.net world) [ 3 ] [ 1; 2 ];
  let sim = Shard_world.sim world in
  let suite = Shard_world.suite_for_client ?health world 0 0 in
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
          Alcotest.test_case "healthy picker avoids gray rep" `Quick
            test_healthy_picker_avoids_gray_rep;
        ] );
      ( "gray failure",
        [
          Alcotest.test_case "random picker terminates with a slow rep" `Quick
            test_random_picker_terminates_with_slow_rep;
          Alcotest.test_case "healthy picker under a gray rep" `Quick
            test_healthy_picker_under_gray_rep;
          Alcotest.test_case "gray p99 gate: healthy within 3x, random beyond" `Quick
            test_gray_p99_gate;
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
