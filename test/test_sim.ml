(* Tests for the discrete-event simulator: deterministic ordering, process
   sleep/suspend semantics, network failure rules, and RPC behaviour. *)

open Repdir_sim

(* --- heap ----------------------------------------------------------------------- *)

let test_heap_ordering () =
  let h = Heap.create ~dummy:"" in
  Heap.push h ~time:3.0 ~seq:1 "c";
  Heap.push h ~time:1.0 ~seq:2 "a";
  Heap.push h ~time:2.0 ~seq:3 "b";
  Heap.push h ~time:1.0 ~seq:1 "a0";
  let order = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, _, x) ->
        order := x :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "time then seq order" [ "a0"; "a"; "b"; "c" ] (List.rev !order)

(* The simulator's payloads are continuation thunks: once popped, the heap
   must not keep them (or whatever they capture) reachable. *)
let test_heap_pop_releases_payloads () =
  let h = Heap.create ~dummy:Bytes.empty in
  let seen = Weak.create 3 in
  let push i =
    let b = Bytes.make 8 'x' in
    Weak.set seen i (Some b);
    Heap.push h ~time:(float_of_int i) ~seq:i b
  in
  List.iter push [ 0; 1; 2 ];
  for _ = 1 to 3 do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  let live = List.filter (Weak.check seen) [ 0; 1; 2 ] in
  Alcotest.(check (list int)) "no popped payload still reachable" [] live;
  (* Still in use, so the heap itself is not what the collector freed. *)
  Alcotest.(check bool) "drained" true (Heap.pop h = None)

let test_heap_random_soak () =
  let rng = Repdir_util.Rng.create 7L in
  let h = Heap.create ~dummy:0 in
  for i = 0 to 999 do
    Heap.push h ~time:(Repdir_util.Rng.float rng 100.0) ~seq:i i
  done;
  let prev = ref neg_infinity in
  let count = ref 0 in
  let rec drain () =
    match Heap.pop h with
    | Some (time, _, _) ->
        Alcotest.(check bool) "non-decreasing" true (time >= !prev);
        prev := time;
        incr count;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "all popped" 1000 !count

(* --- core simulator ---------------------------------------------------------------- *)

let test_sleep_ordering () =
  let sim = Sim.create () in
  let trace = ref [] in
  let log fmt = Printf.ksprintf (fun s -> trace := s :: !trace) fmt in
  Sim.spawn sim (fun () ->
      log "p1 start %.1f" (Sim.now sim);
      Sim.sleep sim 5.0;
      log "p1 wake %.1f" (Sim.now sim));
  Sim.spawn sim (fun () ->
      log "p2 start %.1f" (Sim.now sim);
      Sim.sleep sim 2.0;
      log "p2 wake %.1f" (Sim.now sim));
  Sim.run sim;
  Alcotest.(check (list string)) "interleaving by virtual time"
    [ "p1 start 0.0"; "p2 start 0.0"; "p2 wake 2.0"; "p1 wake 5.0" ]
    (List.rev !trace)

let test_spawn_at () =
  let sim = Sim.create () in
  let seen = ref 0.0 in
  Sim.spawn sim ~at:7.5 (fun () -> seen := Sim.now sim);
  Sim.run sim;
  Alcotest.(check (float 0.0)) "spawn time honored" 7.5 !seen

let test_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Sim.at sim (float_of_int i) (fun () -> incr count)
  done;
  Sim.run ~until:5.0 sim;
  Alcotest.(check int) "only events <= until" 5 !count;
  Sim.run sim;
  Alcotest.(check int) "rest run afterwards" 10 !count

let test_no_scheduling_into_past () =
  let sim = Sim.create () in
  Sim.at sim 10.0 (fun () ->
      Alcotest.check_raises "past scheduling rejected"
        (Invalid_argument "Sim: scheduling into the virtual past") (fun () ->
          Sim.at sim 5.0 ignore));
  Sim.run sim

let test_suspend_resume () =
  let sim = Sim.create () in
  let waker = ref (fun () -> ()) in
  let state = ref "init" in
  Sim.spawn sim (fun () ->
      state := "suspended";
      Sim.suspend sim (fun wake -> waker := wake);
      state := Printf.sprintf "resumed at %.1f" (Sim.now sim));
  Sim.at sim 3.0 (fun () -> !waker ());
  Sim.run sim;
  Alcotest.(check string) "resumed at waker's time" "resumed at 3.0" !state

let test_suspend_double_wake_harmless () =
  let sim = Sim.create () in
  let waker = ref (fun () -> ()) in
  let resumes = ref 0 in
  Sim.spawn sim (fun () ->
      Sim.suspend sim (fun wake -> waker := wake);
      incr resumes);
  Sim.at sim 1.0 (fun () ->
      !waker ();
      !waker ());
  Sim.at sim 2.0 (fun () -> !waker ());
  Sim.run sim;
  Alcotest.(check int) "resumed exactly once" 1 !resumes

(* [retry] tries [every] apart and stops at the first success; after a
   failed try it gives up once the clock has reached an [`Until] deadline
   (without sleeping past it), or after [`Retries n] retries. *)
let test_retry () =
  let run limit ~succeed_at =
    let sim = Sim.create () in
    let tries = ref [] and result = ref false in
    Sim.spawn sim (fun () ->
        result :=
          Sim.retry sim ~every:2.0 limit (fun k ->
              tries := (k, Sim.now sim) :: !tries;
              k = succeed_at));
    Sim.run sim;
    (!result, List.rev !tries, Sim.now sim)
  in
  let check name expected got =
    Alcotest.(check (triple bool (list (pair int (float 0.0))) (float 0.0))) name expected got
  in
  check "success stops it" (true, [ (0, 0.0); (1, 2.0) ], 2.0)
    (run (`Until 100.0) ~succeed_at:1);
  check "deadline checked after a try" (false, [ (0, 0.0); (1, 2.0); (2, 4.0) ], 4.0)
    (run (`Until 3.0) ~succeed_at:(-1));
  check "retries counted" (false, [ (0, 0.0); (1, 2.0); (2, 4.0) ], 4.0)
    (run (`Retries 2) ~succeed_at:(-1))

let test_determinism () =
  let run () =
    let sim = Sim.create ~seed:99L () in
    let trace = ref [] in
    for i = 1 to 5 do
      Sim.spawn sim (fun () ->
          let d = Repdir_util.Rng.float (Sim.rng sim) 10.0 in
          Sim.sleep sim d;
          trace := (i, Sim.now sim) :: !trace)
    done;
    Sim.run sim;
    !trace
  in
  Alcotest.(check bool) "identical traces" true (run () = run ())

(* --- network -------------------------------------------------------------------------- *)

let fixed_latency d _rng = d

let test_net_delivery () =
  let sim = Sim.create () in
  let net = Net.create sim ~n_nodes:2 ~latency:(fixed_latency 1.5) () in
  let delivered = ref (-1.0) in
  Sim.spawn sim (fun () -> Net.send net ~src:0 ~dst:1 (fun () -> delivered := Sim.now sim));
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "after latency" 1.5 !delivered

let test_net_crash_drops () =
  let sim = Sim.create () in
  let net = Net.create sim ~n_nodes:2 ~latency:(fixed_latency 1.0) () in
  let delivered = ref false in
  Net.crash net 1;
  Sim.spawn sim (fun () -> Net.send net ~src:0 ~dst:1 (fun () -> delivered := true));
  Sim.run sim;
  Alcotest.(check bool) "dropped" false !delivered;
  Alcotest.(check int) "counted" 1 (Net.messages_dropped net)

let test_net_crash_at_delivery_time () =
  (* Node up at send time but down at delivery: message still lost. *)
  let sim = Sim.create () in
  let net = Net.create sim ~n_nodes:2 ~latency:(fixed_latency 2.0) () in
  let delivered = ref false in
  Sim.spawn sim (fun () -> Net.send net ~src:0 ~dst:1 (fun () -> delivered := true));
  Sim.at sim 1.0 (fun () -> Net.crash net 1);
  Sim.run sim;
  Alcotest.(check bool) "dropped mid-flight" false !delivered

let test_net_recover () =
  let sim = Sim.create () in
  let net = Net.create sim ~n_nodes:2 ~latency:(fixed_latency 1.0) () in
  let delivered = ref false in
  Net.crash net 1;
  Net.recover net 1;
  Sim.spawn sim (fun () -> Net.send net ~src:0 ~dst:1 (fun () -> delivered := true));
  Sim.run sim;
  Alcotest.(check bool) "delivered after recovery" true !delivered

let test_net_partition () =
  let sim = Sim.create () in
  let net = Net.create sim ~n_nodes:4 ~latency:(fixed_latency 1.0) () in
  Net.partition net [ 0; 1 ] [ 2; 3 ];
  let cross = ref false and within = ref false in
  Sim.spawn sim (fun () ->
      Net.send net ~src:0 ~dst:2 (fun () -> cross := true);
      Net.send net ~src:0 ~dst:1 (fun () -> within := true));
  Sim.run sim;
  Alcotest.(check bool) "cross-partition dropped" false !cross;
  Alcotest.(check bool) "within-partition delivered" true !within;
  Net.heal_partition net;
  Sim.spawn sim (fun () -> Net.send net ~src:0 ~dst:2 (fun () -> cross := true));
  Sim.run sim;
  Alcotest.(check bool) "delivered after heal" true !cross

(* --- rpc ---------------------------------------------------------------------------------- *)

(* A single-shot call from node 0 to node 1: the one RPC primitive at its
   default single attempt, against a fresh dedup server. *)
let call net ~timeout f =
  Rpc.call_at_most_once net ~src:0 ~dst:1 ~server:(Rpc.server ()) ~timeout f

let test_rpc_roundtrip () =
  let sim = Sim.create () in
  let net = Net.create sim ~n_nodes:2 ~latency:(fixed_latency 1.0) () in
  let result = ref (Error Rpc.Timeout) in
  let finished_at = ref nan in
  Sim.spawn sim (fun () ->
      result := call net ~timeout:10.0 (fun () -> 6 * 7);
      finished_at := Sim.now sim);
  Sim.run sim;
  (match !result with
  | Ok v -> Alcotest.(check int) "value" 42 v
  | Error Rpc.Timeout -> Alcotest.fail "unexpected timeout");
  Alcotest.(check (float 1e-9)) "round trip took 2 latencies" 2.0 !finished_at

let test_rpc_timeout_on_crashed_server () =
  let sim = Sim.create () in
  let net = Net.create sim ~n_nodes:2 ~latency:(fixed_latency 1.0) () in
  Net.crash net 1;
  let result = ref (Ok 0) in
  Sim.spawn sim (fun () ->
      result := call net ~timeout:5.0 (fun () -> 1));
  Sim.run sim;
  (match !result with
  | Error Rpc.Timeout -> ()
  | Ok _ -> Alcotest.fail "expected timeout");
  Alcotest.(check (float 1e-9)) "timed out at deadline" 5.0 (Sim.now sim)

exception Server_boom

let test_rpc_server_exception_propagates () =
  let sim = Sim.create () in
  let net = Net.create sim ~n_nodes:2 ~latency:(fixed_latency 1.0) () in
  let observed = ref false in
  Sim.spawn sim (fun () ->
      try ignore (call net ~timeout:10.0 (fun () -> raise Server_boom))
      with Server_boom -> observed := true);
  Sim.run sim;
  Alcotest.(check bool) "exception re-raised at caller" true !observed

let test_rpc_late_reply_dropped () =
  (* Server takes longer than the timeout: the caller gets Timeout and the
     late reply must not corrupt anything. *)
  let sim = Sim.create () in
  let net = Net.create sim ~n_nodes:2 ~latency:(fixed_latency 1.0) () in
  let result = ref (Ok 0) in
  Sim.spawn sim (fun () ->
      result := call net ~timeout:3.0 (fun () ->
          Sim.sleep sim 10.0;
          1));
  Sim.run sim;
  match !result with
  | Error Rpc.Timeout -> ()
  | Ok _ -> Alcotest.fail "expected timeout"

let test_rpc_blocking_server () =
  (* The server handler suspends and is woken by a third party; the caller
     waits through it. *)
  let sim = Sim.create () in
  let net = Net.create sim ~n_nodes:2 ~latency:(fixed_latency 1.0) () in
  let waker = ref (fun () -> ()) in
  let result = ref (Error Rpc.Timeout) in
  Sim.spawn sim (fun () ->
      result := call net ~timeout:100.0 (fun () ->
          Sim.suspend sim (fun wake -> waker := wake);
          Sim.now sim));
  Sim.at sim 50.0 (fun () -> !waker ());
  Sim.run sim;
  match !result with
  | Ok t -> Alcotest.(check (float 1e-9)) "server resumed at 50" 50.0 t
  | Error Rpc.Timeout -> Alcotest.fail "should not time out"

(* --- at-most-once dedup cache -------------------------------------------------------- *)

let test_at_most_once_cache_stays_bounded () =
  (* A long retry-heavy run: a quarter of all messages take far longer than
     the RPC timeout, so clients retransmit constantly and every completed
     call leaves a cached reply behind. The cache must stay at its cap (plus
     in-flight slack) instead of growing with server lifetime. *)
  let sim = Sim.create ~seed:11L () in
  let latency rng = if Repdir_util.Rng.float rng 1.0 < 0.25 then 40.0 else 1.0 in
  let net = Net.create sim ~n_nodes:2 ~latency () in
  let server = Rpc.server ~cap:32 ~ttl:60.0 () in
  let jitter = Repdir_util.Rng.create 3L in
  let calls = 400 in
  let completed = ref 0 in
  let retries = ref 0 in
  let max_entries = ref 0 in
  Sim.spawn sim (fun () ->
      for i = 1 to calls do
        (match
           Rpc.call_at_most_once net ~src:0 ~dst:1 ~server ~timeout:5.0 ~attempts:4
             ~backoff:1.0 ~rng:jitter
             ~on_retry:(fun () -> incr retries)
             (fun () -> i)
         with
        | Ok r -> if r = i then incr completed
        | Error Rpc.Timeout -> ());
        max_entries := max !max_entries (Rpc.server_entries server)
      done);
  Sim.run sim;
  Alcotest.(check bool) "run was retry-heavy" true (!retries > 50);
  Alcotest.(check bool)
    (Printf.sprintf "most calls complete (%d/%d)" !completed calls)
    true
    (!completed > calls * 3 / 4);
  (* Without eviction the table would hold one entry per completed call
     (hundreds); with it, the completed-entry FIFO never exceeds the cap and
     only in-flight duplicates ride on top. *)
  Alcotest.(check bool)
    (Printf.sprintf "cache bounded (peak %d)" !max_entries)
    true
    (!max_entries <= 32 + 8);
  Alcotest.(check bool) "eviction actually ran" true (Rpc.server_entries server <= 32 + 8)

let test_at_most_once_ttl_boundary () =
  (* Pin the TTL eviction boundary exactly: a cached reply with finish time
     [f] is dropped by a request arriving at [f +. ttl] — AT the boundary,
     not strictly after it — and kept by one arriving any earlier. Fixed
     latency 1.0 and no faults make every arrival time exact: a call sent at
     [s] arrives (and its handler finishes) at [s +. 1]. *)
  let sim = Sim.create () in
  let net = Net.create sim ~n_nodes:2 ~latency:(fixed_latency 1.0) () in
  let server = Rpc.server ~cap:100 ~ttl:10.0 () in
  let entries = ref [] in
  let call () =
    match
      Rpc.call_at_most_once net ~src:0 ~dst:1 ~server ~timeout:5.0 (fun () -> ())
    with
    | Ok () -> entries := Rpc.server_entries server :: !entries
    | Error Rpc.Timeout -> Alcotest.fail "no faults, yet a call timed out"
  in
  Sim.spawn sim (fun () ->
      (* A finishes at 1, B at 6, C at 10.9. *)
      call ();
      Sim.sleep sim 3.0 (* now 5.0 *);
      call ();
      Sim.sleep sim 2.9 (* now 9.9 *);
      (* C arrives at 10.9, a hair before A's boundary 1 + 10 = 11: nothing
         may be evicted yet. *)
      call ();
      Sim.sleep sim 3.1 (* now 15.0 *);
      (* D arrives at exactly B's boundary 6 + 10 = 16: A (long stale) and B
         (stale AT the boundary) go; C (10.9 + 10 > 16) stays. Oldest-first:
         a newest-first sweep would stop at C and keep all three. *)
      call ());
  Sim.run sim;
  Alcotest.(check (list int))
    "entries after each call (newest first)" [ 2; 3; 2; 1 ] !entries

let test_at_most_once_cap_boundary () =
  (* Pin the cap boundary: the completed-entry FIFO holds at most [cap]
     entries plus the one the current arrival just pushed, and every call
     still executes exactly once (eviction re-opens the re-execution window
     but never corrupts live dedup state). *)
  let sim = Sim.create () in
  let net = Net.create sim ~n_nodes:2 ~latency:(fixed_latency 1.0) () in
  let server = Rpc.server ~cap:2 ~ttl:1e6 () in
  let execs = Array.make 5 0 in
  let entries = ref [] in
  Sim.spawn sim (fun () ->
      for i = 0 to 4 do
        (match
           Rpc.call_at_most_once net ~src:0 ~dst:1 ~server ~timeout:5.0 (fun () ->
               execs.(i) <- execs.(i) + 1)
         with
        | Ok () -> entries := Rpc.server_entries server :: !entries
        | Error Rpc.Timeout -> Alcotest.fail "no faults, yet a call timed out");
        Sim.sleep sim 3.0
      done);
  Sim.run sim;
  (* Arrival k (k >= 3) first evicts down to the cap, then pushes itself:
     the cache plateaus at cap + 1 and (with the oldest-first order proven
     by the TTL test) the survivors are always the newest entries. *)
  Alcotest.(check (list int))
    "entries after each call (newest first)" [ 3; 3; 3; 2; 1 ] !entries;
  Array.iteri
    (fun i n -> Alcotest.(check int) (Printf.sprintf "call %d ran once" i) 1 n)
    execs

let () =
  Alcotest.run "sim"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "random soak" `Quick test_heap_random_soak;
          Alcotest.test_case "pop releases payloads" `Quick test_heap_pop_releases_payloads;
        ] );
      ( "core",
        [
          Alcotest.test_case "sleep ordering" `Quick test_sleep_ordering;
          Alcotest.test_case "spawn at" `Quick test_spawn_at;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "no past scheduling" `Quick test_no_scheduling_into_past;
          Alcotest.test_case "suspend/resume" `Quick test_suspend_resume;
          Alcotest.test_case "double wake harmless" `Quick test_suspend_double_wake_harmless;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "retry" `Quick test_retry;
        ] );
      ( "net",
        [
          Alcotest.test_case "delivery" `Quick test_net_delivery;
          Alcotest.test_case "crash drops" `Quick test_net_crash_drops;
          Alcotest.test_case "crash at delivery" `Quick test_net_crash_at_delivery_time;
          Alcotest.test_case "recover" `Quick test_net_recover;
          Alcotest.test_case "partition" `Quick test_net_partition;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "roundtrip" `Quick test_rpc_roundtrip;
          Alcotest.test_case "timeout on crashed server" `Quick
            test_rpc_timeout_on_crashed_server;
          Alcotest.test_case "server exception propagates" `Quick
            test_rpc_server_exception_propagates;
          Alcotest.test_case "late reply dropped" `Quick test_rpc_late_reply_dropped;
          Alcotest.test_case "blocking server" `Quick test_rpc_blocking_server;
          Alcotest.test_case "dedup TTL-expiry boundary" `Quick
            test_at_most_once_ttl_boundary;
          Alcotest.test_case "dedup capacity boundary" `Quick
            test_at_most_once_cap_boundary;
          Alcotest.test_case "dedup cache stays bounded" `Quick
            test_at_most_once_cache_stays_bounded;
        ] );
    ]
