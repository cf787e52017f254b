(* Benchmark harness.

   Part 1 — bechamel micro-benchmarks of every layer: the B+tree gap map
   (against the reference implementation, across fanouts), the range lock
   manager, representative operations, whole directory-suite operations per
   configuration, the baselines, and the availability analysis. One
   Test.make per paper table/figure wraps a scaled-down generation of that
   table so regressions in any experiment's pipeline show up as timing
   changes.

   Part 2 — the actual reproduction: prints every table and figure of the
   paper's evaluation (Figures 14 and 15), plus the ablations DESIGN.md
   commits to (quorum stability, availability, per-operation message costs,
   concurrency, locality, crash timeline), at full paper parameters.

   Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit
open Repdir_key
open Repdir_quorum

let cfg_322 = Config.simple ~n:3 ~r:2 ~w:2

(* --- gap map micro-benchmarks -------------------------------------------------- *)

module Btree = Repdir_gapmap.Btree
module Reference = Repdir_gapmap.Reference

let filled_btree ~branching n =
  let g = Btree.create_with ~branching () in
  for i = 0 to n - 1 do
    Btree.insert g (Key.of_int (2 * i)) 1 "v"
  done;
  g

let filled_reference n =
  let g = Reference.create () in
  for i = 0 to n - 1 do
    Reference.insert g (Key.of_int (2 * i)) 1 "v"
  done;
  g

let bench_btree_lookup ~branching n =
  let g = filled_btree ~branching n in
  let rng = Repdir_util.Rng.create 1L in
  Test.make
    ~name:(Printf.sprintf "btree(b=%d)/lookup/%d" branching n)
    (Staged.stage (fun () ->
         ignore
           (Btree.lookup g (Repdir_key.Bound.Key (Key.of_int (Repdir_util.Rng.int rng (2 * n)))))))

let bench_reference_lookup n =
  let g = filled_reference n in
  let rng = Repdir_util.Rng.create 1L in
  Test.make
    ~name:(Printf.sprintf "reference/lookup/%d" n)
    (Staged.stage (fun () ->
         ignore
           (Reference.lookup g
              (Repdir_key.Bound.Key (Key.of_int (Repdir_util.Rng.int rng (2 * n)))))))

let bench_btree_insert_coalesce ~branching n =
  let g = filled_btree ~branching n in
  let i = ref 0 in
  Test.make
    ~name:(Printf.sprintf "btree(b=%d)/insert+coalesce/%d" branching n)
    (Staged.stage (fun () ->
         (* Insert a fresh odd key, then coalesce it away between its even
            neighbours: a steady-state churn cycle. *)
         let k = (2 * (!i mod (n - 1))) + 1 in
         incr i;
         Btree.insert g (Key.of_int k) 3 "v";
         ignore
           (Btree.coalesce g
              ~lo:(Repdir_key.Bound.Key (Key.of_int (k - 1)))
              ~hi:(Repdir_key.Bound.Key (Key.of_int (k + 1)))
              4)))

let bench_btree_digest ~branching n =
  let g = filled_btree ~branching n in
  Test.make
    ~name:(Printf.sprintf "btree(b=%d)/digest-root/%d" branching n)
    (Staged.stage (fun () ->
         ignore (Btree.digest_range g ~lo:Repdir_key.Bound.Low ~hi:Repdir_key.Bound.High)))

(* --- lock manager --------------------------------------------------------------- *)

let bench_lock_acquire_release () =
  let open Repdir_lock in
  let m = Lock_manager.create () in
  let iv = Repdir_key.Bound.Interval.point (Repdir_key.Bound.Key "k") in
  let txn = ref 0 in
  Test.make ~name:"lock/acquire+release"
    (Staged.stage (fun () ->
         incr txn;
         (match Lock_manager.acquire m ~txn:!txn Mode.Rep_modify iv ~on_grant:ignore with
         | Lock_manager.Granted -> ()
         | Lock_manager.Waiting | Lock_manager.Deadlock _ -> assert false);
         Lock_manager.release_all m ~txn:!txn))

(* --- representative operations ---------------------------------------------------- *)

let bench_rep_insert_coalesce () =
  let open Repdir_rep in
  let rep = Rep.create ~name:"bench" () in
  let txn0 = 1 in
  for i = 0 to 199 do
    Rep.insert rep ~txn:txn0 (Key.of_int (2 * i)) 1 "v"
  done;
  Rep.commit rep ~txn:txn0;
  let t = ref 1 in
  Test.make ~name:"rep/txn(insert+coalesce)"
    (Staged.stage (fun () ->
         incr t;
         let txn = !t in
         let k = (2 * (txn mod 199)) + 1 in
         Rep.insert rep ~txn (Key.of_int k) 3 "v";
         ignore
           (Rep.coalesce rep ~txn
              ~lo:(Repdir_key.Bound.Key (Key.of_int (k - 1)))
              ~hi:(Repdir_key.Bound.Key (Key.of_int (k + 1)))
              4);
         Rep.commit rep ~txn))

let bench_rep_insert_coalesce_leased () =
  (* Same churn cycle with the lease machinery armed: every op renews a
     sliding deadline through no-op timers, isolating the bookkeeping cost
     leases add to the hot path. *)
  let open Repdir_rep in
  let timers = { Rep.now = (fun () -> 0.0); after = (fun _ _ -> ()) } in
  let rep = Rep.create ~timers ~lease:1.0e9 ~name:"bench-leased" () in
  let txn0 = 1 in
  for i = 0 to 199 do
    Rep.insert rep ~txn:txn0 (Key.of_int (2 * i)) 1 "v"
  done;
  Rep.commit rep ~txn:txn0;
  let t = ref 1 in
  Test.make ~name:"rep/txn(insert+coalesce)+lease"
    (Staged.stage (fun () ->
         incr t;
         let txn = !t in
         let k = (2 * (txn mod 199)) + 1 in
         Rep.insert rep ~txn (Key.of_int k) 3 "v";
         ignore
           (Rep.coalesce rep ~txn
              ~lo:(Repdir_key.Bound.Key (Key.of_int (k - 1)))
              ~hi:(Repdir_key.Bound.Key (Key.of_int (k + 1)))
              4);
         Rep.commit rep ~txn))

(* --- whole-suite operations --------------------------------------------------------- *)

let make_suite ?two_phase ?batching ?group_commit ?recorder ~config ~entries () =
  let open Repdir_rep in
  let open Repdir_core in
  let n = Config.n_reps config in
  let reps =
    Array.init n (fun i ->
        let name = Printf.sprintf "r%d" i in
        match group_commit with
        | None -> Rep.create ~name ()
        | Some w ->
            (* Synchronous timers: the group-commit window fires immediately,
               so the serial benchmark exercises the leader path (arm, fire,
               sync, settle) without blocking on a real clock. *)
            let timers = { Rep.now = (fun () -> 0.0); after = (fun _ k -> k ()) } in
            Rep.create ~timers ~group_commit:w ~name ())
  in
  let suite =
    Suite.create ?two_phase ?batching ?recorder ~config ~transport:(Transport.local reps)
      ~txns:(Repdir_txn.Txn.Manager.create ())
      ()
  in
  for i = 0 to entries - 1 do
    match Suite.insert suite (Key.of_int i) "v" with
    | Ok () -> ()
    | Error `Already_present -> assert false
  done;
  suite

let bench_suite_lookup ~config =
  let open Repdir_core in
  let suite = make_suite ~config ~entries:100 () in
  let rng = Repdir_util.Rng.create 3L in
  Test.make
    ~name:(Printf.sprintf "suite(%s)/lookup" (Config.to_string config))
    (Staged.stage (fun () ->
         ignore (Suite.lookup suite (Key.of_int (Repdir_util.Rng.int rng 100)))))

let bench_suite_insert_delete ?two_phase ?batching ?group_commit ?recorder ?(tag = "")
    ~config () =
  let open Repdir_core in
  let suite = make_suite ?two_phase ?batching ?group_commit ?recorder ~config ~entries:100 () in
  let i = ref 0 in
  Test.make
    ~name:(Printf.sprintf "suite(%s)/insert+delete%s" (Config.to_string config) tag)
    (Staged.stage (fun () ->
         incr i;
         let k = Key.of_int (1000 + (!i mod 100)) in
         (match Suite.insert suite k "v" with Ok () -> () | Error `Already_present -> ());
         ignore (Suite.delete suite k)))

(* The auditor-overhead A/B: the same two-phase insert+delete churn with a
   history recorder attached. Recording must stay cheap enough to leave on
   for every nemesis campaign — the smoke gate holds it under 10%. The
   recorder keeps its bounded window and feeds a sink, like an audited run;
   the virtual clock is a monotone counter so interval stamps cost what they
   cost in the simulator (a closure call), not a syscall. *)
let bench_suite_insert_delete_audited ~config () =
  let clock = ref 0.0 in
  let recorder =
    Repdir_audit.History.recorder ~client:0
      ~now:(fun () ->
        clock := !clock +. 1.0;
        !clock)
      ()
  in
  Repdir_audit.History.set_sink recorder ignore;
  bench_suite_insert_delete ~two_phase:true ~recorder ~tag:"+2pc+audit" ~config ()

(* --- baselines ------------------------------------------------------------------------ *)

let bench_file_voting_modify () =
  let open Repdir_baselines in
  let fv = File_voting.create ~config:cfg_322 () in
  for i = 0 to 99 do
    ignore (File_voting.insert fv (Key.of_int i) "v")
  done;
  let i = ref 0 in
  Test.make ~name:"baseline/file-voting/update@100"
    (Staged.stage (fun () ->
         incr i;
         ignore (File_voting.update fv (Key.of_int (!i mod 100)) "v'")))

let bench_availability () =
  let votes = [| 3; 2; 2; 1; 1 |] in
  Test.make ~name:"availability/exact-dp(5 reps)"
    (Staged.stage (fun () ->
         ignore (Availability.quorum_probability ~votes ~quorum:5 ~p_up:0.9)))

(* --- one scaled-down Test per paper table/figure -------------------------------------- *)

let bench_tables =
  [
    Test.make ~name:"table/figure14(1 config, 300 ops)"
      (Staged.stage (fun () ->
           ignore
             (Repdir_harness.Experiment.run ~config:cfg_322 ~n_entries:100 ~ops:300 ())));
    Test.make ~name:"table/figure15(100 entries, 300 ops)"
      (Staged.stage (fun () ->
           ignore
             (Repdir_harness.Experiment.run ~config:cfg_322 ~n_entries:100 ~ops:300 ())));
    Test.make ~name:"table/quorum-stability(300 ops)"
      (Staged.stage (fun () ->
           ignore
             (Repdir_harness.Experiment.run ~picker:(Picker.Fixed [| 0; 1; 2 |])
                ~config:cfg_322 ~n_entries:100 ~ops:300 ())));
    Test.make ~name:"table/availability(exact)"
      (Staged.stage (fun () -> ignore (Repdir_harness.Figures.availability ())));
    Test.make ~name:"table/messages(200 ops)"
      (Staged.stage (fun () ->
           ignore (Repdir_harness.Figures.messages ~ops:200 ~entries:50 ())));
    Test.make ~name:"table/concurrency(1 cell, t=100)"
      (Staged.stage (fun () ->
           ignore
             (Repdir_harness.Concurrency.run ~duration:100.0
                ~scheme:Repdir_harness.Concurrency.Gap ~clients:2 ~config:cfg_322 ())));
    Test.make ~name:"table/locality(400 ops)"
      (Staged.stage (fun () -> ignore (Repdir_harness.Locality.run ~ops:400 ())));
    Test.make ~name:"table/faults(20 ops/phase)"
      (Staged.stage (fun () -> ignore (Repdir_harness.Faults.run ~ops_per_phase:20 ())));
    Test.make ~name:"table/latency(200 ops)"
      (Staged.stage (fun () ->
           ignore (Repdir_harness.Latency.run ~ops:200 ~config:cfg_322 ())));
    Test.make ~name:"table/space(500 ops)"
      (Staged.stage (fun () ->
           ignore (Repdir_harness.Figures.space_and_traffic ~ops:500 ~entries:50 ())));
    Test.make ~name:"table/sync-convergence(1 seed)"
      (Staged.stage (fun () -> ignore (Repdir_harness.Anti_entropy.convergence ())));
  ]

(* --- runner ---------------------------------------------------------------------------- *)

(* One result row per benchmark: the OLS time-per-run estimate plus latency
   percentiles over bechamel's raw samples (each sample's time divided by its
   iteration count). Rows feed both the on-screen table and BENCH_pr3.json. *)
type bench_row = { name : string; ns : float; p50 : float; p90 : float; p99 : float }

let pretty_ns ns =
  if Float.is_nan ns then "-"
  else if ns >= 1.0e9 then Printf.sprintf "%.2f s" (ns /. 1.0e9)
  else if ns >= 1.0e6 then Printf.sprintf "%.2f ms" (ns /. 1.0e6)
  else if ns >= 1.0e3 then Printf.sprintf "%.2f us" (ns /. 1.0e3)
  else Printf.sprintf "%.0f ns" ns

let run_benchmarks tests ~quota =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~kde:None ~stabilize:false () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"repdir" ~fmt:"%s %s" tests) in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let label = Measure.label Instance.monotonic_clock in
  let percentiles name =
    match Hashtbl.find_opt raw name with
    | None -> (nan, nan, nan)
    | Some (b : Benchmark.t) ->
        let xs =
          Array.to_list b.Benchmark.lr
          |> List.filter_map (fun m ->
                 let runs = Measurement_raw.run m in
                 if runs <= 0.0 then None
                 else Some (Measurement_raw.get ~label m /. runs))
          |> Array.of_list
        in
        Array.sort compare xs;
        let n = Array.length xs in
        let pct p =
          if n = 0 then nan
          else xs.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))
        in
        (pct 50.0, pct 90.0, pct 99.0)
  in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with Some [ ns ] -> ns | Some _ | None -> nan
        in
        let p50, p90, p99 = percentiles name in
        { name; ns; p50; p90; p99 } :: acc)
      results []
    |> List.sort compare
  in
  let table =
    Repdir_util.Table.create ~header:[ "benchmark"; "time/run"; "p50"; "p99" ] ()
  in
  List.iter
    (fun r ->
      Repdir_util.Table.add_row table [ r.name; pretty_ns r.ns; pretty_ns r.p50; pretty_ns r.p99 ])
    rows;
  Repdir_util.Table.print table;
  rows

(* --- machine-readable summary --------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_bench_json ~path ?(counters = []) rows =
  let oc = open_out path in
  let num ns = if Float.is_nan ns then "null" else Printf.sprintf "%.1f" ns in
  let ops ns =
    if Float.is_nan ns || ns <= 0.0 then "null" else Printf.sprintf "%.1f" (1.0e9 /. ns)
  in
  output_string oc "{\n  \"schema\": \"repdir-bench/1\",\n  \"benchmarks\": [\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"ns_per_op\": %s, \"ops_per_sec\": %s, \"p50_ns\": %s, \
         \"p90_ns\": %s, \"p99_ns\": %s}%s\n"
        (json_escape r.name) (num r.ns) (ops r.ns) (num r.p50) (num r.p90) (num r.p99)
        (if i = last then "" else ","))
    rows;
  output_string oc "  ],\n  \"counters\": [\n";
  let last = List.length counters - 1 in
  List.iteri
    (fun i (name, v) ->
      Printf.fprintf oc "    {\"name\": \"%s\", \"value\": %.2f}%s\n" (json_escape name) v
        (if i = last then "" else ","))
    counters;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "\nwrote %s (%d benchmarks, %d counters)\n%!" path (List.length rows)
    (List.length counters)

let section title = Printf.printf "\n==== %s ====\n\n%!" title

(* --- messages-per-op counters (measured, not timed) ----------------------------- *)

(* True wire messages per operation at 3-2-2 under two-phase commit,
   unbatched vs batched: the before/after for the batching layer, recorded
   next to the timing rows so one BENCH file carries both. *)
let message_counters ?(ops = 2_000) () =
  let per batching =
    Repdir_harness.Figures.messages_per_op ~ops ~two_phase:true ~batching ~config:cfg_322 ()
  in
  let unbatched = per false in
  let batched = per true in
  List.concat_map
    (fun (kind, m) ->
      [
        (Printf.sprintf "messages(3-2-2)/%s+2pc" kind, m);
        (Printf.sprintf "messages(3-2-2)/%s+2pc+batch" kind, List.assoc kind batched);
      ])
    unbatched

let print_counters counters =
  let table = Repdir_util.Table.create ~header:[ "counter"; "msgs/op" ] () in
  List.iter
    (fun (n, v) -> Repdir_util.Table.add_row table [ n; Printf.sprintf "%.2f" v ])
    counters;
  Repdir_util.Table.print table

(* --- version-validated client cache: bytes/op and latency ------------------------ *)

(* The cache's savings are wire bytes, and the simulator charges latency per
   message, not per byte — so the A/B below measures estimated bytes on the
   wire directly (Transport.bytes_count) and, for a latency headline, reports
   a modeled p50 on top of the virtual one: virtual latency plus bytes/op at
   a stated byte budget of [bytes_per_unit] wire bytes per virtual time unit
   (~100 KB/s if one unit is a millisecond). Both figures are labelled for
   what they are.

   The workload is the cache's home turf, deliberately: a single client,
   two-phase + batched, ~90/10 read/write over a preloaded working set of
   64-byte values, measured after one warming pass. Write-heavy or cold
   workloads pay for validation without reaping hits — the QCheck
   differential covers those for correctness; this bench gates the read-path
   economics. *)

type cache_run = {
  k_ops : int;
  k_bytes_per_op : float;
  k_vmean : float;  (* virtual time units, successful measured ops *)
  k_vp50 : float;
  k_vp90 : float;
  k_vp99 : float;
  k_hit_rate : float;  (* nan with the cache off *)
}

let cache_phase ?(seed = 1983L) ?(keys = 40) ?(ops = 2_000) ~cache () =
  let module Sim = Repdir_sim.Sim in
  let module Sim_world = Repdir_harness.Sim_world in
  let open Repdir_core in
  let module Rng = Repdir_util.Rng in
  let world = Sim_world.create ~seed ~two_phase:true ~n_clients:1 ~config:cfg_322 () in
  let sim = Sim_world.sim world in
  let client_cache = if cache then Some (Repdir_cache.Cache.create ()) else None in
  let suite = Sim_world.suite_for_client ~batching:true ?cache:client_cache world 0 in
  let transport = Suite.transport suite in
  let value i = Printf.sprintf "%064d" i in
  let rng = Rng.create (Int64.add seed 100L) in
  let lats = ref [] in
  let bytes_start = ref 0 in
  Sim.spawn sim (fun () ->
      for i = 0 to keys - 1 do
        match Suite.insert suite (Key.of_int i) (value i) with
        | Ok () -> ()
        | Error `Already_present -> assert false
      done;
      (* One warming pass: the steady state being measured is a working set
         the client has already seen, not a cold start. The identical pass
         runs cache-off too, so the measured windows stay comparable. *)
      for i = 0 to keys - 1 do
        ignore (Suite.lookup suite (Key.of_int i) : (_ * string) option)
      done;
      bytes_start := transport.Transport.bytes_count;
      for op = 1 to ops do
        let k = Key.of_int (Rng.int rng keys) in
        let write = Rng.int rng 10 = 0 in
        let t0 = Sim.now sim in
        (if write then ignore (Suite.update suite k (value op) : (unit, _) result)
         else ignore (Suite.lookup suite k : (_ * string) option));
        lats := (Sim.now sim -. t0) :: !lats
      done);
  Sim.run sim;
  let bytes = transport.Transport.bytes_count - !bytes_start in
  let a = Array.of_list !lats in
  Array.sort compare a;
  let n = Array.length a in
  let pct p = if n = 0 then nan else a.(min (n - 1) (n * p / 100)) in
  let mean =
    if n = 0 then nan else Array.fold_left ( +. ) 0.0 a /. float_of_int n
  in
  {
    k_ops = n;
    k_bytes_per_op = (if n = 0 then nan else float_of_int bytes /. float_of_int n);
    k_vmean = mean;
    k_vp50 = pct 50;
    k_vp90 = pct 90;
    k_vp99 = pct 99;
    k_hit_rate =
      (match client_cache with
      | None -> nan
      | Some c -> Repdir_cache.Cache.hit_rate c);
  }

(* Modeled p50: the virtual p50 plus the measured bytes/op at the stated
   byte budget. The virtual component is identical machinery either way;
   only the byte term separates the arms. *)
let cache_bytes_per_unit = 100.0

let cache_modeled_p50 r = r.k_vp50 +. (r.k_bytes_per_op /. cache_bytes_per_unit)

let cache_bench ?(out = "BENCH_pr9.json") () =
  section
    "Version-validated client cache: bytes/op A/B (3-2-2, 2pc+batch, 90/10 reads, 64B \
     values)";
  let off = cache_phase ~cache:false () in
  let on = cache_phase ~cache:true () in
  let ratio = on.k_bytes_per_op /. off.k_bytes_per_op in
  let line tag r =
    Printf.printf
      "%-10s %6.1f bytes/op  virtual p50 %.2fu p90 %.2fu p99 %.2fu  modeled p50 %.2fu%s\n"
      tag r.k_bytes_per_op r.k_vp50 r.k_vp90 r.k_vp99 (cache_modeled_p50 r)
      (if Float.is_nan r.k_hit_rate then ""
       else Printf.sprintf "  hit-rate %.1f%%" (100.0 *. r.k_hit_rate))
  in
  line "cache off:" off;
  line "cache on:" on;
  Printf.printf "bytes/op with cache: %.0f%% of uncached (gate: <= 60%%)\n"
    (100.0 *. ratio);
  Printf.printf
    "modeled p50 (virtual + bytes at %.0f B/u): %.2fu cached vs %.2fu uncached (gate: \
     improved)\n%!"
    cache_bytes_per_unit (cache_modeled_p50 on) (cache_modeled_p50 off);
  let vrow tag r =
    {
      name = Printf.sprintf "cache/%s op-latency (virtual, 1u=1ms)" tag;
      ns = r.k_vmean *. 1.0e6;
      p50 = r.k_vp50 *. 1.0e6;
      p90 = r.k_vp90 *. 1.0e6;
      p99 = r.k_vp99 *. 1.0e6;
    }
  in
  write_bench_json ~path:out
    ~counters:
      [
        ("cache/off bytes-per-op", off.k_bytes_per_op);
        ("cache/on bytes-per-op", on.k_bytes_per_op);
        ("cache/on-vs-off bytes pct", 100.0 *. ratio);
        ("cache/on hit-rate pct", 100.0 *. on.k_hit_rate);
        ("cache/off modeled-p50 (1u=1ms, 100B-per-u)", cache_modeled_p50 off);
        ("cache/on modeled-p50 (1u=1ms, 100B-per-u)", cache_modeled_p50 on);
      ]
    [ vrow "off" off; vrow "on" on ];
  let failed = ref false in
  if Float.is_nan ratio || ratio > 0.60 then begin
    Printf.eprintf "cache bench FAIL: cached bytes/op %.0f%% of uncached > 60%%\n%!"
      (100.0 *. ratio);
    failed := true
  end;
  if not (cache_modeled_p50 on < cache_modeled_p50 off) then begin
    Printf.eprintf "cache bench FAIL: modeled p50 not improved (%.2fu vs %.2fu)\n%!"
      (cache_modeled_p50 on) (cache_modeled_p50 off);
    failed := true
  end;
  if !failed then exit 1;
  Printf.printf "cache bench OK\n%!"

(* --- CI smoke -------------------------------------------------------------------- *)

(* Fast regression gate: the batched two-phase path must not be slower than
   the unbatched one, batching must cut true messages per insert and per
   delete at 3-2-2 by at least half, history recording (the consistency
   auditor's hook in every suite operation) must cost under 10%, and the
   version-validated client cache must not send MORE bytes than the uncached
   path on its home read-heavy workload. The timing rows and counters land
   in BENCH_pr8_smoke.json (earlier PRs wrote this file as BENCH_pr6.json —
   see EXPERIMENTS.md on the numbering drift). *)
let smoke ?(out = "BENCH_pr8_smoke.json") () =
  section "Bench smoke";
  let rows =
    run_benchmarks ~quota:0.3
      [
        bench_suite_insert_delete ~two_phase:true ~tag:"+2pc" ~config:cfg_322 ();
        bench_suite_insert_delete ~two_phase:true ~batching:true ~tag:"+2pc+batch"
          ~config:cfg_322 ();
        bench_suite_insert_delete_audited ~config:cfg_322 ();
      ]
  in
  let ns name =
    match List.find_opt (fun r -> r.name = "repdir " ^ name) rows with
    | Some r -> r.ns
    | None -> nan
  in
  let unbatched_ns = ns "suite(3-2-2)/insert+delete+2pc" in
  let batched_ns = ns "suite(3-2-2)/insert+delete+2pc+batch" in
  let audited_ns = ns "suite(3-2-2)/insert+delete+2pc+audit" in
  let counters = message_counters () in
  let v name = List.assoc name counters in
  let ratio kind =
    v (Printf.sprintf "messages(3-2-2)/%s+2pc" kind)
    /. v (Printf.sprintf "messages(3-2-2)/%s+2pc+batch" kind)
  in
  let audit_overhead = (audited_ns /. unbatched_ns -. 1.0) *. 100.0 in
  let cache_off = cache_phase ~ops:300 ~cache:false () in
  let cache_on = cache_phase ~ops:300 ~cache:true () in
  Printf.printf "\n2pc insert+delete ns/op: unbatched %.0f, batched %.0f, audited %.0f\n"
    unbatched_ns batched_ns audited_ns;
  Printf.printf "msgs/op reduction: insert %.2fx, delete %.2fx\n" (ratio "insert")
    (ratio "delete");
  Printf.printf "auditor recording overhead: %+.1f%%\n" audit_overhead;
  Printf.printf "cache bytes/op (read-heavy): on %.1f vs off %.1f\n%!"
    cache_on.k_bytes_per_op cache_off.k_bytes_per_op;
  write_bench_json ~path:out
    ~counters:
      (counters
      @ [
          ("audit/recording-overhead-pct", audit_overhead);
          ("cache/off bytes-per-op", cache_off.k_bytes_per_op);
          ("cache/on bytes-per-op", cache_on.k_bytes_per_op);
        ])
    rows;
  let failures = ref [] in
  let check cond msg = if not cond then failures := msg :: !failures in
  check
    ((not (Float.is_nan unbatched_ns))
    && (not (Float.is_nan batched_ns))
    && batched_ns <= unbatched_ns *. 1.10)
    (Printf.sprintf "batched 2PC slower than unbatched: %.0f ns vs %.0f ns" batched_ns
       unbatched_ns);
  check (ratio "insert" >= 2.0)
    (Printf.sprintf "insert msgs/op reduction %.2fx < 2x" (ratio "insert"));
  check (ratio "delete" >= 2.0)
    (Printf.sprintf "delete msgs/op reduction %.2fx < 2x" (ratio "delete"));
  check
    ((not (Float.is_nan audited_ns)) && audited_ns <= unbatched_ns *. 1.10)
    (Printf.sprintf "history recording overhead over 10%%: %.0f ns vs %.0f ns" audited_ns
       unbatched_ns);
  check
    ((not (Float.is_nan cache_on.k_bytes_per_op))
    && cache_on.k_bytes_per_op <= cache_off.k_bytes_per_op)
    (Printf.sprintf "cached read path sent more bytes/op than uncached: %.1f vs %.1f"
       cache_on.k_bytes_per_op cache_off.k_bytes_per_op);
  match !failures with
  | [] -> Printf.printf "smoke OK\n%!"
  | fs ->
      List.iter (fun m -> Printf.eprintf "smoke FAIL: %s\n%!" m) fs;
      exit 1

let full ?(out = "BENCH_pr4.json") () =
  section "Micro-benchmarks (bechamel, time per run)";
  let micro_rows =
    run_benchmarks ~quota:0.25
      [
        bench_reference_lookup 1_000;
        bench_btree_lookup ~branching:8 1_000;
        bench_btree_lookup ~branching:32 1_000;
        bench_btree_lookup ~branching:128 1_000;
        bench_btree_lookup ~branching:32 100_000;
        bench_btree_insert_coalesce ~branching:32 1_000;
        bench_btree_digest ~branching:32 1_000;
        bench_btree_digest ~branching:32 100_000;
        bench_lock_acquire_release ();
        bench_rep_insert_coalesce ();
        bench_rep_insert_coalesce_leased ();
        bench_suite_lookup ~config:cfg_322;
        bench_suite_insert_delete ~config:cfg_322 ();
        (* One-phase vs presumed-abort two-phase commit on the same
           workload: the 2PC delta is the prepare round + the coordinator's
           forced decision log write. *)
        bench_suite_insert_delete ~two_phase:true ~tag:"+2pc" ~config:cfg_322 ();
        (* The batching A/B: one message per representative per round, the
           prepare piggybacked on the final work round, commit notices riding
           on later calls — and, in the last row, WAL group commit on top. *)
        bench_suite_insert_delete ~two_phase:true ~batching:true ~tag:"+2pc+batch"
          ~config:cfg_322 ();
        bench_suite_insert_delete ~two_phase:true ~batching:true ~group_commit:0.001
          ~tag:"+2pc+groupcommit" ~config:cfg_322 ();
        bench_suite_lookup ~config:(Config.simple ~n:5 ~r:3 ~w:3);
        bench_suite_insert_delete ~config:(Config.simple ~n:5 ~r:3 ~w:3) ();
        bench_file_voting_modify ();
        bench_availability ();
      ]
  in

  section "Per-table pipeline benchmarks (scaled-down, bechamel)";
  let table_rows = run_benchmarks ~quota:0.5 bench_tables in
  section "Messages per operation (3-2-2, 2pc, unbatched vs batched)";
  let counters = message_counters () in
  print_counters counters;
  write_bench_json ~path:out ~counters (micro_rows @ table_rows);

  (* ---- full reproductions, paper parameters ---- *)
  let module F = Repdir_harness.Figures in
  section "Figure 14 — deletion statistics across configurations (~100 entries, 10k ops)";
  Repdir_util.Table.print (F.figure14 ());

  section "Figure 15 — detailed statistics for 3-2-2 suites (100k ops per size)";
  Repdir_util.Table.print (F.figure15 ());

  section "Ablation (§5) — random vs stable write quorums (3-2-2, 10k ops)";
  Repdir_util.Table.print (F.quorum_stability ());

  section "Availability — exact read/write quorum availability";
  Repdir_util.Table.print (F.availability ());

  section "Messages — calls and true wire messages per operation";
  Repdir_util.Table.print (F.messages ());

  section "Concurrency (§2) — gap-versioned vs single-version, 3-2-2";
  Repdir_util.Table.print
    (Repdir_harness.Concurrency.table ~duration:1000.0 ~config:cfg_322 ());

  section "Figure 16 — locality quorums on a 4-2-3 suite";
  Repdir_util.Table.print (Repdir_harness.Locality.table ());

  section "Crash/recovery timeline (3-2-2, discrete-event simulation)";
  Repdir_util.Table.print (Repdir_harness.Faults.table ());

  section "Latency (§5) — sequential vs parallel quorum RPCs, 3-2-2";
  Repdir_util.Table.print (Repdir_harness.Latency.table ~config:cfg_322 ());

  section "Latency (§5) — sequential vs parallel quorum RPCs, 5-3-3";
  Repdir_util.Table.print
    (Repdir_harness.Latency.table ~config:(Config.simple ~n:5 ~r:3 ~w:3) ());

  section "Space and write traffic vs baselines (identical churn)";
  Repdir_util.Table.print (Repdir_harness.Figures.space_and_traffic ());

  section "Skewed access (§2) — gap-scheme throughput under Zipf popularity, 8 clients";
  Repdir_util.Table.print
    (Repdir_harness.Concurrency.skew_table ~duration:1000.0 ~config:cfg_322 ());

  section "Batching (§4) — representative calls per delete vs chain depth";
  Repdir_util.Table.print (Repdir_harness.Figures.batching ());

  print_newline ()

(* --- membership: throughput during a live join ----------------------------------- *)

module Nemesis = Repdir_harness.Nemesis

(* The change report of a fault-free audited admin campaign at the
   campaign defaults: 24 keys, 2 clients. *)
let change_report plan =
  Option.get (Nemesis.run_plan ~key_space:24 ~clients:2 ~audit:true plan).Nemesis.change

let per100 ops span = if span <= 0.0 then nan else 100.0 *. float_of_int ops /. span

(* Ops completed per unit of virtual time in steady state versus while a
   live join is in flight, on the fault-free reconfiguration world (the
   nemesis campaign measures safety under faults; this measures what the
   join protocol itself costs bystander traffic). The joiner catches up
   through pairwise anti-entropy sessions, so client operations only stall
   for the short whole-directory converge session that gates the promotion
   — the gate below holds the cost to at most half the steady-state
   throughput at the default workload. *)
let reconfig ?(out = "BENCH_pr7.json") () =
  section "Membership: ops during a live join vs steady state (virtual time)";
  (* The join starts at 400 instead of 80, to widen the steady-state window. *)
  let plan = Nemesis.reconfig_plan ~clients:2 ~duration:1500.0 ~seed:1983L in
  let changes = List.mapi (fun i (d, c) -> ((if i = 0 then 400.0 else d), c)) plan.changes in
  let r = change_report { plan with steps = []; changes } in
  let steady = per100 r.Nemesis.steady_ops r.Nemesis.steady_span in
  let during = per100 r.Nemesis.during_ops r.Nemesis.during_span in
  let ratio = during /. steady in
  let joined = (List.hd r.Nemesis.progress).Nemesis.completed_at <> None in
  Printf.printf
    "steady-state:  %d ops / %.0fu  = %.2f ops/100u\nduring-join:   %d ops / %.0fu  = %.2f \
     ops/100u\nratio: %.0f%% (join completed: %b)\n%!"
    r.Nemesis.steady_ops r.Nemesis.steady_span steady r.Nemesis.during_ops
    r.Nemesis.during_span during (100.0 *. ratio) joined;
  write_bench_json ~path:out
    ~counters:
      [
        ("reconfig/steady-state ops-per-100u", steady);
        ("reconfig/during-join ops-per-100u", during);
        ("reconfig/during-join-vs-steady pct", 100.0 *. ratio);
      ]
    [];
  if not joined then begin
    Printf.eprintf "reconfig bench FAIL: the join did not complete\n%!";
    exit 1
  end;
  if Float.is_nan ratio || ratio < 0.5 then begin
    Printf.eprintf "reconfig bench FAIL: during-join throughput %.0f%% of steady < 50%%\n%!"
      (100.0 *. ratio);
    exit 1
  end;
  Printf.printf "reconfig bench OK\n%!"

(* --- horizontal sharding: scaling and during-split goodput ----------------------- *)

(* Uniform goodput of a [groups]-group sharded deployment under a client
   population that saturates a single group. Every representative runs a
   deliberately tight admission cap standing in for per-node service
   capacity, so a single group's throughput is pinned at its capacity and
   aggregate throughput can only grow by adding groups — the property the
   shard layer exists to buy. The same seeds, clients and key space are used
   at every group count; only the shard map differs. *)
let shard_scaling_phase ?(seed = 1983L) ?(duration = 600.0) ?(warmup = 100.0) ~groups
    ~clients () =
  let module Sim = Repdir_sim.Sim in
  let module Shard_world = Repdir_harness.Shard_world in
  let module Router = Repdir_shard.Router in
  let module Shard_map = Repdir_shard.Shard_map in
  let module Rep = Repdir_rep.Rep in
  let module Key = Repdir_key.Key in
  let open Repdir_core in
  let module Rng = Repdir_util.Rng in
  let key_space = 64 in
  let admission = { Rep.window = 10.0; cap = 8; shed_at = 1_000 } in
  let world =
    Shard_world.create ~seed ~rpc_timeout:10.0 ~rpc_attempts:4 ~rpc_backoff:2.0
      ~two_phase:true ~n_clients:clients ~lease:60.0 ~admission ~config:cfg_322 ~groups ()
  in
  let sim = Shard_world.sim world in
  let cuts =
    List.init (groups - 1) (fun i -> Key.of_int ((i + 1) * key_space / groups))
  in
  let map = Shard_map.initial ~cuts in
  let routers = Array.init clients (fun c -> Shard_world.router_for_client world c ~map) in
  let ok = ref 0 in
  for c = 0 to clients - 1 do
    let rng = Rng.create (Int64.add seed (Int64.of_int (100 + c))) in
    let retry_rng = Rng.create (Int64.add seed (Int64.of_int (200 + c))) in
    let router = routers.(c) in
    let one_op () =
      let key = Key.of_int (Rng.int rng key_space) in
      let value = Printf.sprintf "c%d-%f" c (Sim.now sim) in
      let kind = Rng.int rng 4 in
      let t0 = Sim.now sim in
      match
        Suite.with_retries ~attempts:4 ~backoff:2.0 ~sleep:(Sim.sleep sim) ~rng:retry_rng
          (fun () ->
            match kind with
            | 0 -> ignore (Router.lookup router key : (_ * string) option)
            | 1 -> ignore (Router.insert router key value : (unit, _) result)
            | 2 -> ignore (Router.update router key value : (unit, _) result)
            | _ -> ignore (Router.delete router key : Suite.delete_report))
      with
      | () -> if t0 >= warmup then incr ok
      | exception (Suite.Unavailable _ | Repdir_txn.Txn.Abort _) -> ()
    in
    Sim.spawn sim (fun () ->
        while Sim.now sim < duration do
          one_op ();
          Sim.sleep sim (Rng.exponential rng ~mean:4.0)
        done)
  done;
  Sim.run sim;
  100.0 *. float_of_int !ok /. (duration -. warmup)

(* Two gates: a 4-group deployment must carry >= 2.5x the uniform goodput of
   a single group at the same offered load, and a live range migration
   (fault-free split campaign) must keep bystander goodput at >= 50% of
   steady state — writes to the moving slice are refused while it is frozen,
   so this bounds what the freeze window costs the workload overall. *)
let shard_bench ?(out = "BENCH_pr10.json") () =
  section "Horizontal sharding: throughput scaling and during-split goodput (virtual time)";
  let clients = 24 in
  let g1 = shard_scaling_phase ~groups:1 ~clients () in
  let g4 = shard_scaling_phase ~groups:4 ~clients () in
  let scale = g4 /. g1 in
  Printf.printf
    "uniform goodput, %d clients: 1 group %.1f ops/100u, 4 groups %.1f ops/100u (%.2fx)\n%!"
    clients g1 g4 scale;
  let plan = Nemesis.shard_plan ~n:3 ~groups:2 ~clients:2 ~duration:1500.0 ~seed:1983L in
  let r = change_report { plan with steps = [] } in
  let steady = per100 r.Nemesis.steady_ops r.Nemesis.steady_span in
  let during = per100 r.Nemesis.during_ops r.Nemesis.during_span in
  let ratio = during /. steady in
  let flipped = (List.hd r.Nemesis.progress).Nemesis.completed_at <> None in
  Printf.printf
    "split: steady %.1f ops/100u, during the migration %.1f ops/100u (%.0f%%; flip \
     completed: %b)\n%!"
    steady during (100.0 *. ratio) flipped;
  write_bench_json ~path:out
    ~counters:
      [
        ("shard/1-group goodput ops-per-100u", g1);
        ("shard/4-group goodput ops-per-100u", g4);
        ("shard/4-group-vs-1-group scale", scale);
        ("shard/split steady ops-per-100u", steady);
        ("shard/during-split ops-per-100u", during);
        ("shard/during-split-vs-steady pct", 100.0 *. ratio);
      ]
    [];
  let failed = ref false in
  if not flipped then begin
    Printf.eprintf "shard bench FAIL: the split did not complete\n%!";
    failed := true
  end;
  if Float.is_nan scale || scale < 2.5 then begin
    Printf.eprintf "shard bench FAIL: 4-group goodput %.2fx single group < 2.5x\n%!" scale;
    failed := true
  end;
  if Float.is_nan ratio || ratio < 0.5 then begin
    Printf.eprintf "shard bench FAIL: during-split goodput %.0f%% of steady < 50%%\n%!"
      (100.0 *. ratio);
    failed := true
  end;
  if !failed then exit 1;
  Printf.printf "shard bench OK\n%!"

(* --- overload and gray failure: goodput and tail-latency gates ------------------- *)

(* Three phases on identically-seeded simulated worlds, all with the full
   robustness stack armed (admission control, operation deadlines, retry
   budgets, health-ordered quorums, hedged reads):

     A. steady state  — the baseline goodput and fault-free p99 latency;
     B. 2x offered    — twice the client population. Admission pushback and
        retry budgets must keep goodput from collapsing: the gate holds it
        at >= 60% of steady state;
     C. one gray rep  — representative 0 answers ~10x slow (links spiked,
        never down). Health scoring must steer quorums away and hedging
        must cover the residual exposure: the gate holds the p99 at <= 3x
        the fault-free p99.

   Latency is virtual time from a client starting an operation to its
   completion, successful operations only; the first [warmup] time units are
   excluded from the statistics (but not from the run) so the health tables
   score on warm data and phase C measures detection steady state, not the
   cold start the hedge exists to bound. *)

type overload_phase = {
  ph_goodput : float;  (* successful ops per 100 time units, post-warmup *)
  ph_mean : float;  (* mean op latency, successful post-warmup ops *)
  ph_p50 : float;
  ph_p90 : float;
  ph_p99 : float;  (* p99 op latency, successful post-warmup ops *)
  ph_attempted : int;
  ph_succeeded : int;
  ph_written_off : int;  (* operations abandoned as unavailable/expired *)
  ph_hedged : int;
  ph_overload_rejects : int;
  ph_shed_rejects : int;
}

let overload_phase ?(seed = 1983L) ?(duration = 800.0) ?(warmup = 100.0) ~clients ~gray
    () =
  let module Sim = Repdir_sim.Sim in
  let module Net = Repdir_sim.Net in
  let module Sim_world = Repdir_harness.Sim_world in
  let module Rep = Repdir_rep.Rep in
  let open Repdir_core in
  let module Rng = Repdir_util.Rng in
  let config = cfg_322 in
  let n = Config.n_reps config in
  let world =
    Sim_world.create ~seed ~rpc_timeout:10.0 ~rpc_attempts:4 ~rpc_backoff:2.0
      ~two_phase:true ~n_clients:clients ~lease:60.0 ~admission:Rep.default_admission
      ~config ()
  in
  let sim = Sim_world.sim world in
  let health = Picker.Health.create ~n () in
  let suites =
    Array.init clients (fun c ->
        Sim_world.suite_for_client ~health world c)
  in
  if gray then begin
    (* Representative 0 stays up and answers — every message touching it is
       just ~10x slower than the exponential mean. A crash would be easy;
       this is the gray case. *)
    let net = Sim_world.net world in
    let slow = { Net.no_faults with spike = 1.0; spike_factor = 10.0 } in
    for j = 0 to Net.n_nodes net - 1 do
      if j <> 0 then Net.set_link_faults net 0 j slow
    done
  end;
  let budgets = Array.init clients (fun _ -> Suite.Retry_budget.create ()) in
  let attempted = ref 0 and succeeded = ref 0 and written_off = ref 0 in
  let lats = ref [] in
  let measured_ok = ref 0 in
  let key_space = 30 in
  for c = 0 to clients - 1 do
    let rng = Rng.create (Int64.add seed (Int64.of_int (100 + c))) in
    let retry_rng = Rng.create (Int64.add seed (Int64.of_int (200 + c))) in
    let suite = suites.(c) in
    let one_op () =
      incr attempted;
      let key = Key.of_int (Rng.int rng key_space) in
      let value = Printf.sprintf "c%d-v%d-%f" c !attempted (Sim.now sim) in
      let kind = Rng.int rng 4 in
      let t0 = Sim.now sim in
      match
        Suite.with_retries ~attempts:4 ~backoff:2.0 ~budget:budgets.(c)
          ~sleep:(Sim.sleep sim) ~rng:retry_rng (fun () ->
            match kind with
            | 0 -> ignore (Suite.lookup suite key : (_ * string) option)
            | 1 -> ignore (Suite.insert suite key value : (unit, _) result)
            | 2 -> ignore (Suite.update suite key value : (unit, _) result)
            | _ -> ignore (Suite.delete suite key : Suite.delete_report))
      with
      | () ->
          incr succeeded;
          if t0 >= warmup then begin
            lats := (Sim.now sim -. t0) :: !lats;
            incr measured_ok
          end
      | exception (Suite.Unavailable _ | Suite.Deadline_exceeded _ | Repdir_txn.Txn.Abort _)
        ->
          incr written_off
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
  let n_lat = Array.length a in
  let pct p = if n_lat = 0 then nan else a.(min (n_lat - 1) (n_lat * p / 100)) in
  let mean =
    if n_lat = 0 then nan else Array.fold_left ( +. ) 0.0 a /. float_of_int n_lat
  in
  let sum f =
    Array.fold_left (fun acc r -> acc + f (Rep.counters r)) 0 (Sim_world.reps world)
  in
  {
    ph_goodput = 100.0 *. float_of_int !measured_ok /. (duration -. warmup);
    ph_mean = mean;
    ph_p50 = pct 50;
    ph_p90 = pct 90;
    ph_p99 = pct 99;
    ph_attempted = !attempted;
    ph_succeeded = !succeeded;
    ph_written_off = !written_off;
    ph_hedged = Array.fold_left (fun acc s -> acc + Suite.hedged_count s) 0 suites;
    ph_overload_rejects = sum (fun c -> c.Repdir_rep.Rep.overload_rejects);
    ph_shed_rejects = sum (fun c -> c.Repdir_rep.Rep.shed_rejects);
  }

let overload ?(out = "BENCH_pr8.json") () =
  section "Overload and gray failure: goodput and tail latency (virtual time)";
  let steady = overload_phase ~clients:4 ~gray:false () in
  let doubled = overload_phase ~clients:8 ~gray:false () in
  let gray = overload_phase ~clients:4 ~gray:true () in
  let goodput_ratio = doubled.ph_goodput /. steady.ph_goodput in
  let p99_ratio = gray.ph_p99 /. steady.ph_p99 in
  let line tag p =
    Printf.printf
      "%-12s goodput %6.2f ops/100u  p50 %5.2f p90 %5.2f p99 %6.2f u  (ok %d/%d, written \
       off %d, hedged %d, overload rejects %d, shed %d)\n"
      tag p.ph_goodput p.ph_p50 p.ph_p90 p.ph_p99 p.ph_succeeded p.ph_attempted
      p.ph_written_off p.ph_hedged p.ph_overload_rejects p.ph_shed_rejects
  in
  line "steady:" steady;
  line "2x offered:" doubled;
  line "gray rep0:" gray;
  Printf.printf "goodput under 2x offered: %.0f%% of steady (gate: >= 60%%)\n"
    (100.0 *. goodput_ratio);
  Printf.printf "p99 with one gray rep: %.2fx fault-free (gate: <= 3x)\n%!" p99_ratio;
  (* Benchmark rows for the JSON: per-phase operation latency, virtual time
     units reported as if one unit were a millisecond so the shared schema's
     ns fields stay meaningful; the name says so. *)
  let vrow tag p =
    {
      name = Printf.sprintf "overload/%s op-latency (virtual, 1u=1ms)" tag;
      ns = p.ph_mean *. 1.0e6;
      p50 = p.ph_p50 *. 1.0e6;
      p90 = p.ph_p90 *. 1.0e6;
      p99 = p.ph_p99 *. 1.0e6;
    }
  in
  write_bench_json ~path:out
    ~counters:
      [
        ("overload/steady goodput ops-per-100u", steady.ph_goodput);
        ("overload/2x-offered goodput ops-per-100u", doubled.ph_goodput);
        ("overload/2x-offered-vs-steady pct", 100.0 *. goodput_ratio);
        ("overload/steady p99 latency", steady.ph_p99);
        ("overload/gray-rep p99 latency", gray.ph_p99);
        ("overload/gray-vs-steady p99 ratio", p99_ratio);
        ("overload/gray hedged ops", float_of_int gray.ph_hedged);
        ("overload/2x overload rejects", float_of_int doubled.ph_overload_rejects);
        ("overload/2x shed rejects", float_of_int doubled.ph_shed_rejects);
      ]
    [ vrow "steady" steady; vrow "2x-offered" doubled; vrow "gray-rep0" gray ];
  let failed = ref false in
  if Float.is_nan goodput_ratio || goodput_ratio < 0.6 then begin
    Printf.eprintf "overload bench FAIL: goodput under 2x offered load %.0f%% of steady < 60%%\n%!"
      (100.0 *. goodput_ratio);
    failed := true
  end;
  if Float.is_nan p99_ratio || p99_ratio > 3.0 then begin
    Printf.eprintf "overload bench FAIL: gray-replica p99 %.2fx fault-free > 3x\n%!" p99_ratio;
    failed := true
  end;
  if !failed then exit 1;
  Printf.printf "overload bench OK\n%!"

let arg_value flag argv =
  let n = Array.length argv in
  let rec go i =
    if i >= n - 1 then None else if argv.(i) = flag then Some argv.(i + 1) else go (i + 1)
  in
  go 0

let () =
  let out = arg_value "--out" Sys.argv in
  if Array.exists (( = ) "--smoke") Sys.argv then smoke ?out ()
  else if Array.exists (( = ) "--reconfig") Sys.argv then reconfig ?out ()
  else if Array.exists (( = ) "--overload") Sys.argv then overload ?out ()
  else if Array.exists (( = ) "--cache") Sys.argv then cache_bench ?out ()
  else if Array.exists (( = ) "--shard") Sys.argv then shard_bench ?out ()
  else full ?out ()
