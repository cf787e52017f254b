(* Tests for the experiment harness: the §4 statistics land in the paper's
   reported windows, the quorum-stability and concurrency claims hold with
   the expected direction and rough magnitude, locality is exact, the fault
   timeline is consistent, and the simulated world's transport behaves. *)

open Repdir_util
open Repdir_quorum
open Repdir_harness

let cfg_322 = Config.simple ~n:3 ~r:2 ~w:2

(* --- Experiment: Figure 15's quantitative targets ------------------------------------ *)

let run_322 ?(seed = 2024L) ~entries ~ops () =
  Experiment.run ~seed ~config:cfg_322 ~n_entries:entries ~ops ()

let within name lo hi x =
  if x < lo || x > hi then Alcotest.failf "%s = %.3f outside [%g, %g]" name x lo hi

let test_figure15_100_entries () =
  (* Paper (Figure 15, 100 entries): 1.33 / 0.88 / 0.44. Allow generous
     windows for seed variation at 20k ops. *)
  let o = run_322 ~entries:100 ~ops:20_000 () in
  within "entries in ranges coalesced" 1.25 1.45 (Stats.mean o.stats.entries_coalesced);
  within "deletions while coalescing" 0.75 1.00 (Stats.mean o.stats.deletions_while_coalescing);
  within "insertions while coalescing" 0.38 0.52
    (Stats.mean o.stats.insertions_while_coalescing);
  (* Insertions per delete can never exceed 2 (one predecessor, one
     successor, each into at most... W-1 members lack them — but the paper
     observed max exactly 2 for 3-2-2, where at most one member can lack
     each). *)
  Alcotest.(check bool) "max insertions bounded" true
    (Stats.max o.stats.insertions_while_coalescing <= 2.0)

let test_figure15_deterministic_given_seed () =
  let a = run_322 ~seed:7L ~entries:100 ~ops:2_000 () in
  let b = run_322 ~seed:7L ~entries:100 ~ops:2_000 () in
  Alcotest.(check (float 0.0)) "same seed same stats"
    (Stats.mean a.stats.entries_coalesced)
    (Stats.mean b.stats.entries_coalesced);
  let c = run_322 ~seed:8L ~entries:100 ~ops:2_000 () in
  Alcotest.(check bool) "different seed differs" true
    (Stats.mean a.stats.entries_coalesced <> Stats.mean c.stats.entries_coalesced)

let test_single_rep_has_no_overhead () =
  (* 1-1-1: every entry lives everywhere; no ghosts, no repairs; every
     coalesce removes exactly the deleted entry. *)
  let o = Experiment.run ~config:(Config.simple ~n:1 ~r:1 ~w:1) ~n_entries:100 ~ops:5_000 () in
  Alcotest.(check (float 1e-9)) "entries = 1 exactly" 1.0
    (Stats.mean o.stats.entries_coalesced);
  Alcotest.(check (float 1e-9)) "no ghosts" 0.0
    (Stats.mean o.stats.deletions_while_coalescing);
  Alcotest.(check (float 1e-9)) "no repairs" 0.0
    (Stats.mean o.stats.insertions_while_coalescing)

let test_write_all_has_no_overhead () =
  (* Read-one/write-all (3-1-3): entries exist on every representative, so
     deletes never find ghosts nor need repairs — the unanimous-update
     comparison §4 makes. *)
  let o = Experiment.run ~config:(Config.simple ~n:3 ~r:1 ~w:3) ~n_entries:100 ~ops:5_000 () in
  Alcotest.(check (float 1e-9)) "no ghosts" 0.0
    (Stats.mean o.stats.deletions_while_coalescing);
  Alcotest.(check (float 1e-9)) "no repairs" 0.0
    (Stats.mean o.stats.insertions_while_coalescing)

let test_experiment_counts () =
  let o = run_322 ~entries:50 ~ops:3_000 () in
  Alcotest.(check int) "ops recorded" 3_000 o.ops;
  Alcotest.(check bool) "deletes counted" true (o.deletes > 0);
  Alcotest.(check int) "one sample per delete"
    o.deletes
    (Stats.count o.stats.deletions_while_coalescing);
  Alcotest.(check int) "W samples per delete"
    (2 * o.deletes)
    (Stats.count o.stats.entries_coalesced);
  Alcotest.(check bool) "size stays near target" true (abs (o.final_size - 50) <= 1)

(* --- quorum stability (§5) -------------------------------------------------------------- *)

let test_stable_quorums_make_coalescing_free () =
  let random = Experiment.run ~config:cfg_322 ~n_entries:100 ~ops:5_000 () in
  let stable =
    Experiment.run ~picker:(Picker.Fixed [| 0; 1; 2 |]) ~config:cfg_322 ~n_entries:100
      ~ops:5_000 ()
  in
  Alcotest.(check (float 1e-9)) "stable: no ghosts" 0.0
    (Stats.mean stable.stats.deletions_while_coalescing);
  Alcotest.(check (float 1e-9)) "stable: no repairs" 0.0
    (Stats.mean stable.stats.insertions_while_coalescing);
  Alcotest.(check bool) "random pays ghosts" true
    (Stats.mean random.stats.deletions_while_coalescing > 0.5)

(* --- concurrency (§2) ---------------------------------------------------------------------- *)

let test_concurrency_gap_beats_single_version () =
  let gap =
    Concurrency.run ~duration:400.0 ~scheme:Concurrency.Gap ~clients:4 ~config:cfg_322 ()
  in
  let single =
    Concurrency.run ~duration:400.0 ~scheme:Concurrency.Single_version ~clients:4
      ~config:cfg_322 ()
  in
  Alcotest.(check bool) "gap commits at least 3x more" true
    (gap.Concurrency.committed >= 3 * max 1 single.Concurrency.committed);
  Alcotest.(check bool) "single version thrashes on conflicts" true
    (single.Concurrency.deadlock_aborts + single.Concurrency.lock_waits
    > gap.Concurrency.deadlock_aborts + gap.Concurrency.lock_waits)

let test_concurrency_skew_hurts () =
  (* §2: uneven access distributions limit concurrency even with fine-
     grained ranges — hot keys conflict. *)
  let uniform =
    Concurrency.run ~duration:400.0 ~scheme:Concurrency.Gap ~clients:8 ~config:cfg_322 ()
  in
  let skewed =
    Concurrency.run ~duration:400.0 ~zipf_s:1.5 ~scheme:Concurrency.Gap ~clients:8
      ~config:cfg_322 ()
  in
  Alcotest.(check bool) "skew lowers throughput" true
    (skewed.Concurrency.committed < uniform.Concurrency.committed);
  Alcotest.(check bool) "skew raises conflicts" true
    (skewed.Concurrency.deadlock_aborts + skewed.Concurrency.lock_waits
    > uniform.Concurrency.deadlock_aborts + uniform.Concurrency.lock_waits)

let test_concurrency_gap_scales () =
  let one = Concurrency.run ~duration:400.0 ~scheme:Concurrency.Gap ~clients:1 ~config:cfg_322 () in
  let four =
    Concurrency.run ~duration:400.0 ~scheme:Concurrency.Gap ~clients:4 ~config:cfg_322 ()
  in
  Alcotest.(check bool) "4 clients commit >2x of 1 client" true
    (four.Concurrency.committed > 2 * one.Concurrency.committed)

(* --- locality (Figure 16) --------------------------------------------------------------------- *)

let test_locality_inquiries_fully_local () =
  let o = Locality.run ~ops:2_000 () in
  Alcotest.(check (float 1e-9)) "A local" 1.0 o.Locality.a_reads_local_fraction;
  Alcotest.(check (float 1e-9)) "B local" 1.0 o.Locality.b_reads_local_fraction

let test_locality_remote_writes_balanced () =
  let o = Locality.run ~ops:4_000 () in
  let row i = List.nth o.Locality.rows i in
  (* A's writes on the remote pair (B1, B2) differ by < 25%. *)
  let b1 = (row 2).Locality.writes_from_a and b2 = (row 3).Locality.writes_from_a in
  Alcotest.(check bool) "balanced" true
    (abs (b1 - b2) * 4 < max 1 (b1 + b2));
  Alcotest.(check bool) "remote writes happen" true (b1 + b2 > 0)

(* --- faults -------------------------------------------------------------------------------------- *)

(* The crash timeline's five windows: all up, rep0 down, rep0 and rep1 down,
   rep1 back (stale), all back. An op counts in the window it ended in. *)
let timeline ~config =
  let o =
    let e = Nemesis.find "crash timeline" in
    Nemesis.run_plan ~seed:33L ~config (e.build ~seed:33L ~n:3 e.defaults)
  in
  Alcotest.(check int) "no consistency violations" 0 (Nemesis.total_violations o);
  Alcotest.(check int) "five windows" 5 (List.length o.Nemesis.windows);
  List.map (fun (w : Nemesis.window) -> (w.up_reps, w.ok_ops, w.unavailable_ops)) o.Nemesis.windows

let test_fault_timeline () =
  let served what (up, ok, unavailable) expected_up =
    Alcotest.(check int) (what ^ ": up reps") expected_up up;
    Alcotest.(check bool) (what ^ ": ops succeed") true (ok > 0);
    Alcotest.(check int) (what ^ ": everything succeeds") 0 unavailable
  in
  match timeline ~config:cfg_322 with
  | [ all_up; one_down; two_down; stale; recovered ] ->
      served "all up" all_up 3;
      served "one down" one_down 2;
      let up, ok, unavailable = two_down in
      Alcotest.(check int) "two down: up reps" 1 up;
      Alcotest.(check int) "two down: nothing succeeds" 0 ok;
      Alcotest.(check bool) "two down: ops refused" true (unavailable > 0);
      served "stale recovery" stale 2;
      served "full recovery" recovered 3
  | _ -> assert false

let test_fault_timeline_533 () =
  (* The README's `campaign "crash timeline" -n 5 -r 3 -w 3`: two crashes
     still leave a read and a write quorum, so no window refuses service. *)
  List.iteri
    (fun i (_, ok, unavailable) ->
      Alcotest.(check bool) (Printf.sprintf "window %d: ops succeed" i) true (ok > 0);
      Alcotest.(check int) (Printf.sprintf "window %d: none unavailable" i) 0 unavailable)
    (timeline ~config:(Repdir_quorum.Config.simple ~n:5 ~r:3 ~w:3))

(* --- sim world transport ---------------------------------------------------------------------------- *)

let test_sim_world_lookup_roundtrip () =
  let open Repdir_sim in
  let world = Shard_world.create ~config:cfg_322 ~groups:1 () in
  let sim = Shard_world.sim world in
  let suite = Shard_world.suite_for_client world 0 0 in
  let got = ref None in
  Sim.spawn sim (fun () ->
      ignore (Repdir_core.Suite.insert suite "k" "v");
      got := Repdir_core.Suite.lookup suite "k");
  Sim.run sim;
  match !got with
  | Some (_, v) -> Alcotest.(check string) "value over RPC" "v" v
  | None -> Alcotest.fail "lookup lost"

let test_sim_world_crash_mid_run_recovers () =
  let open Repdir_sim in
  let world =
    Shard_world.create ~rpc_timeout:25.0 ~config:cfg_322 ~groups:1 ()
  in
  let sim = Shard_world.sim world in
  let suite = Shard_world.suite_for_client world 0 0 in
  let ok = ref true in
  Sim.spawn sim (fun () ->
      ignore (Repdir_core.Suite.insert suite "k" "v1");
      Shard_world.crash_rep world ~g:0 0;
      (match Repdir_core.Suite.update suite "k" "v2" with
      | Ok () -> ()
      | Error `Not_present -> ok := false);
      Shard_world.recover_rep world ~g:0 0;
      match Repdir_core.Suite.lookup suite "k" with
      | Some (_, "v2") -> ()
      | _ -> ok := false);
  Sim.run sim;
  Alcotest.(check bool) "consistent across crash/recovery" true !ok

let test_sim_world_partition_blocks_then_heals () =
  let open Repdir_sim in
  let world =
    Shard_world.create ~rpc_timeout:10.0 ~config:cfg_322 ~groups:1 ()
  in
  let sim = Shard_world.sim world in
  let net = Shard_world.net world in
  let suite = Shard_world.suite_for_client world 0 0 in
  let phases = ref [] in
  Sim.spawn sim (fun () ->
      ignore (Repdir_core.Suite.insert suite "k" "v");
      (* Cut the client (node 3) off from reps 1 and 2: only rep0 reachable,
         no quorum. The picker still believes they are up (they are), so
         calls time out and the operation ends Unavailable. *)
      Net.partition net [ 3 ] [ 1; 2 ];
      (match Repdir_core.Suite.lookup suite "k" with
      | exception Repdir_core.Suite.Unavailable _ -> phases := "blocked" :: !phases
      | _ -> phases := "wrong" :: !phases);
      Net.heal_partition net;
      match Repdir_core.Suite.lookup suite "k" with
      | Some _ -> phases := "healed" :: !phases
      | None -> phases := "wrong" :: !phases);
  Sim.run sim;
  Alcotest.(check (list string)) "partition then heal" [ "healed"; "blocked" ] !phases

(* --- §4 reproductions pinned byte for byte ------------------------------------------------------------ *)

(* The rendered tables at seed 1983, with fewer operations and sizes than
   the paper's defaults so they stay quick. Between them they run the
   unbatched suite (Figures 14 and 15, the space comparison), unbatched
   and batched traffic (the messages table), and the depth > 1
   neighbour-chain walk (the batching table). Any change to which calls a
   suite makes, or in what order it draws quorums, shows up here. *)

let golden_figure14 =
  {|Configuration  Entries in ranges coalesced  Deletions while coalescing  Insertions while coalescing
---------------------------------------------------------------------------------------------------
1-1-1                                 1.00                        0.00                         0.00
2-1-2                                 1.00                        0.00                         0.00
2-2-2                                 1.00                        0.00                         0.00
3-1-3                                 1.00                        0.00                         0.00
3-2-2                                 1.12                        0.52                         0.61
3-3-2                                 1.12                        0.55                         0.60
4-1-4                                 1.00                        0.00                         0.00
4-2-3                                 1.12                        0.62                         0.67
4-4-3                                 1.09                        0.59                         0.63
5-1-5                                 1.00                        0.00                         0.00
5-3-3                                 1.14                        0.97                         1.12
5-5-3                                 1.12                        0.92                         1.06
|}

let golden_figure15 =
  {|Statistic                    Entries   Avg  Max  Std Dev
--------------------------------------------------------
Entries in ranges coalesced      100  1.24    6     0.77
Entries in ranges coalesced      300  1.07    5     0.68
--------------------------------------------------------
Deletions while coalescing       100  0.71    5     0.92
Deletions while coalescing       300  0.49    4     0.76
--------------------------------------------------------
Insertions while coalescing      100  0.53    2     0.66
Insertions while coalescing      300  0.60    2     0.67
--------------------------------------------------------
|}

let golden_messages =
  {|Configuration                  Metric  Lookup  Insert  Update  Delete
---------------------------------------------------------------------
1-1-1                        calls/op    1.00    2.00    2.00    8.95
1-1-1                   msgs/op (2pc)    3.00    4.00    4.00   10.95
1-1-1          msgs/op (2pc, batched)    1.00    1.00    1.00    2.00
---------------------------------------------------------------------
2-1-2                        calls/op    1.00    3.00    3.00   12.89
2-1-2                   msgs/op (2pc)    3.00    7.00    7.00   16.89
2-1-2          msgs/op (2pc, batched)    1.00    2.00    2.00    3.00
---------------------------------------------------------------------
2-2-2                        calls/op    2.00    4.00    4.00   17.89
2-2-2                   msgs/op (2pc)    6.00    8.00    8.00   21.89
2-2-2          msgs/op (2pc, batched)    2.00    2.00    2.00    4.00
---------------------------------------------------------------------
3-1-3                        calls/op    1.00    4.00    4.00   16.84
3-1-3                   msgs/op (2pc)    3.00   10.00   10.00   22.84
3-1-3          msgs/op (2pc, batched)    1.00    3.00    3.00    4.00
---------------------------------------------------------------------
3-2-2                        calls/op    2.00    4.00    4.00   19.76
3-2-2                   msgs/op (2pc)    6.00    9.23    9.41   25.76
3-2-2          msgs/op (2pc, batched)    2.00    2.00    3.13    4.28
---------------------------------------------------------------------
3-3-2                        calls/op    3.00    5.00    5.00   25.92
3-3-2                   msgs/op (2pc)    9.00   11.00   11.00   31.92
3-3-2          msgs/op (2pc, batched)    3.00    3.00    3.00    6.47
---------------------------------------------------------------------
4-1-4                        calls/op    1.00    5.00    5.00   20.79
4-1-4                   msgs/op (2pc)    3.00   13.00   13.00   28.79
4-1-4          msgs/op (2pc, batched)    1.00    4.00    4.00    5.00
---------------------------------------------------------------------
4-2-3                        calls/op    2.00    5.00    5.00   23.50
4-2-3                   msgs/op (2pc)    6.00   12.09   11.88   31.42
4-2-3          msgs/op (2pc, batched)    2.00    3.00    5.07    5.22
---------------------------------------------------------------------
4-4-3                        calls/op    4.00    7.00    7.00   35.86
4-4-3                   msgs/op (2pc)   12.00   15.00   15.00   43.86
4-4-3          msgs/op (2pc, batched)    4.00    4.00    4.00    8.49
---------------------------------------------------------------------
5-1-5                        calls/op    1.00    6.00    6.00   24.74
5-1-5                   msgs/op (2pc)    3.00   16.00   16.00   34.74
5-1-5          msgs/op (2pc, batched)    1.00    5.00    5.00    6.00
---------------------------------------------------------------------
5-3-3                        calls/op    3.00    6.00    6.00   30.33
5-3-3                   msgs/op (2pc)    9.00   14.13   14.41   40.28
5-3-3          msgs/op (2pc, batched)    3.00    3.00    5.67    6.38
---------------------------------------------------------------------
5-5-3                        calls/op    5.00    8.00    8.00   43.67
5-5-3                   msgs/op (2pc)   15.00   18.00   18.00   53.67
5-5-3          msgs/op (2pc, batched)    5.00    5.00    5.00   11.03
---------------------------------------------------------------------
|}

let golden_batching =
  {|Configuration  Batch depth  Calls per delete
--------------------------------------------
3-2-2                    1             20.47
3-2-2                    3             19.53
3-2-2                    5             19.52
--------------------------------------------
5-3-3                    1             32.68
5-3-3                    3             30.40
5-3-3                    5             30.37
--------------------------------------------
|}

let golden_space =
  {|Strategy                       Live entries  Physical entries (max replica)  Entries shipped per modification
-------------------------------------------------------------------------------------------------------------
gap-versioned (this paper)               99                             114                              1.62
tombstones (never reclaimed)             99                             271                              2.00
file voting (whole directory)            99                              99                            185.01
static partitions (8)                    99                              99                             24.73
unanimous update                         99                              99                              3.00
|}

let seed = 1983L

let check_table name expected table =
  Alcotest.(check string) name expected (Table.render table)

let test_golden_figure14 () =
  check_table "figure 14" golden_figure14 (Figures.figure14 ~seed ~ops:600 ())

let test_golden_figure15 () =
  check_table "figure 15" golden_figure15
    (Figures.figure15 ~seed ~ops:1_500 ~sizes:[ 100; 300 ] ())

let test_golden_messages () =
  check_table "messages" golden_messages (Figures.messages ~seed ~ops:300 ())

(* Batching's claim in numbers: at 3-2-2, one message per member per round
   with the prepare piggybacked at least halves the true wire messages per
   insert and per delete (4.67x and 5.85x here). *)
let test_batching_halves_messages () =
  let per batching =
    let o =
      Experiment.run ~seed ~batching ~mix:(0.25, 0.25) ~config:cfg_322 ~n_entries:100 ~ops:2_000 ()
    in
    fun kind ->
      let t = List.assoc kind o.Experiment.traffic in
      float_of_int t.Experiment.msgs /. float_of_int t.Experiment.count
  in
  let unbatched = per false and batched = per true in
  List.iter
    (fun kind ->
      let cut = unbatched kind /. batched kind in
      if cut < 2.0 then Alcotest.failf "%s msgs/op cut %.2fx < 2x" kind cut)
    [ "insert"; "delete" ]

let test_golden_batching () =
  check_table "batching" golden_batching
    (Figures.batching ~seed ~ops:600 ())

let test_golden_space () =
  check_table "space and traffic" golden_space (Figures.space_and_traffic ~seed ~ops:600 ())

let () =
  Alcotest.run "harness"
    [
      ( "figure15",
        [
          Alcotest.test_case "paper windows at 100 entries" `Slow test_figure15_100_entries;
          Alcotest.test_case "deterministic" `Quick test_figure15_deterministic_given_seed;
          Alcotest.test_case "1-1-1 zero overhead" `Quick test_single_rep_has_no_overhead;
          Alcotest.test_case "write-all zero overhead" `Quick test_write_all_has_no_overhead;
          Alcotest.test_case "sample counts" `Quick test_experiment_counts;
        ] );
      ( "claims",
        [
          Alcotest.test_case "stable quorums free coalescing (§5)" `Quick
            test_stable_quorums_make_coalescing_free;
          Alcotest.test_case "gap beats single version (§2)" `Slow
            test_concurrency_gap_beats_single_version;
          Alcotest.test_case "gap scheme scales (§2)" `Slow test_concurrency_gap_scales;
          Alcotest.test_case "skew limits concurrency (§2)" `Slow test_concurrency_skew_hurts;
          Alcotest.test_case "locality inquiries local (Fig 16)" `Quick
            test_locality_inquiries_fully_local;
          Alcotest.test_case "locality remote writes balanced" `Quick
            test_locality_remote_writes_balanced;
          Alcotest.test_case "fault timeline" `Quick test_fault_timeline;
          Alcotest.test_case "fault timeline 5-3-3" `Quick test_fault_timeline_533;
        ] );
      ( "golden",
        [
          Alcotest.test_case "figure 14" `Quick test_golden_figure14;
          Alcotest.test_case "figure 15" `Quick test_golden_figure15;
          Alcotest.test_case "messages" `Quick test_golden_messages;
          Alcotest.test_case "batching halves 2pc messages" `Quick
            test_batching_halves_messages;
          Alcotest.test_case "batching" `Quick test_golden_batching;
          Alcotest.test_case "space and traffic" `Quick test_golden_space;
        ] );
      ( "sim-world",
        [
          Alcotest.test_case "rpc roundtrip" `Quick test_sim_world_lookup_roundtrip;
          Alcotest.test_case "crash mid-run" `Quick test_sim_world_crash_mid_run_recovers;
          Alcotest.test_case "partition blocks then heals" `Quick
            test_sim_world_partition_blocks_then_heals;
        ] );
    ]
