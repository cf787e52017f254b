(* Seeded regression scenarios for the nemesis fault-injection layer: the
   standard campaigns must run to completion with zero sequential-model
   violations, runs must be bit-reproducible from the seed, and asymmetric
   partitions must degrade exactly as the quorum arithmetic predicts. *)

open Repdir_sim
open Repdir_core
open Repdir_harness
module Config = Repdir_quorum.Config

(* Catalogue plans built from their own schedule seed, for three
   representatives. *)
let build ?(duration = 1000.0) ~seed name =
  let e = Nemesis.find name in
  e.build ~seed ~n:3 { e.defaults with duration }

let family f = List.filter (fun e -> String.equal e.Nemesis.family f) Nemesis.catalogue
let sweep = List.filter (fun e -> e.Nemesis.slot <> None) Nemesis.catalogue

(* Campaign runs: each entry under [seed] and its own defaults, edited. *)
let campaign ?(edit = Fun.id) ~seed entries =
  List.map (fun e -> Nemesis.run (edit { e.Nemesis.defaults with seed }) e) entries

(* --- standard campaigns ------------------------------------------------------------ *)

let check_campaign ~seed outcomes =
  Alcotest.(check int)
    (Printf.sprintf "seed %Ld: five plans" seed)
    5 (List.length outcomes);
  List.iter
    (fun o ->
      let label what = Printf.sprintf "seed %Ld, %s: %s" seed o.Nemesis.plan what in
      Alcotest.(check int) (label "zero violations") 0 o.Nemesis.violations;
      Alcotest.(check bool) (label "made progress") true (o.Nemesis.succeeded > 0);
      Alcotest.(check int) (label "full final sweep") 30 o.Nemesis.final_keys_checked;
      (* The termination protocol — not a power cycle — must account for
         every transaction: no lock manager holds residue at quiesce and
         nothing is left in doubt. *)
      Alcotest.(check int) (label "no orphaned locks") 0 o.Nemesis.orphan_locks;
      Alcotest.(check int) (label "no open in-doubt txns") 0 o.Nemesis.indoubt_open)
    outcomes

let test_standard_plans_no_violations () =
  check_campaign ~seed:42L (campaign ~seed:42L (family "standard"))

let test_more_seeds () =
  (* Seeds that historically exposed real holes: lost unforced log suffixes
     slipping past the prepare vote (1, 7) and a mid-transaction restart
     re-executing an op against an amnesiac representative (1983). *)
  let repaired = ref 0 in
  List.iter
    (fun seed ->
      let outcomes = campaign ~seed (family "standard") in
      check_campaign ~seed outcomes;
      List.iter (fun o -> repaired := !repaired + o.Nemesis.wal_records_repaired) outcomes)
    [ 1L; 7L; 1983L ];
  Alcotest.(check bool) "torn-WAL campaigns scrubbed records" true (!repaired > 0)

let test_bit_reproducible () =
  let run () = campaign ~seed:9L ~edit:(fun p -> { p with duration = 600.0 }) (family "standard") in
  let a = run () and b = run () in
  (* Structural equality over the whole outcome record — including the
     simulator event count, which fingerprints the entire execution, and
     the audit's retained history window. *)
  Alcotest.(check bool) "identical outcome records" true (a = b);
  List.iter
    (fun o -> Alcotest.(check int) (o.Nemesis.plan ^ ": no violations") 0 o.Nemesis.violations)
    a

let test_coordinator_crash_resolves_everything () =
  (* Regression seeds for the prepare/decide window: the client (who is the
     coordinator) is repeatedly cut off from every representative for short
     windows, stranding participants mid-protocol — some prepared (in
     doubt), some not (lease-expired). With NO power cycle, every stranded
     transaction must terminate on its own: zero model violations, every
     lock manager drained, nothing left in doubt. *)
  let stranded = ref 0 in
  List.iter
    (fun seed ->
      let o =
        Nemesis.run_plan ~seed (build ~seed "coordinator crash")
      in
      let label what = Printf.sprintf "seed %Ld: %s" seed what in
      Alcotest.(check int) (label "zero violations") 0 o.Nemesis.violations;
      Alcotest.(check bool) (label "made progress") true (o.Nemesis.succeeded > 0);
      Alcotest.(check int) (label "no orphaned locks") 0 o.Nemesis.orphan_locks;
      Alcotest.(check int) (label "no open in-doubt txns") 0 o.Nemesis.indoubt_open;
      stranded :=
        !stranded + o.Nemesis.leases_expired + o.Nemesis.indoubt_by_coordinator
        + o.Nemesis.indoubt_by_peer + o.Nemesis.indoubt_recovered)
    [ 42L; 7L; 1983L ];
  (* The campaign must actually exercise the termination machinery — a run
     that never strands a transaction proves nothing. *)
  Alcotest.(check bool) "campaign stranded transactions" true (!stranded > 0)

let test_plans_are_pure_functions_of_seed () =
  let p1 = build ~duration:500.0 ~seed:13L "crash storm" in
  let p2 = build ~duration:500.0 ~seed:13L "crash storm" in
  let p3 = build ~duration:500.0 ~seed:14L "crash storm" in
  Alcotest.(check bool) "same seed, same plan" true (p1 = p2);
  Alcotest.(check bool) "different seed, different plan" false (p1 = p3)

(* --- asymmetric partition ----------------------------------------------------------- *)

(* A 3-1-3 suite with the client cut off from one representative: every read
   quorum (one representative) is still collectible, but no write quorum
   (all three) is. Reads must keep working, writes must fail cleanly, and
   healing must reveal no split-brain — the failed writes left no trace. *)
let test_asymmetric_partition () =
  let config = Config.simple ~n:3 ~r:1 ~w:3 in
  let world =
    Shard_world.create ~seed:5L ~rpc_timeout:10.0 ~config ~groups:1 ()
  in
  let sim = Shard_world.sim world in
  let net = Shard_world.net world in
  let suite = Shard_world.suite_for_client world 0 0 in
  let client = 3 (* the client node follows the representatives *) in
  let expect_value label expected =
    match Suite.lookup suite "k" with
    | Some (_, v) -> Alcotest.(check string) label expected v
    | None -> Alcotest.fail (label ^ ": entry missing")
  in
  Sim.spawn sim (fun () ->
      (match Suite.insert suite "k" "v0" with
      | Ok () -> ()
      | Error `Already_present -> Alcotest.fail "fresh key already present");
      Net.set_link net client 2 false;
      (* Reads: a single-representative quorum avoids (or excludes after a
         timeout) the unreachable one. *)
      expect_value "read during partition" "v0";
      (match Suite.update suite "k" "v1" with
      | exception Suite.Unavailable _ -> ()
      | Ok () -> Alcotest.fail "write succeeded without a write quorum"
      | Error `Not_present -> Alcotest.fail "entry vanished");
      Net.set_link net client 2 true;
      (* The aborted write left no trace at any representative. *)
      expect_value "no split-brain after heal" "v0";
      (match Suite.update suite "k" "v2" with
      | Ok () -> ()
      | Error `Not_present -> Alcotest.fail "entry vanished after heal"
      | exception Suite.Unavailable msg -> Alcotest.fail ("write after heal: " ^ msg));
      expect_value "write quorum restored" "v2");
  Sim.run sim

(* --- golden campaign outputs -------------------------------------------------------- *)

(* Every campaign is a pure function of its seed, so its rendered outcome
   table — the Events column fingerprints the whole simulator run — and its
   change report are pinned byte for byte. A refactor of the campaign
   driver must leave all of them unchanged. *)

let golden_all_plans_42 =
  {|Plan               Ops  Ok  Unavail  Retries  Dropped  Dup'd  Reordered  WAL repaired  Leases  Unilat  ByCoord  ByPeer  Orphans  InDoubt  Events  Violations  Checked  Ambig  AuditViol
---------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------
crash storm         32  30        2       26       26      0          0             0       0       0        6       0        0        0    3970           0       60      0          0
rolling partition    7   6        1       53       59      0          0             0      11       8        2       0        0        0    2442           0       36      0          0
flaky links         24  24        0       31       21     28         68             0       1       1        0       0        0        0    3569           0       54      0          0
torn-WAL crashes    25  24        1       25       25      0          0             4       0       0        3       0        0        0    4345           0       54      0          0
coordinator crash   24  24        0       47       53      0          0             0       0       0        2       2        0        0    3377           0       54      0          0
clock skew          47  47        0        0        0      0          0             0       1       1        0       0        0        0    5270           0       77      0          0
disk full           17  16        1        7        4      0          0             0       0       0        2       0        0        0    4961           0       46      0          0
slow replica        31  23        8       36        0      0          0             0       1       1        0       0        0        0    3317           0       53      0          0
retry storm         25  14       11       40       42     12          0             0       0       0        8       0        0        0    3300           0       44      0          0
---------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------
total violations     0                                                                                                                                                                 
|}

let golden_cached_clients_42 =
  {|Plan               Ops  Ok  Unavail  Retries  Dropped  Dup'd  Reordered  WAL repaired  Leases  Unilat  ByCoord  ByPeer  Orphans  InDoubt  Events  Violations  Checked  Ambig  AuditViol
---------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------
crash storm         44  29       15       50       79      0          0             0       1       1        4       0        0        0    6730           0       59      0          0
rolling partition   45  42        3       54       54      0          0             0      20      18        2       0        0        0    7191           0       72      0          0
flaky links         48  45        3       45       35     67        169             0       8       8        0       0        0        0    8512           0       75      0          0
torn-WAL crashes    80  75        5       22       51      0          0             5       0       0        5       0        0        0   10432           0      105      0          0
coordinator crash   62  61        1       52       75      0          0             0       2       1        4       1        0        0    9028           0       91      0          0
clock skew         101  98        3        8        0      0          0             0       3       3        0       0        0        0   12006           0      128      0          0
disk full           44  32       12       27       18      0          0             0       2       1        2       0        0        0    9831           0       62      0          0
slow replica        74  57       17       36        0      0          0             0      13      13        0       0        0        0    7982           0       87      0          0
retry storm        101  48       53       43      124     59          0             0       0       0       25       0        0        0    7332           0       78      0          0
---------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------
total violations     0                                                                                                                                                                 
crash storm: hits=10 misses=81 mismatches=2 stores=50 invalidations=1 flushes=0 evictions=0
rolling partition: hits=16 misses=69 mismatches=1 stores=62 invalidations=5 flushes=0 evictions=0
flaky links: hits=40 misses=67 mismatches=4 stores=69 invalidations=11 flushes=0 evictions=0
torn-WAL crashes: hits=41 misses=66 mismatches=10 stores=75 invalidations=5 flushes=0 evictions=0
coordinator crash: hits=33 misses=64 mismatches=11 stores=89 invalidations=18 flushes=0 evictions=0
clock skew: hits=56 misses=63 mismatches=20 stores=119 invalidations=21 flushes=0 evictions=0
disk full: hits=28 misses=102 mismatches=0 stores=49 invalidations=3 flushes=0 evictions=0
slow replica: hits=26 misses=66 mismatches=7 stores=66 invalidations=7 flushes=0 evictions=0
retry storm: hits=11 misses=85 mismatches=4 stores=60 invalidations=3 flushes=0 evictions=0
|}

let golden_rolling_partition_1983 =
  {|Plan               Ops  Ok  Unavail  Retries  Dropped  Dup'd  Reordered  WAL repaired  Leases  Unilat  ByCoord  ByPeer  Orphans  InDoubt  Events  Violations  Checked  Ambig  AuditViol
---------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------
rolling partition   21  20        1       31       33      0          0             0      13      12        0       1        0        0    5009           0       50      0          0
---------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------
total violations     0                                                                                                                                                                 
|}

let golden_reconfig_1983 =
  {|Plan              Ops  Ok  Unavail  Retries  Dropped  Dup'd  Reordered  WAL repaired  Leases  Unilat  ByCoord  ByPeer  Orphans  InDoubt  Events  Violations  Checked  Ambig  AuditViol
--------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------
reconfig           64  60        4       39       18      0          0             0       7       7        0       0        0        0   13087           0       84      0          0
--------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------
total violations    0                                                                                                                                                                 
join started t=80.0, completed t=646.6; retire completed t=1432.9; digest gate passed (2 converge, 2 drain sessions); final epoch 4; throughput 7 ops/80u steady, 16 ops/567u during join
|}

let golden_reconfig_42 =
  {|Plan              Ops  Ok  Unavail  Retries  Dropped  Dup'd  Reordered  WAL repaired  Leases  Unilat  ByCoord  ByPeer  Orphans  InDoubt  Events  Violations  Checked  Ambig  AuditViol
--------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------
reconfig           72  68        4       30       11      0          0             0       1       1        0       0        0        0   13255           0       92      0          0
--------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------
total violations    0                                                                                                                                                                 
join started t=80.0, completed t=528.3; retire completed t=1098.0; digest gate passed (2 converge, 1 drain sessions); final epoch 4; throughput 3 ops/80u steady, 16 ops/448u during join
|}

let golden_shard_1983 =
  {|Plan              Ops   Ok  Unavail  Retries  Dropped  Dup'd  Reordered  WAL repaired  Leases  Unilat  ByCoord  ByPeer  Orphans  InDoubt  Events  Violations  Checked  Ambig  AuditViol
---------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------
sharded split     118  115        3       16       15      0          0             0       0       0        1       0        0        0   11565           0      156      0          0
---------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------
total violations    0                                                                                                                                                                  
split started t=80.0, flipped t=224.2; slice digest gate passed (1 rounds, 10 catch-up sessions); final shard epoch 2 (agreed across 2 groups / 2 shards); throughput 6 ops/80u steady, 8 ops/144u during split
|}

let golden_shard_42 =
  {|Plan              Ops  Ok  Unavail  Retries  Dropped  Dup'd  Reordered  WAL repaired  Leases  Unilat  ByCoord  ByPeer  Orphans  InDoubt  Events  Violations  Checked  Ambig  AuditViol
--------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------
sharded split     101  95        6       18       13      0          0             0       0       0        0       0        0        0   11538           0      129      0          0
--------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------
total violations    0                                                                                                                                                                 
split started t=80.0, flipped t=302.6; slice digest gate passed (1 rounds, 10 catch-up sessions); final shard epoch 2 (agreed across 2 groups / 2 shards); throughput 5 ops/80u steady, 9 ops/223u during split
|}

let golden_shard_4_groups_42 =
  {|Plan              Ops  Ok  Unavail  Retries  Dropped  Dup'd  Reordered  WAL repaired  Leases  Unilat  ByCoord  ByPeer  Orphans  InDoubt  Events  Violations  Checked  Ambig  AuditViol
--------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------
sharded split      44  43        1        3        3      0          0             0       0       0        0       0        0        0    5498           0       79      0          0
--------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------
total violations    0                                                                                                                                                                 
split started t=80.0, flipped t=252.5; slice digest gate passed (1 rounds, 10 catch-up sessions); final shard epoch 2 (agreed across 4 groups / 4 shards); throughput 4 ops/80u steady, 4 ops/173u during split
|}

let table outcomes = Repdir_util.Table.render (Nemesis.table_of_outcomes outcomes)

let cache_lines outcomes =
  String.concat ""
    (List.filter_map
       (fun o ->
         Option.map
           (fun c -> Format.asprintf "%s: %a\n" o.Nemesis.plan Repdir_cache.Cache.pp_counters c)
           o.Nemesis.cache_stats)
       outcomes)

(* A campaign with admin changes: the outcome table plus the change report. *)
let with_report o =
  match o.Nemesis.change with
  | Some r -> table [ o ] ^ Format.asprintf "%a\n" Nemesis.pp_report r
  | None -> Alcotest.fail "no change report"

let reconfig seed = with_report (List.hd (campaign ~seed [ Nemesis.find "reconfig" ]))

let shard ~seed ~groups ~clients ~duration ~keys =
  let edit p = { p with Nemesis.groups = Some groups; clients; duration; key_space = keys } in
  with_report (List.hd (campaign ~seed ~edit [ Nemesis.find "sharded split" ]))

(* [repdir campaign "rolling partition" --clients 3 --duration 600]: the
   plan's slot in the sweep fixes its world seed, so it replays the sweep's
   run of it. *)
let rolling_partition () =
  let edit p = { p with Nemesis.clients = 3; duration = 600.0 } in
  table (campaign ~seed:1983L ~edit [ Nemesis.find "rolling partition" ])

let golden_cases =
  [
    ("all nine plans, seed 42", (fun () -> table (campaign ~seed:42L sweep)), golden_all_plans_42);
    ( "3 cached clients, seed 42",
      (fun () ->
        let edit p = { p with Nemesis.clients = 3; cache = Some true } in
        let os = campaign ~seed:42L ~edit sweep in
        table os ^ cache_lines os),
      golden_cached_clients_42 );
    ("rolling partition, 3 clients", rolling_partition, golden_rolling_partition_1983);
    ("reconfig, seed 1983", (fun () -> reconfig 1983L), golden_reconfig_1983);
    ("reconfig, seed 42", (fun () -> reconfig 42L), golden_reconfig_42);
    ( "shard, seed 1983",
      (fun () -> shard ~seed:1983L ~groups:2 ~clients:2 ~duration:1500.0 ~keys:24),
      golden_shard_1983 );
    ( "shard, seed 42",
      (fun () -> shard ~seed:42L ~groups:2 ~clients:2 ~duration:1500.0 ~keys:24),
      golden_shard_42 );
    ( "shard, 4 groups, 1 client",
      (fun () -> shard ~seed:42L ~groups:4 ~clients:1 ~duration:1000.0 ~keys:30),
      golden_shard_4_groups_42 );
  ]

(* --- plan validation ---------------------------------------------------------- *)

let raises_invalid what f =
  Alcotest.(check bool) what true
    (match f () with _ -> false | exception Invalid_argument _ -> true)

let test_steps_name_the_world () =
  (* The crash timeline downs rep1, which a one-representative suite lacks:
     refused before the run, naming the step. *)
  let one = Config.simple ~n:1 ~r:1 ~w:1 in
  let timeline = build ~duration:500.0 ~seed:0L "crash timeline" in
  (match Nemesis.run_plan ~config:one timeline with
  | _ -> Alcotest.fail "a step outside the world ran"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) ("names the step: " ^ msg) true
        (String.starts_with ~prefix:"Nemesis.run_plan: step \"crash rep1\" at t=200.0" msg));
  let plan at action =
    { timeline with steps = [ { Nemesis.at; action } ] }
  in
  raises_invalid "partition beyond the last node" (fun () ->
      Nemesis.run_plan (plan 10.0 (Nemesis.Partition ([ 0 ], [ 9 ]))));
  raises_invalid "even past the duration" (fun () ->
      Nemesis.run_plan (plan 900.0 (Nemesis.Slow (-1, 4.0))))

let test_anti_entropy_needs_one_group () =
  let e = Nemesis.find "sharded split" in
  let plan = Nemesis.plan_of { e.defaults with seed = 1L; clients = 1; duration = 400.0 } e in
  raises_invalid "anti-entropy on a sharded world" (fun () ->
      Nemesis.run_plan ~key_space:24
        { plan with steps = [ { Nemesis.at = 0.0; action = Nemesis.Anti_entropy 30.0 } ] })

let golden_tests =
  List.map
    (fun (name, run, expected) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) name expected (run ())))
    golden_cases

(* Every catalogue entry's schedule at its defaults, campaign seeds 1983 and
   42: the time and [pp_action] of each step, one per line. The expected
   text is [nemesis_schedules.golden] (see the dune file); the first line
   that differs fails. *)
let schedules () =
  List.concat_map
    (fun seed ->
      List.concat_map
        (fun (e : Nemesis.entry) ->
          let plan = Nemesis.plan_of { e.defaults with seed } e in
          Printf.sprintf "%s, seed %Ld" e.name seed
          :: List.map
               (fun (s : Nemesis.step) ->
                 Format.asprintf "  %.17g %a" s.at Nemesis.pp_action s.action)
               plan.steps)
        Nemesis.catalogue)
    [ 1983L; 42L ]

let test_schedule_golden () =
  let expected =
    String.split_on_char '\n' Nemesis_schedules.text |> List.filter (( <> ) "")
  in
  let rec first_diff i = function
    | e :: es, g :: gs -> if String.equal e g then first_diff (i + 1) (es, gs) else Some (i, e, g)
    | [], [] -> None
    | e :: _, [] -> Some (i, e, "<end>")
    | [], g :: _ -> Some (i, "<end>", g)
  in
  match first_diff 1 (expected, schedules ()) with
  | None -> ()
  | Some (line, e, g) -> Alcotest.failf "schedule line %d: expected %S, got %S" line e g

(* --- bounded representative state ------------------------------------------------ *)

let test_crash_plan_checkpoints () =
  (* Representatives checkpoint themselves whenever a transaction leaves a
     quiescent one, so under the crash plan the log never holds more than
     the live map, the checkpoint floor and the unforced tail. *)
  let o = Nemesis.run_plan ~seed:42L (build ~seed:42L "crash storm") in
  Alcotest.(check int) "zero violations" 0 o.Nemesis.violations;
  Alcotest.(check bool)
    (Printf.sprintf "automatic checkpoints fired (%d)" o.Nemesis.checkpoints)
    true (o.Nemesis.checkpoints > 0);
  Alcotest.(check bool)
    (Printf.sprintf "log within live entries + floor + unforced tail (%d over)"
       o.Nemesis.wal_over_live)
    true
    (o.Nemesis.wal_over_live <= Repdir_rep.Rep.checkpoint_floor)

(* --- the catalogue ---------------------------------------------------------------- *)

let test_catalogue () =
  let names = List.map (fun e -> e.Nemesis.name) Nemesis.catalogue in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  let robust =
    List.filter_map
      (fun e ->
        let plan = Nemesis.plan_of e.Nemesis.defaults e in
        Alcotest.(check string) "builds a plan of its name" e.name plan.Nemesis.plan_name;
        if plan.robust then Some e.name else None)
      Nemesis.catalogue
  in
  Alcotest.(check (list string)) "robust exactly where meant" [ "slow replica"; "retry storm" ]
    robust;
  Alcotest.(check int) "nine plans in the sweep" 9 (List.length sweep)

(* Running one plan replays exactly what the sweep runs for it: the same
   schedule seed and world seed, so the same outcome record. *)
let test_single_plan_replays_sweep () =
  let edit p = { p with Nemesis.duration = 300.0 } in
  List.iter2
    (fun e o ->
      Alcotest.(check bool) (e.Nemesis.name ^ ": same outcome") true
        (List.hd (campaign ~seed:5L ~edit [ e ]) = o))
    sweep
    (campaign ~seed:5L ~edit sweep)

(* The reproduce line records every parameter the run took: a failing
   cached campaign must replay cached. *)
let test_reproduce_line () =
  let edit p = { p with Nemesis.clients = 3; cache = Some true; duration = 200.0 } in
  let o = List.hd (campaign ~seed:42L ~edit [ Nemesis.find "crash storm" ]) in
  Alcotest.(check string) "every run parameter"
    "campaign \"crash storm\" --seed 42 --duration 200 --keys 30 --clients 3 --cache -n 3 -r 2 -w 2"
    (Nemesis.reproduce o)

let () =
  Alcotest.run "nemesis"
    [
      ( "campaigns",
        [
          Alcotest.test_case "standard plans, zero violations" `Quick
            test_standard_plans_no_violations;
          Alcotest.test_case "regression seeds" `Quick test_more_seeds;
          Alcotest.test_case "bit-reproducible" `Quick test_bit_reproducible;
          Alcotest.test_case "coordinator crash resolves everything" `Quick
            test_coordinator_crash_resolves_everything;
          Alcotest.test_case "plans are pure functions of seed" `Quick
            test_plans_are_pure_functions_of_seed;
          Alcotest.test_case "catalogue" `Quick test_catalogue;
          Alcotest.test_case "reproduce line" `Quick test_reproduce_line;
          Alcotest.test_case "single plan replays the sweep" `Quick
            test_single_plan_replays_sweep;
        ] );
      ( "partitions",
        [ Alcotest.test_case "asymmetric client partition" `Quick test_asymmetric_partition ] );
      ( "bounded",
        [ Alcotest.test_case "crash plan checkpoints" `Quick test_crash_plan_checkpoints ] );
      ( "validation",
        [
          Alcotest.test_case "steps name the world" `Quick test_steps_name_the_world;
          Alcotest.test_case "anti-entropy needs one group" `Quick
            test_anti_entropy_needs_one_group;
        ] );
      ("golden", golden_tests);
      ("schedules", [ Alcotest.test_case "catalogue schedules" `Quick test_schedule_golden ]);
    ]
