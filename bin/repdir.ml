(* Command-line interface to the replicated-directory experiments.

   Every table and figure of the paper's evaluation, plus the ablations
   described in DESIGN.md, can be regenerated from here. *)

open Cmdliner
open Repdir_util
open Repdir_harness

let print_table t = print_string (Table.render t)

(* --- common options ----------------------------------------------------------- *)

let seed_t =
  let doc = "Random seed; equal seeds reproduce runs exactly." in
  Arg.(value & opt int64 1983L & info [ "seed" ] ~docv:"SEED" ~doc)

let ops_t default =
  let doc = "Number of measured operations per simulation." in
  Arg.(value & opt int default & info [ "ops" ] ~docv:"N" ~doc)

let entries_t =
  let doc = "Directory size (entries) the workload oscillates around." in
  Arg.(value & opt int 100 & info [ "entries" ] ~docv:"N" ~doc)

let n_t = Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc:"Representatives.")
let r_t = Arg.(value & opt int 2 & info [ "r" ] ~docv:"R" ~doc:"Read quorum.")
let w_t = Arg.(value & opt int 2 & info [ "w" ] ~docv:"W" ~doc:"Write quorum.")

let duration_t default doc =
  Arg.(value & opt float default & info [ "duration" ] ~docv:"T" ~doc)

let sweep_duration_t = duration_t 2000.0 "Virtual duration."
let plan_duration_t = duration_t 1000.0 "Virtual time each fault plan runs for."
let campaign_duration_t = duration_t 1500.0 "Virtual time the campaign runs for."

let keys_t default =
  Arg.(value & opt int default & info [ "keys" ] ~docv:"N" ~doc:"Size of the key space.")

let workload_clients_t =
  Arg.(value & opt int 2 & info [ "clients" ] ~docv:"N"
         ~doc:"Concurrent workload clients (the admin driver is separate).")

(* --- figure 14 ------------------------------------------------------------------ *)

let figure14_cmd =
  let run seed ops entries =
    print_endline
      (Printf.sprintf
         "Figure 14: deletion statistics, ~%d-entry directories, %d ops per configuration"
         entries ops);
    print_table (Figures.figure14 ~seed ~ops ~entries ())
  in
  Cmd.v
    (Cmd.info "figure14" ~doc:"Reproduce Figure 14 (statistics across suite configurations)")
    Term.(const run $ seed_t $ ops_t 10_000 $ entries_t)

(* --- figure 15 ------------------------------------------------------------------ *)

let figure15_cmd =
  let sizes_t =
    let doc = "Comma-separated directory sizes." in
    Arg.(value & opt (list int) [ 100; 1_000; 10_000 ] & info [ "sizes" ] ~docv:"SIZES" ~doc)
  in
  let run seed ops sizes =
    print_endline
      (Printf.sprintf "Figure 15: detailed statistics for 3-2-2 suites, %d ops per size" ops);
    print_table (Figures.figure15 ~seed ~ops ~sizes ())
  in
  Cmd.v
    (Cmd.info "figure15" ~doc:"Reproduce Figure 15 (detailed 3-2-2 statistics by size)")
    Term.(const run $ seed_t $ ops_t 100_000 $ sizes_t)

(* --- ablations and analyses ------------------------------------------------------- *)

let stability_cmd =
  let run seed ops entries =
    print_endline "Quorum stability ablation (§5): random vs fixed write quorums, 3-2-2";
    print_table (Figures.quorum_stability ~seed ~ops ~entries ())
  in
  Cmd.v
    (Cmd.info "quorum-stability" ~doc:"§5 ablation: stable quorums make coalescing nearly free")
    Term.(const run $ seed_t $ ops_t 10_000 $ entries_t)

let availability_cmd =
  let p_ups_t =
    let doc = "Comma-separated per-representative up-probabilities." in
    Arg.(value & opt (list float) [ 0.5; 0.9; 0.95; 0.99 ] & info [ "p" ] ~docv:"PROBS" ~doc)
  in
  let run p_ups =
    print_endline "Exact read/write availability by configuration";
    print_table (Figures.availability ~p_ups ())
  in
  Cmd.v
    (Cmd.info "availability" ~doc:"Exact quorum availability analysis")
    Term.(const run $ p_ups_t)

let messages_cmd =
  let run seed ops entries =
    print_endline "Representative calls and wire messages per suite operation (avg)";
    print_table (Figures.messages ~seed ~ops ~entries ())
  in
  Cmd.v
    (Cmd.info "messages" ~doc:"Per-operation call and message costs")
    Term.(const run $ seed_t $ ops_t 4_000 $ entries_t)

let concurrency_cmd =
  let clients_t =
    Arg.(value & opt (list int) [ 1; 2; 4; 8 ] & info [ "clients" ] ~docv:"LIST"
           ~doc:"Client counts to sweep.")
  in
  let run seed duration client_counts =
    print_endline
      "Concurrency (§2): gap-versioned directory vs single-version (file-voting) layout, 3-2-2";
    print_table
      (Concurrency.table ~seed ~duration ~client_counts
         ~config:(Repdir_quorum.Config.simple ~n:3 ~r:2 ~w:2)
         ())
  in
  Cmd.v
    (Cmd.info "concurrency" ~doc:"Concurrent-transaction throughput, gap vs single version")
    Term.(const run $ seed_t $ sweep_duration_t $ clients_t)

let skew_cmd =
  let clients_t =
    Arg.(value & opt int 8 & info [ "clients" ] ~docv:"N" ~doc:"Concurrent clients.")
  in
  let run seed duration clients =
    print_endline
      "Skewed access (§2): gap-scheme throughput under Zipf key popularity, 3-2-2";
    print_table
      (Concurrency.skew_table ~seed ~duration ~clients
         ~config:(Repdir_quorum.Config.simple ~n:3 ~r:2 ~w:2)
         ())
  in
  Cmd.v
    (Cmd.info "skew" ~doc:"Throughput under skewed (Zipf) key popularity")
    Term.(const run $ seed_t $ sweep_duration_t $ clients_t)

let locality_cmd =
  let run seed ops =
    print_endline "Figure 16: locality quorums on a 4-2-3 suite (A1 A2 local to type A)";
    print_table (Locality.table ~seed ~ops ())
  in
  Cmd.v
    (Cmd.info "locality" ~doc:"Reproduce the Figure 16 locality configuration")
    Term.(const run $ seed_t $ ops_t 4_000)

let report_cache_stats outcomes =
  List.iter
    (fun o ->
      match o.Nemesis.cache_stats with
      | None -> ()
      | Some c ->
          let reads = c.Repdir_cache.Cache.hits + c.misses + c.mismatches in
          let rate =
            if reads = 0 then 0.0 else float_of_int c.hits /. float_of_int reads
          in
          Format.printf "cache %-24s %a hit-rate=%.1f%%@." o.Nemesis.plan
            Repdir_cache.Cache.pp_counters c (100.0 *. rate))
    outcomes

let warn_unchecked_keys outcomes =
  List.iter
    (fun o ->
      match o.Nemesis.audit with
      | Some a when a.Nemesis.keys_given_up > 0 ->
          Printf.printf
            "WARNING: plan %S: checker gave up on %d key(s) (state-space caps) — those \
             keys are unverified, not passed\n"
            o.Nemesis.plan a.Nemesis.keys_given_up
      | _ -> ())
    outcomes

(* A failing campaign must leave everything a human needs to chase it: the
   per-plan findings, the retained history window on disk as
   audit-history-NAME-SEED.txt, and a one-line command that reproduces the
   exact world. [repro o] gives the NAME and that command for outcome [o].
   A plan fails on any violation or residue at quiesce, or when one of its
   changes did not complete. Exits 1 if any plan failed. *)
let exit_on_failures ~seed ~repro outcomes =
  let failing o =
    Nemesis.total_violations o > 0
    || o.Nemesis.orphan_locks > 0
    || o.Nemesis.indoubt_open > 0
    || Option.fold ~none:false ~some:(fun r -> not (Nemesis.completed r)) o.Nemesis.change
  in
  let failed = List.filter failing outcomes in
  List.iter
    (fun o ->
      let name, command = repro o in
      Printf.printf "\nFAILURES in plan %S (world seed %Ld):\n" o.Nemesis.plan
        o.Nemesis.world_seed;
      if o.Nemesis.violations > 0 then
        Printf.printf "  %d sequential-model violations\n" o.Nemesis.violations;
      if o.Nemesis.orphan_locks > 0 then
        Printf.printf "  %d orphaned locks at quiesce\n" o.Nemesis.orphan_locks;
      if o.Nemesis.indoubt_open > 0 then
        Printf.printf "  %d in-doubt transactions never resolved\n" o.Nemesis.indoubt_open;
      (match o.Nemesis.change with
      | Some r when not (Nemesis.completed r) ->
          Format.printf "  changes incomplete: %a@." Nemesis.pp_report r
      | _ -> ());
      (match o.Nemesis.audit with
      | None -> ()
      | Some a ->
          List.iter (Printf.printf "  checker: %s\n") a.Nemesis.checker_violations;
          List.iter (Printf.printf "  scrub: %s\n") a.Nemesis.scrub_violations;
          let path = Printf.sprintf "audit-history-%s-%Ld.txt" name seed in
          a.Nemesis.dump path;
          Printf.printf "  history window dumped to %s\n" path);
      Printf.printf "  reproduce: dune exec bin/repdir.exe -- %s\n" command)
    failed;
  if failed <> [] then begin
    Printf.printf "\nFAILED: %d of %d plans\n" (List.length failed) (List.length outcomes);
    exit 1
  end

(* `audit --plan NAME --seed SEED` replays a plan of the sweep exactly: the
   plan schedule derives from the campaign seed, and the world seed is a
   fixed function of the campaign seed and the plan's index. *)
let sweep_repro ~seed ~duration ~keys ~clients ~n ~r ~w o =
  ( String.map (fun c -> if c = ' ' then '-' else c) o.Nemesis.plan,
    Printf.sprintf "audit --plan %S --seed %Ld --duration %g --keys %d --clients %d -n %d -r %d \
                    -w %d"
      o.Nemesis.plan seed duration keys clients n r w )

(* The availability timeline: per window, the steps that opened it, the
   representatives up and the workload ops that succeeded or ended
   unavailable; then the audited verdict. *)
let faults_cmd =
  let run seed n r w =
    let config = Repdir_quorum.Config.simple ~n ~r ~w in
    Printf.printf "Crash/recovery timeline on the discrete-event simulator (%s suite)\n"
      (Repdir_quorum.Config.to_string config);
    let plan = Nemesis.crash_timeline ~duration:2500.0 in
    let o = Nemesis.run_plan ~seed ~config ~audit:true plan in
    let t =
      Table.create ~header:[ "Window"; "Opened by"; "Up reps"; "Succeeded"; "Unavailable" ] ()
    in
    List.iter
      (fun (w : Nemesis.window) ->
        let opened =
          List.filter_map
            (fun (s : Nemesis.step) ->
              if s.at = w.since then Some (Format.asprintf "%a" Nemesis.pp_action s.action)
              else None)
            plan.Nemesis.steps
        in
        Table.add_row t
          (Printf.sprintf "%g-%g" w.since w.until
          :: (if opened = [] then "start" else String.concat ", " opened)
          :: List.map string_of_int [ w.up_reps; w.ok_ops; w.unavailable_ops ]))
      o.Nemesis.windows;
    Table.add_separator t;
    Table.add_row t [ "violations"; ""; ""; ""; string_of_int (Nemesis.total_violations o) ];
    print_table t;
    exit_on_failures ~seed
      ~repro:(fun _ -> ("faults", Printf.sprintf "faults --seed %Ld -n %d -r %d -w %d" seed n r w))
      [ o ]
  in
  Cmd.v
    (Cmd.info "faults" ~doc:"Availability and consistency under crash/recovery")
    Term.(const run $ seed_t $ n_t $ r_t $ w_t)

(* One audited plan with admin changes: its table and change report, then
   the verdict. *)
let change_campaign ~seed ~keys ~clients ~name ~command ~clean plan =
  let o = Nemesis.run_plan ~seed ~key_space:keys ~clients ~audit:true plan in
  print_table (Nemesis.table_of_outcomes [ o ]);
  Option.iter (Format.printf "%a@." Nemesis.pp_report) o.Nemesis.change;
  warn_unchecked_keys [ o ];
  exit_on_failures ~seed ~repro:(fun _ -> (name, command)) [ o ];
  print_endline clean

(* Shared by `repdir shard` and the --shards option of audit/nemesis. *)
let shard_campaign seed duration keys clients groups faults =
  Printf.printf
    "Horizontal sharding campaign (%d groups): split the top key range onto a fresh \
     replica group under a live audited workload%s.\n\
     Epoch-stamped shard map with fencing on every RPC, sliced anti-entropy \
     catch-up, converge-gated flip; the strict-serializability checker and the \
     per-group scrubbers must stay clean across every map epoch.\n"
    groups
    (if faults then " with partitions and bounces" else "");
  let plan = Nemesis.shard_plan ~n:3 ~groups ~clients ~duration ~seed in
  change_campaign ~seed ~keys ~clients ~name:"shard"
    ~command:
      (Printf.sprintf "shard --seed %Ld --duration %g --keys %d --clients %d --groups %d%s"
         seed duration keys clients groups (if faults then "" else " --no-faults"))
    ~clean:
      (Printf.sprintf
         "Split clean: the range migrated and flipped under %s with zero \
          strict-serializability violations and one agreed shard-map epoch."
         (if faults then "faults" else "a live workload"))
    (if faults then plan else { plan with steps = [] })

let nemesis_cmd =
  let cache_t =
    Arg.(value & vflag false
           [ (true, info [ "cache" ]
                ~doc:"Attach a version-validated client cache (weak representative) to \
                      every client; reads validate version tags against the quorum and \
                      fetch payload only on miss or mismatch.");
             (false, info [ "no-cache" ] ~doc:"Run without client caches (default).") ])
  in
  let shards_t =
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N"
           ~doc:"With N > 1, run the horizontal-sharding split campaign over N replica \
                 groups instead of the single-group plan sweep (same as `repdir shard \
                 --groups N`).")
  in
  let run seed duration keys n r w cache shards =
    if shards > 1 then shard_campaign seed duration keys 1 shards true
    else begin
    let config = Repdir_quorum.Config.simple ~n ~r ~w in
    Printf.printf
      "Nemesis campaign (%s suite): crash storm, rolling partition, flaky links, torn-WAL \
       crashes, coordinator crashes\n\
       Hardened transport: at-most-once RPC (request-id dedup), bounded retries with \
       backoff+jitter, 2PC; every response checked against a sequential model and the \
       recorded history against the strict-serializability checker.\n\
       Quiesce audit (no power cycle): zero violations, zero orphaned locks, zero open \
       in-doubt transactions.\n"
      (Repdir_quorum.Config.to_string config);
    let outcomes =
      Nemesis.run_all ~seed ~config ~duration ~key_space:keys ~audit:true ~cache ()
    in
    print_table (Nemesis.table_of_outcomes outcomes);
    report_cache_stats outcomes;
    warn_unchecked_keys outcomes;
    exit_on_failures ~seed
      ~repro:(sweep_repro ~seed ~duration ~keys ~clients:1 ~n ~r ~w)
      outcomes
    end
  in
  Cmd.v
    (Cmd.info "nemesis"
       ~doc:"Adversarial fault campaign: the suite must stay consistent through all of it")
    Term.(const run $ seed_t $ plan_duration_t $ keys_t 30 $ n_t $ r_t $ w_t $ cache_t
          $ shards_t)

let audit_cmd =
  let clients_t =
    Arg.(value & opt int 1 & info [ "clients" ] ~docv:"N"
           ~doc:"Concurrent clients. With more than one, the inline sequential model is \
                 off and the strict-serializability checker is the oracle.")
  in
  let plan_t =
    Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"NAME"
           ~doc:"Run only the named plan (default: all nine).")
  in
  let cache_t =
    Arg.(value & vflag false
           [ (true, info [ "cache" ]
                ~doc:"Attach a version-validated client cache (weak representative) to \
                      every client; the auditor's obligations are unchanged — the \
                      checker and scrubber must stay exactly as clean as without it.");
             (false, info [ "no-cache" ] ~doc:"Run without client caches (default).") ])
  in
  let shards_t =
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N"
           ~doc:"With N > 1, run the audited horizontal-sharding split campaign over N \
                 replica groups instead of the single-group plan sweep (same as `repdir \
                 shard --groups N`).")
  in
  let run seed duration keys clients plan_filter n r w cache shards =
    if shards > 1 then shard_campaign seed duration keys clients shards true
    else begin
    let config = Repdir_quorum.Config.simple ~n ~r ~w in
    let plans = Nemesis.all_plans ~duration ~n ~seed () in
    let indexed = List.mapi (fun i p -> (i, p)) plans in
    let selected =
      match plan_filter with
      | None -> indexed
      | Some name ->
          List.filter (fun (_, p) -> String.equal p.Nemesis.plan_name name) indexed
    in
    if selected = [] then begin
      Printf.printf "unknown plan %S; available plans:\n"
        (Option.value plan_filter ~default:"");
      List.iter (fun (_, p) -> Printf.printf "  %s\n" p.Nemesis.plan_name) indexed;
      exit 2
    end;
    Printf.printf
      "Audited campaign (%s suite, %d client%s): every client-observed history checked \
       for strict serializability against the sequential directory spec, every replica \
       scrubbed at quiesce (tiling, WAL agreement, orphan residue, quorum \
       intersection).\n"
      (Repdir_quorum.Config.to_string config)
      clients
      (if clients = 1 then "" else "s");
    let outcomes =
      List.map
        (fun (i, p) ->
          (* The same world-seed schedule as the full campaign, so a single
             --plan run replays its plan bit-for-bit. *)
          let world_seed = Int64.add seed (Int64.mul 1000003L (Int64.of_int i)) in
          Nemesis.run_plan ~seed:world_seed ~config ~key_space:keys ~audit:true ~clients
            ~cache p)
        selected
    in
    print_table (Nemesis.table_of_outcomes outcomes);
    report_cache_stats outcomes;
    warn_unchecked_keys outcomes;
    exit_on_failures ~seed ~repro:(sweep_repro ~seed ~duration ~keys ~clients ~n ~r ~w) outcomes;
    let checked =
      List.fold_left
        (fun a o ->
          match o.Nemesis.audit with Some x -> a + x.Nemesis.checked_ops | None -> a)
        0 outcomes
    in
    Printf.printf "All %d plans clean: %d operations proven strictly serializable.\n"
      (List.length outcomes) checked
    end
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Consistency auditor: audited fault campaigns with strict-serializability \
             checking and replica scrubbing")
    Term.(const run $ seed_t $ plan_duration_t $ keys_t 30 $ clients_t $ plan_t $ n_t $ r_t
          $ w_t $ cache_t $ shards_t)

let latency_cmd =
  let run seed ops n r w =
    let config = Repdir_quorum.Config.simple ~n ~r ~w in
    Printf.printf
      "Operation latency on the simulated network (%s): sequential vs parallel quorum RPCs\n"
      (Repdir_quorum.Config.to_string config);
    print_table (Latency.table ~seed ~ops ~config ())
  in
  Cmd.v
    (Cmd.info "latency" ~doc:"§5 optimization: parallel quorum RPC latency")
    Term.(const run $ seed_t $ ops_t 1_500 $ n_t $ r_t $ w_t)

let batching_cmd =
  let run seed ops entries =
    print_endline "§4 batching: representative calls per delete vs neighbour-chain depth";
    print_table (Figures.batching ~seed ~ops ~entries ())
  in
  Cmd.v
    (Cmd.info "batching" ~doc:"§4 batching of predecessor/successor chains")
    Term.(const run $ seed_t $ ops_t 4_000 $ entries_t)

let space_cmd =
  let run seed ops entries =
    print_endline "Storage and write traffic across replication strategies (identical churn)";
    print_table (Figures.space_and_traffic ~seed ~ops ~entries ())
  in
  Cmd.v
    (Cmd.info "space" ~doc:"Space reclamation and write-traffic comparison vs baselines")
    Term.(const run $ seed_t $ ops_t 3_000 $ entries_t)

(* --- anti-entropy ------------------------------------------------------------------ *)

let sync_cmd =
  let seeds_t =
    Arg.(value & opt (list int64) [ 1983L; 2024L; 7L; 42L; 1011L ]
           & info [ "seeds" ] ~docv:"SEEDS" ~doc:"Comma-separated campaign seeds.")
  in
  let size_t =
    Arg.(value & opt int 120 & info [ "entries" ] ~docv:"N"
           ~doc:"Directory size before the partition.")
  in
  let writes_t =
    Arg.(value & opt int 12 & info [ "writes" ] ~docv:"N"
           ~doc:"Writes committed on the surviving quorum during the partition.")
  in
  let period_t =
    Arg.(value & opt float 25.0 & info [ "period" ] ~docv:"T"
           ~doc:"Mean virtual time between background sync rounds.")
  in
  let deadline_t =
    Arg.(value & opt float 1500.0 & info [ "deadline" ] ~docv:"T"
           ~doc:"Reconciliation budget, in virtual time from the heal.")
  in
  let staleness_t =
    Arg.(value & flag & info [ "staleness" ]
           ~doc:"Also sweep the sync period against replica staleness under steady traffic.")
  in
  let run seeds entries writes period deadline staleness =
    let sync_config = { Repdir_sync.Sync.default_config with period } in
    Printf.printf
      "Anti-entropy convergence campaign (3-2-2 suite): partition one representative,\n\
       commit %d writes on the surviving quorum, heal, then reconcile with zero client\n\
       traffic. Counters are measured from the heal.\n" writes;
    let outcomes =
      Anti_entropy.campaign ~seeds ~n_entries:entries ~partition_writes:writes ~sync_config
        ~deadline ()
    in
    print_table (Anti_entropy.table_of_outcomes outcomes);
    if staleness then begin
      print_newline ();
      print_endline
        "Sync period vs staleness (steady traffic, repeating partition cycle, lease-based \
         termination, no restart, audited):";
      let seed = 1983L in
      let runs =
        List.map
          (fun period ->
            ( period,
              Nemesis.run_plan ~seed ~audit:true
                (Nemesis.partition_sync ~n:3 ~period ~duration:900.0 ~seed) ))
          [ 10.0; 30.0; 100.0; 300.0 ]
      in
      let t =
        Table.create
          ~header:
            [
              "period"; "mean stale"; "end stale"; "sessions"; "failed"; "digests"; "pulls";
              "sent"; "digests eq"; "orphans"; "in-doubt"; "violations";
            ]
          ()
      in
      List.iter
        (fun (period, o) ->
          let a = Option.get o.Nemesis.anti_entropy in
          let c = a.Nemesis.sync_counters in
          let ints = List.map Table.cell_int in
          Table.add_row t
            (Table.cell_float period :: Table.cell_float a.mean_stale
             :: ints [ a.end_stale; c.sessions; c.sessions_failed; c.digest_rpcs; c.pull_rpcs ]
            @ Table.cell_int c.entries_sent
              :: (if a.digests_equal then "yes" else "no")
              :: ints [ o.orphan_locks; o.indoubt_open; Nemesis.total_violations o ]))
        runs;
      print_table t;
      exit_on_failures ~seed
        ~repro:(fun o ->
          let period, _ = List.find (fun (_, o') -> o' == o) runs in
          (Printf.sprintf "partition-sync-%g" period, "sync --staleness"))
        (List.map snd runs)
    end;
    let total = List.length outcomes in
    let stragglers = List.filter (fun o -> not o.Anti_entropy.converged) outcomes in
    let full_copies =
      List.filter
        (fun (o : Anti_entropy.outcome) -> o.entries_sent >= o.directory_size && o.directory_size > 0)
        outcomes
    in
    if stragglers <> [] then begin
      Printf.printf "FAILED: %d/%d runs did not converge within the budget\n"
        (List.length stragglers) total;
      exit 1
    end;
    if full_copies <> [] then begin
      Printf.printf "FAILED: %d/%d runs moved at least one full directory copy\n"
        (List.length full_copies) total;
      exit 1
    end;
    Printf.printf
      "All %d runs converged; every repair moved fewer entries than the directory holds.\n"
      total
  in
  Cmd.v
    (Cmd.info "sync"
       ~doc:"Anti-entropy: partition-then-heal convergence over gap-version range digests")
    Term.(const run $ seeds_t $ size_t $ writes_t $ period_t $ deadline_t $ staleness_t)

(* --- dynamic membership ------------------------------------------------------------ *)

let plans_cmd =
  let run () =
    Printf.printf "Registered nemesis fault plans (%d):\n" (List.length Nemesis.plan_catalog);
    List.iter
      (fun (name, family, desc) -> Printf.printf "  %-20s %-11s %s\n" name family desc)
      Nemesis.plan_catalog;
    print_endline
      "\nStandard, extended and robustness plans run via `repdir nemesis` / `repdir \
       audit` (non-standard ones under audit's --plan or in its default all-plan \
       sweep); the membership plan runs via `repdir reconfig`; the sharding plan \
       runs via `repdir shard` (or `repdir audit`/`repdir nemesis --shards N`)."
  in
  Cmd.v
    (Cmd.info "plans" ~doc:"List every registered nemesis fault plan")
    Term.(const run $ const ())

let reconfig_cmd =
  let run seed duration keys clients =
    Printf.printf
      "Dynamic membership campaign: online join to a 4-member suite and retire back to \
       three, under partitions and bounces, with a live audited workload.\n\
       Epoch-fenced stale quorums, joint-quorum transitions, converge-gated promotion; \
       the strict-serializability checker and the replica scrubber must stay clean \
       across every epoch change.\n";
    change_campaign ~seed ~keys ~clients ~name:"reconfig"
      ~command:
        (Printf.sprintf "reconfig --seed %Ld --duration %g --keys %d --clients %d" seed
           duration keys clients)
      ~clean:
        "Reconfiguration clean: join and retire completed under faults with zero \
         strict-serializability violations."
      (Nemesis.reconfig_plan ~clients ~duration ~seed)
  in
  Cmd.v
    (Cmd.info "reconfig"
       ~doc:"Dynamic membership: audited online join/retire campaign under faults")
    Term.(const run $ seed_t $ campaign_duration_t $ keys_t 24 $ workload_clients_t)

(* --- horizontal sharding ----------------------------------------------------------- *)

let shard_cmd =
  let groups_t =
    Arg.(value & opt int 2 & info [ "groups" ] ~docv:"N"
           ~doc:"Replica groups after the split (the last group starts empty and \
                 receives the migrated range).")
  in
  let faults_t =
    Arg.(value & vflag true
           [ (true, info [ "faults" ]
                ~doc:"Run the sharded-split fault plan alongside the migration (default).");
             (false, info [ "no-faults" ] ~doc:"Fault-free split.") ])
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:"Horizontal sharding: audited online range split/migration campaign")
    Term.(const shard_campaign $ seed_t $ campaign_duration_t $ keys_t 24 $ workload_clients_t
          $ groups_t $ faults_t)

(* --- one-off simulation ------------------------------------------------------------ *)

let simulate_cmd =
  let run seed ops entries n r w =
    let config = Repdir_quorum.Config.simple ~n ~r ~w in
    let o = Experiment.run ~seed ~config ~n_entries:entries ~ops () in
    Printf.printf "%s: %d ops (%d deletes), %d representative calls, %.2fs\n"
      (Repdir_quorum.Config.to_string config)
      o.ops o.deletes o.rpcs o.elapsed_s;
    let line name (s : Stats.t) =
      Printf.printf "  %-28s avg %.2f  max %g  stddev %.2f  (n=%d)\n" name (Stats.mean s)
        (Stats.max s) (Stats.stddev s) (Stats.count s)
    in
    line "entries in ranges coalesced" o.stats.entries_coalesced;
    line "deletions while coalescing" o.stats.deletions_while_coalescing;
    line "insertions while coalescing" o.stats.insertions_while_coalescing
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run one simulation with an arbitrary x-y-z configuration")
    Term.(const run $ seed_t $ ops_t 10_000 $ entries_t $ n_t $ r_t $ w_t)

let () =
  let info =
    Cmd.info "repdir" ~version:"1.0.0"
      ~doc:"Replicated directories via weighted voting with gap version numbers"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            figure14_cmd;
            figure15_cmd;
            stability_cmd;
            availability_cmd;
            messages_cmd;
            concurrency_cmd;
            skew_cmd;
            locality_cmd;
            faults_cmd;
            nemesis_cmd;
            audit_cmd;
            plans_cmd;
            reconfig_cmd;
            shard_cmd;
            sync_cmd;
            latency_cmd;
            space_cmd;
            batching_cmd;
            simulate_cmd;
          ]))
