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

let sweep_duration_t =
  Arg.(value & opt float 2000.0 & info [ "duration" ] ~docv:"T" ~doc:"Virtual duration.")

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
  let run seeds entries writes period deadline =
    let sync_config = { Repdir_sync.Sync.default_config with period } in
    Printf.printf
      "Anti-entropy convergence campaign (3-2-2 suite): partition one representative,\n\
       commit %d writes on the surviving quorum, heal, then reconcile with zero client\n\
       traffic. Counters are measured from the heal.\n" writes;
    let outcomes =
      List.map
        (fun seed ->
          Anti_entropy.convergence ~seed ~n_entries:entries ~partition_writes:writes
            ~sync_config ~deadline ())
        seeds
    in
    print_table (Anti_entropy.table_of_outcomes outcomes);
    (* A run that never diverged, or healed without sync moving anything,
       converges vacuously: it exercised none of the repair, so it fails
       too. *)
    let failure (o : Anti_entropy.outcome) =
      if not o.converged then Some "did not converge within the budget"
      else if o.entries_sent >= o.directory_size && o.directory_size > 0 then
        Some "moved at least one full directory copy"
      else if o.diverged_entries = 0 then Some "the partition produced no divergence"
      else if o.entries_sent = 0 then Some "sync moved no entries"
      else None
    in
    let failed =
      List.filter_map (fun o -> Option.map (fun why -> (o, why)) (failure o)) outcomes
    in
    List.iter
      (fun ((o : Anti_entropy.outcome), why) -> Printf.printf "FAILED: seed %Ld: %s\n" o.seed why)
      failed;
    if failed <> [] then exit 1;
    Printf.printf
      "All %d runs diverged and converged; every repair moved fewer entries than the directory \
       holds.\n"
      (List.length outcomes)
  in
  Cmd.v
    (Cmd.info "sync"
       ~doc:"Anti-entropy: partition-then-heal convergence over gap-version range digests")
    Term.(const run $ seeds_t $ size_t $ writes_t $ period_t $ deadline_t)

(* --- fault campaigns ----------------------------------------------------------------- *)

let print_catalogue () =
  Printf.printf "Registered campaign plans (%d):\n" (List.length Nemesis.catalogue);
  List.iter
    (fun (e : Nemesis.entry) -> Printf.printf "  %-20s %-12s %s\n" e.name e.family e.doc)
    Nemesis.catalogue;
  print_endline
    "\nRun them with `repdir campaign PLAN|FAMILY ...`; `--all` runs the nine-plan sweep \
     (the standard, extended and robustness families)."

(* The report reads nothing but the outcomes: their table; each change
   report, cache counter line and anti-entropy row; for a single plan, its
   availability windows. *)
let report outcomes =
  print_table (Nemesis.table_of_outcomes outcomes);
  List.iter
    (fun o -> Option.iter (Format.printf "%a@." Nemesis.pp_report) o.Nemesis.change)
    outcomes;
  List.iter
    (fun o ->
      Option.iter
        (fun (c : Repdir_cache.Cache.counters) ->
          let reads = c.hits + c.misses + c.mismatches in
          let rate = if reads = 0 then 0.0 else float_of_int c.hits /. float_of_int reads in
          Format.printf "cache %-24s %a hit-rate=%.1f%%@." o.Nemesis.plan
            Repdir_cache.Cache.pp_counters c (100.0 *. rate))
        o.Nemesis.cache_stats)
    outcomes;
  let synced =
    List.filter_map (fun o -> Option.map (fun a -> (o, a)) o.Nemesis.anti_entropy) outcomes
  in
  if synced <> [] then begin
    print_endline
      "\nSync period vs staleness (steady traffic, repeating partition cycle, lease-based \
       termination, no restart, audited):";
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
      (fun (o, (a : Nemesis.sync_report)) ->
        let c = a.sync_counters and ints = List.map Table.cell_int in
        Table.add_row t
          (Table.cell_float a.period :: Table.cell_float a.mean_stale
           :: ints [ a.end_stale; c.sessions; c.sessions_failed; c.digest_rpcs; c.pull_rpcs ]
          @ Table.cell_int c.entries_sent
            :: (if a.digests_equal then "yes" else "no")
            :: ints [ o.Nemesis.orphan_locks; o.indoubt_open; Nemesis.total_violations o ]))
      synced;
    print_table t
  end;
  (match outcomes with
  | [ o ] ->
      print_endline "\nAvailability by window (an op counts in the window it ended in):";
      let t =
        Table.create ~header:[ "Window"; "Opened by"; "Up reps"; "Succeeded"; "Unavailable" ] ()
      in
      List.iter
        (fun (w : Nemesis.window) ->
          let opened = List.map (Format.asprintf "%a" Nemesis.pp_action) w.opened_by in
          Table.add_row t
            (Printf.sprintf "%g-%g" w.since w.until
            :: (if opened = [] then "start" else String.concat ", " opened)
            :: List.map string_of_int [ w.up_reps; w.ok_ops; w.unavailable_ops ]))
        o.Nemesis.windows;
      Table.add_separator t;
      Table.add_row t [ "violations"; ""; ""; ""; string_of_int (Nemesis.total_violations o) ];
      print_table t
  | _ -> ());
  List.iter
    (fun o ->
      if o.Nemesis.audit.keys_given_up > 0 then
        Printf.printf
          "WARNING: plan %S: checker gave up on %d key(s) (state-space caps) — those keys are \
           unverified, not passed\n"
          o.Nemesis.plan o.audit.keys_given_up)
    outcomes

(* A failing campaign leaves everything a human needs to chase it: the
   per-plan findings, the retained history window on disk as
   audit-history-PLAN-SEED.txt, and a one-line command that replays the
   exact world. A plan fails on any violation or residue at quiesce, or
   when one of its changes did not complete. Exits 1 if any plan failed. *)
let exit_on_failures outcomes =
  let failing o =
    Nemesis.total_violations o > 0
    || o.Nemesis.orphan_locks > 0
    || o.indoubt_open > 0
    || Option.fold ~none:false ~some:(fun r -> not (Nemesis.completed r)) o.change
  in
  let failed = List.filter failing outcomes in
  List.iter
    (fun o ->
      Printf.printf "\nFAILURES in plan %S (world seed %Ld):\n" o.Nemesis.plan o.world_seed;
      if o.violations > 0 then Printf.printf "  %d sequential-model violations\n" o.violations;
      if o.orphan_locks > 0 then Printf.printf "  %d orphaned locks at quiesce\n" o.orphan_locks;
      if o.indoubt_open > 0 then
        Printf.printf "  %d in-doubt transactions never resolved\n" o.indoubt_open;
      (match o.change with
      | Some r when not (Nemesis.completed r) ->
          Format.printf "  changes incomplete: %a@." Nemesis.pp_report r
      | _ -> ());
      List.iter (Printf.printf "  checker: %s\n") o.audit.checker_violations;
      List.iter (Printf.printf "  scrub: %s\n") o.audit.scrub_violations;
      let path =
        Printf.sprintf "audit-history-%s-%Ld.txt"
          (String.map (fun c -> if c = ' ' then '-' else c) o.plan)
          o.params.seed
      in
      Nemesis.dump_history path o;
      Printf.printf "  history window dumped to %s\n" path;
      Printf.printf "  reproduce: dune exec bin/repdir.exe -- %s\n" (Nemesis.reproduce o))
    failed;
  if failed <> [] then begin
    Printf.printf "\nFAILED: %d of %d plans\n" (List.length failed) (List.length outcomes);
    exit 1
  end

let plural l = if List.compare_length_with l 1 = 0 then "" else "s"

let campaign_cmd =
  let names_t =
    Arg.(value & pos_all string [] & info [] ~docv:"PLAN|FAMILY"
           ~doc:"Catalogue plans, or families of them, to run; with none (and no --all), \
                 list the catalogue.")
  in
  let all_t =
    Arg.(value & flag & info [ "all" ]
           ~doc:"Run the nine-plan sweep: the standard, extended and robustness families.")
  in
  let opt kind name docv doc = Arg.(value & opt (some kind) None & info [ name ] ~docv ~doc) in
  let cache_t =
    Arg.(value & flag & info [ "cache" ]
           ~doc:"Attach a version-validated client cache (weak representative) to every \
                 client; the checker and scrubber must stay exactly as clean as without it.")
  in
  let batching_t =
    Arg.(value & flag & info [ "batching" ]
           ~doc:"Batch every client's rounds into one message per representative (the \
                 benchmark's path: piggybacked prepare, two-round delete); audited alike.")
  in
  let run seed all names duration keys clients groups cache batching n r w =
    let refuse what =
      prerr_endline ("campaign: " ^ what);
      exit 2
    in
    let selected =
      (if all then List.filter (fun e -> e.Nemesis.slot <> None) Nemesis.catalogue else [])
      @ List.concat_map
          (fun a ->
            match List.filter (fun e -> e.Nemesis.name = a || e.family = a) Nemesis.catalogue with
            | [] -> refuse (Printf.sprintf "no plan or family %S (`repdir campaign` lists them)" a)
            | es -> es)
          names
    in
    let quorum =
      if n = None && r = None && w = None then None
      else
        let v o d = Option.value o ~default:d in
        Some (Repdir_quorum.Config.simple ~n:(v n 3) ~r:(v r 2) ~w:(v w 2))
    in
    (* Each flag overrides the entry's default, unless the entry marks the
       parameter as one its plan cannot honour. *)
    let params (e : Nemesis.entry) =
      let d = e.defaults in
      let pick flag given default =
        match (given, default) with
        | None, _ -> default
        | Some _, None -> refuse (Printf.sprintf "plan %S cannot honour %s" e.name flag)
        | Some _, Some _ -> given
      in
      {
        Nemesis.seed;
        config = pick "-n/-r/-w" quorum d.config;
        duration = Option.value duration ~default:d.duration;
        key_space = Option.value keys ~default:d.key_space;
        clients = Option.value clients ~default:d.clients;
        groups = pick "--groups" groups d.groups;
        cache = pick "--cache" (if cache then Some true else None) d.cache;
        batching = pick "--batching" (if batching then Some true else None) d.batching;
      }
    in
    if selected = [] then print_catalogue ()
    else begin
      let runs = List.map (fun e -> (params e, e)) selected in
      Printf.printf
        "Audited fault campaign, seed %Ld, %d plan%s: every response checked against a \
         sequential model (one client) and every client-observed history for strict \
         serializability; every replica scrubbed at quiesce with no power cycle (tiling, WAL \
         agreement, orphan residue, quorum intersection, one agreed epoch).\n"
        seed (List.length runs) (plural runs);
      let outcomes = List.map (fun (p, e) -> Nemesis.run p e) runs in
      report outcomes;
      exit_on_failures outcomes;
      List.iter
        (fun o ->
          match o.Nemesis.change with
          | Some { progress = { what = Split; _ } :: _; _ } ->
              print_endline
                "Split clean: the range migrated and flipped under faults with zero \
                 strict-serializability violations and one agreed shard-map epoch."
          | Some _ ->
              print_endline
                "Reconfiguration clean: join and retire completed under faults with zero \
                 strict-serializability violations."
          | None -> ())
        outcomes;
      Printf.printf "All %d plan%s clean: %d operations proven strictly serializable.\n"
        (List.length outcomes) (plural outcomes)
        (List.fold_left (fun a o -> a + o.Nemesis.audit.checked_ops) 0 outcomes)
    end
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Audited fault campaigns from the plan catalogue: the suite must stay consistent \
             through every plan")
    Term.(const run $ seed_t $ all_t $ names_t
          $ opt Arg.float "duration" "T" "Virtual time each plan runs (default: the plan's own)."
          $ opt Arg.int "keys" "N" "Size of the key space (default: the plan's own)."
          $ opt Arg.int "clients" "N"
              "Concurrent workload clients (default: the plan's own). With more than one, the \
               inline sequential model is off and the checker is the oracle."
          $ opt Arg.int "groups" "N"
              "Replica groups of a sharded plan; the last starts empty and receives the \
               migrated range."
          $ cache_t
          $ batching_t
          $ opt Arg.int "n" "N" "Representatives per group (default 3)."
          $ opt Arg.int "r" "R" "Read quorum (default 2)."
          $ opt Arg.int "w" "W" "Write quorum (default 2).")

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
            campaign_cmd;
            sync_cmd;
            latency_cmd;
            space_cmd;
            batching_cmd;
            simulate_cmd;
          ]))
