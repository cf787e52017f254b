open Repdir_util
open Repdir_key
open Repdir_sim
open Repdir_core
module Wal = Repdir_txn.Wal
module Txn = Repdir_txn.Txn
module Rep = Repdir_rep.Rep
module Cache = Repdir_cache.Cache
module Checker = Repdir_audit.Checker
module History = Repdir_audit.History
module Scrub = Repdir_audit.Scrub
module Member = Repdir_member.Member
module Sync = Repdir_sync.Sync
module Config = Repdir_quorum.Config
module Picker = Repdir_quorum.Picker
module Shard_map = Repdir_shard.Shard_map
module Router = Repdir_shard.Router

(* --- fault-plan DSL ---------------------------------------------------------------- *)

type action =
  | Crash of int
  | Recover of int
  | Torn_crash of int * Wal.storage_fault
  | Partition of int list * int list
  | Heal
  | Flaky of Net.faults
  | Flaky_link of int * int * Net.faults
  | Steady
  | Clock_skew of int * float * float
      (* rep, offset, rate: its virtual clock reads offset + rate * now;
         (0, 1) restores the true clock *)
  | Disk_full of int * Wal.io_fault option
      (* arm (Some fault) or heal (None) the rep's WAL write failure *)
  | Slow of int * float
      (* gray failure: every link touching the rep multiplies its latency by
         the factor — the node stays up and answers everything, just late *)
  | Anti_entropy of float
      (* start the group's background sync actor at this mean period *)

type step = { at : float; action : action }

(* Administrative changes an admin fiber drives through a plan, in order. *)
type change =
  | Join of { slot : int; votes : int; read_quorum : int; write_quorum : int }
  | Retire of { slot : int; read_quorum : int; write_quorum : int }
  | Split

type world = Single | Members of Member.record | Shards of int

type plan = {
  plan_name : string;
  duration : float;
  world : world;
  steps : step list;
  changes : (float * change) list;
      (* each change starts this long after the previous one finished *)
  robust : bool;  (* arm the overload/gray-failure stack *)
}

let pp_action ppf = function
  | Crash i -> Format.fprintf ppf "crash rep%d" i
  | Recover i -> Format.fprintf ppf "recover rep%d" i
  | Torn_crash (i, f) ->
      Format.fprintf ppf "crash rep%d with %a" i Wal.pp_storage_fault f
  | Partition (a, b) ->
      let side ppf g =
        Format.pp_print_list
          ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
          Format.pp_print_int ppf g
      in
      Format.fprintf ppf "partition {%a} | {%a}" side a side b
  | Heal -> Format.pp_print_string ppf "heal partitions"
  | Flaky _ -> Format.pp_print_string ppf "flaky links (all)"
  | Flaky_link (a, b, _) -> Format.fprintf ppf "flaky link %d-%d" a b
  | Steady -> Format.pp_print_string ppf "steady network"
  | Clock_skew (i, 0.0, 1.0) -> Format.fprintf ppf "restore rep%d clock" i
  | Clock_skew (i, offset, rate) ->
      Format.fprintf ppf "skew rep%d clock (offset %+.1f, rate %.2fx)" i offset rate
  | Disk_full (i, Some f) -> Format.fprintf ppf "arm %a at rep%d" Wal.pp_io_fault f i
  | Disk_full (i, None) -> Format.fprintf ppf "heal disk at rep%d" i
  | Slow (i, factor) -> Format.fprintf ppf "slow rep%d (%.0fx latency)" i factor
  | Anti_entropy period -> Format.fprintf ppf "start anti-entropy (period %g)" period

(* The parameters of one campaign run; [None] marks one a plan's world
   cannot honour. *)
type params = {
  seed : int64;
  config : Config.t option;
  duration : float;
  key_space : int;
  clients : int;
  groups : int option;
  cache : bool option;
  batching : bool option;
}

(* --- standard plans ----------------------------------------------------------------- *)

(* A plan's steps, one cycle at a time from [start] while the clock is
   before [until]: [body ~rng ~emit k t] emits cycle [k]'s steps, which
   starts at [t], and returns the next cycle's start. Every choice is drawn
   from one generator seeded by the caller, so a plan is a pure function of
   (seed, n, params) and runs replay exactly. *)
let cycles ~seed ~start ~until body =
  let rng = Rng.create seed and steps = ref [] in
  let emit at action = steps := { at; action } :: !steps in
  let rec go k t = if t < until then go (k + 1) (body ~rng ~emit k t) in
  go 0 start;
  List.rev !steps

(* Every node in [0, nodes) but [i]. *)
let all_but i nodes = List.filter (fun j -> j <> i) (List.init nodes Fun.id)

let single ?(robust = false) plan_name (p : params) steps =
  { plan_name; duration = p.duration; world = Single; steps; changes = []; robust }

let crash_storm ~seed ~n (p : params) =
  single "crash storm" p
  @@ cycles ~seed ~start:30.0 ~until:(p.duration -. 60.0) (fun ~rng ~emit _ t ->
         (* A wave: each representative independently crashes with
            probability 0.45, staggered a little; everyone recovers before
            the next wave. *)
         let hold = 20.0 +. Rng.float rng 20.0 in
         for i = 0 to n - 1 do
           if Rng.float rng 1.0 < 0.45 then begin
             emit (t +. Rng.float rng 4.0) (Crash i);
             emit (t +. hold +. Rng.float rng 6.0) (Recover i)
           end
         done;
         t +. hold +. 25.0 +. Rng.float rng 20.0)

let rolling_partition ~seed ~n (p : params) =
  let client = n (* the single client sits on the node after the reps *) in
  single "rolling partition" p
  @@ cycles ~seed ~start:25.0 ~until:(p.duration -. 50.0) (fun ~rng ~emit k t ->
         let window = 25.0 +. Rng.float rng 20.0 in
         let i = k mod n in
         let rest = all_but i n in
         (* Usually isolate one representative from everyone (client
            included) — the suite must keep going on the remaining quorum.
            Every third cycle, trap the client alone with that
            representative instead: no quorum is reachable, every operation
            must fail cleanly, and healing must leave no split-brain. *)
         emit t
           (if k mod 3 = 2 then Partition ([ client; i ], rest)
            else Partition ([ i ], client :: rest));
         emit (t +. window) Heal;
         t +. window +. 10.0 +. Rng.float rng 10.0)

let flaky_links ~seed ~n (p : params) =
  let gremlin =
    { Net.drop = 0.05; duplicate = 0.12; reorder = 0.25; reorder_delay = 10.0; spike = 0.05;
      spike_factor = 4.0 }
  in
  let client = n (* the single client sits on the node after the reps *) in
  single "flaky links" p
  @@ cycles ~seed ~start:20.0 ~until:(p.duration -. 40.0) (fun ~rng ~emit k t ->
         let window = 40.0 +. Rng.float rng 20.0 in
         (* Alternate network-wide gremlins with a single very lossy client
            link — the per-link override path. *)
         if k mod 2 = 0 then emit t (Flaky gremlin)
         else
           emit t
             (Flaky_link (client, Rng.int rng n, { gremlin with drop = 0.35; duplicate = 0.25 }));
         emit (t +. window) Steady;
         t +. window +. 10.0 +. Rng.float rng 10.0)

let torn_wal_crashes ~seed ~n (p : params) =
  let faults = [| Wal.Tear_tail; Wal.Corrupt_tail; Wal.Truncate_tail 1; Wal.Truncate_tail 2 |] in
  single "torn-WAL crashes" p
  @@ cycles ~seed ~start:30.0 ~until:(p.duration -. 60.0) (fun ~rng ~emit k t ->
         let victim = Rng.int rng n in
         let hold = 15.0 +. Rng.float rng 15.0 in
         emit t (Torn_crash (victim, faults.(k mod Array.length faults)));
         emit (t +. hold) (Recover victim);
         t +. hold +. 20.0 +. Rng.float rng 15.0)

(* Aim squarely at the two-phase commit window: briefly isolate the client
   (which is also the coordinator) over and over, so some cuts land between
   the prepare round and the decision or between the decision and the commit
   round. Prepared participants are left holding locks with a vanished
   coordinator — exactly what the termination protocol exists to clean up:
   unprepared ones abort unilaterally on lease expiry, prepared ones go in
   doubt and resolve by querying the coordinator after the heal (or a peer
   when only the coordinator link stays cut). Windows are short so the
   client comes back to find its transactions terminated under it. *)
let coordinator_crash ~seed ~n (p : params) =
  let client = n (* the single client sits on the node after the reps *) in
  let reps = List.init n Fun.id in
  single "coordinator crash" p
  @@ cycles ~seed ~start:20.0 ~until:(p.duration -. 60.0) (fun ~rng ~emit _ t ->
         let window = 3.0 +. Rng.float rng 12.0 in
         emit t (Partition ([ client ], reps));
         emit (t +. window) Heal;
         (* Occasionally keep the coordinator cut off across a whole lease
            period while a representative also bounces: in-doubt resolution
            must fall back to peers and to recovery-restored state. *)
         if Rng.float rng 1.0 < 0.3 then begin
           let victim = Rng.int rng n in
           let at = t +. window +. 2.0 +. Rng.float rng 5.0 in
           emit at (Crash victim);
           emit (at +. 15.0 +. Rng.float rng 10.0) (Recover victim)
         end;
         t +. window +. 15.0 +. Rng.float rng 15.0)

(* Skew and drift representative virtual clocks: a fast clock (rate > 1)
   expires leases early — spurious unilateral aborts and in-doubt
   resolutions the termination protocol must absorb without losing committed
   work — while a slow one holds leases long past their true deadline, so
   stranded locks linger and other fault windows pile on top. Offsets are
   lease-scale, making absolute deadlines disagree across nodes. The network
   and the client keep the true clock throughout. *)
let clock_skew ~seed ~n (p : params) =
  single "clock skew" p
  @@ cycles ~seed ~start:25.0 ~until:(p.duration -. 80.0) (fun ~rng ~emit _ t ->
         let victim = Rng.int rng n in
         let offset = Rng.float rng 80.0 -. 40.0 in
         let rate = 0.25 +. Rng.float rng 3.75 in
         let hold = 40.0 +. Rng.float rng 40.0 in
         emit t (Clock_skew (victim, offset, rate));
         emit (t +. hold) (Clock_skew (victim, 0.0, 1.0));
         t +. hold +. 15.0 +. Rng.float rng 15.0)

(* Fill the disk under a running representative: every WAL append fails
   (typed error) until the heal, so mutating transactions must abort cleanly
   while the representative stays up and keeps answering reads. Occasionally
   bounce the victim shortly after the heal — the log it replays must be
   exactly the prefix it acknowledged before the disk filled. *)
let disk_full ~seed ~n (p : params) =
  single "disk full" p
  @@ cycles ~seed ~start:25.0 ~until:(p.duration -. 70.0) (fun ~rng ~emit k t ->
         let victim = Rng.int rng n in
         let fault = if k mod 3 = 2 then Wal.Io_error else Wal.Disk_full in
         let hold = 20.0 +. Rng.float rng 25.0 in
         emit t (Disk_full (victim, Some fault));
         emit (t +. hold) (Disk_full (victim, None));
         if Rng.float rng 1.0 < 0.35 then begin
           let at = t +. hold +. 2.0 +. Rng.float rng 4.0 in
           emit at (Crash victim);
           emit (at +. 10.0 +. Rng.float rng 8.0) (Recover victim)
         end;
         t +. hold +. 20.0 +. Rng.float rng 15.0)

(* A representative turns gray: alive, answering everything, but an order of
   magnitude slow — the failure mode crash detectors never see. The victims
   rotate so every slot gets its turn as the outlier. A correct client keeps
   its latency flat by choosing quorums around the gray node (health-scored
   quorum selection); a naive one queues behind it for the whole window. *)
let slow_replica ~seed ~n (p : params) =
  single ~robust:true "slow replica" p
  @@ cycles ~seed ~start:25.0 ~until:(p.duration -. 80.0) (fun ~rng ~emit k t ->
         let factor = 6.0 +. Rng.float rng 10.0 in
         let hold = 60.0 +. Rng.float rng 60.0 in
         emit t (Slow (k mod n, factor));
         emit (t +. hold) Steady;
         t +. hold +. 20.0 +. Rng.float rng 20.0)

(* Metastable-failure bait: repeated short total outages (every representative
   but one crashes) leave each client's retry schedule primed, and recovery
   delivers the accumulated wave to freshly-restarted nodes all at once. The
   overload machinery must absorb it — admission control sheds the excess
   (maintenance first), retry budgets keep clients from amplifying sustained
   unavailability, deadline stamps stop expired work from being served — and
   an occasional duplicate-heavy flaky window exercises the dedup cache's
   bounded eviction in the middle of the storm. *)
let retry_storm ~seed ~n (p : params) =
  single ~robust:true "retry storm" p
  @@ cycles ~seed ~start:25.0 ~until:(p.duration -. 80.0) (fun ~rng ~emit k t ->
         let hold = 6.0 +. Rng.float rng 10.0 in
         let survivor = Rng.int rng n in
         for i = 0 to n - 1 do
           if i <> survivor then begin
             emit (t +. Rng.float rng 2.0) (Crash i);
             emit (t +. hold +. Rng.float rng 4.0) (Recover i)
           end
         done;
         if k mod 3 = 2 then begin
           let at = t +. hold +. 6.0 in
           let window = 15.0 +. Rng.float rng 10.0 in
           emit at (Flaky { Net.no_faults with duplicate = 0.3; drop = 0.1 });
           emit (at +. window) Steady
         end;
         t +. hold +. 15.0 +. Rng.float rng 15.0)

(* The paper's availability argument as five equal windows: all up, rep0
   down, rep0 and rep1 down, rep1 back (stale), everyone back. A 3-2-2 suite
   serves in every window but the third, where it must refuse service
   rather than answer wrongly. *)
let crash_timeline ~seed:_ ~n:_ (p : params) =
  let at k action = { at = float_of_int k *. p.duration /. 5.0; action } in
  single "crash timeline" p [ at 1 (Crash 0); at 2 (Crash 1); at 3 (Recover 1); at 4 (Recover 0) ]

(* Steady traffic under a background anti-entropy actor while, every 105
   units, one representative is cut off from every node for 45 — the
   representatives, the workload clients and the sync node alike. Its
   orphaned transactions must terminate through leases and in-doubt
   resolution, and the actor must repair what it missed. *)
let partition_sync period ~seed ~n (p : params) =
  single (Printf.sprintf "partition sync %g" period) p
  @@ { at = 0.0; action = Anti_entropy period }
     :: cycles ~seed ~start:60.0 ~until:p.duration (fun ~rng ~emit _ t ->
            let victim = Rng.int rng n in
            emit t (Partition ([ victim ], all_but victim (n + p.clients + 1)));
            emit (t +. 45.0) Heal;
            t +. 105.0)

(* Faults aimed at an admin driver: brief single-representative isolations
   (the victim is cut from every node — clients, admin and syncer included,
   hence [n_nodes]) and, every third cycle, a short bounce, separated by calm
   windows ([calm] plus up to [jitter]) long enough for the driver's retry
   loops to make progress. The victims rotate over every representative
   slot, so some windows land exactly on the representative the driver is
   trying to catch up, drain or copy onto. *)
let isolations ~seed ~victims ~n_nodes ~calm ~jitter ~duration =
  cycles ~seed ~start:50.0 ~until:(duration -. 80.0) (fun ~rng ~emit k t ->
      let window = 10.0 +. Rng.float rng 8.0 in
      let victim = k mod victims in
      emit t (Partition ([ victim ], all_but victim n_nodes));
      emit (t +. window) Heal;
      if k mod 3 = 1 then begin
        let at = t +. window +. 8.0 +. Rng.float rng 6.0 in
        emit at (Crash victim);
        emit (at +. 8.0 +. Rng.float rng 6.0) (Recover victim)
      end;
      t +. window +. calm +. Rng.float rng jitter)

(* Node layout of a plan with changes: representatives, the workload
   clients, the admin, the anti-entropy node. *)
let admin_nodes ~reps ~clients = reps + clients + 2

(* The world starts as the paper's 3-2-2 suite plus a zero-vote [Joining]
   slot 3 (an empty representative no quorum ever touches); at 80 the admin
   joins slot 3 with one vote (4 votes, R=2, W=3), and 60 after the join
   finishes it drains slot 0 back out to the 3-member [0;1;1;1] R=2 W=2
   view. The calm gap must fit a whole converge mega-session (a couple
   hundred time units of digest walks and lease heartbeats across every
   participant) or the driver can never make progress. *)
let reconfig_plan ~seed ~n:_ (p : params) =
  let config = Config.make_exn ~votes:[| 1; 1; 1; 0 |] ~read_quorum:2 ~write_quorum:2 in
  {
    plan_name = "reconfig";
    duration = p.duration;
    world =
      Members
        (Member.initial ~config
           ~roster:[| Member.Active; Member.Active; Member.Active; Member.Joining |]);
    steps =
      isolations ~seed ~victims:4 ~n_nodes:(admin_nodes ~reps:4 ~clients:p.clients) ~calm:240.0
        ~jitter:60.0 ~duration:p.duration;
    changes =
      [
        (80.0, Join { slot = 3; votes = 1; read_quorum = 2; write_quorum = 3 });
        (60.0, Retire { slot = 0; read_quorum = 2; write_quorum = 2 });
      ];
    robust = false;
  }

(* [groups] groups of [n] representatives; at 80 the admin splits the last
   shard onto the empty last group. The calm windows are shorter than
   reconfig's: the migration's catch-up sessions are sliced to the moving
   range, so a modest fault-free stretch fits a whole hub round plus the
   digest gate. *)
let shard_plan ~seed ~n (p : params) =
  let groups = Option.get p.groups in
  let reps = groups * n in
  {
    plan_name = "sharded split";
    duration = p.duration;
    world = Shards groups;
    steps =
      isolations ~seed ~victims:reps ~n_nodes:(admin_nodes ~reps ~clients:p.clients) ~calm:160.0
        ~jitter:40.0 ~duration:p.duration;
    changes = [ (80.0, Split) ];
    robust = false;
  }

(* --- the catalogue ---------------------------------------------------------------------- *)

type entry = {
  name : string;
  family : string;
  doc : string;
  defaults : params;
  mix : int;
  slot : int option;
  build : seed:int64 -> n:int -> params -> plan;
}

let base =
  { seed = 1983L; config = Some (Config.simple ~n:3 ~r:2 ~w:2); duration = 1000.0;
    key_space = 30; clients = 1; groups = None; cache = Some false; batching = Some false }

(* Mix indices and sweep slots are fixed for good: a campaign derives each
   plan's schedule seed from the former and its world seed from the latter,
   so reusing either would silently re-seed a registered campaign. *)
let catalogue =
  let entry ?(defaults = base) ?slot ~mix name family doc build =
    { name; family; doc; defaults; mix; slot; build }
  in
  let sync period =
    entry ~mix:0 ~defaults:{ base with duration = 900.0 }
      (Printf.sprintf "partition sync %g" period)
      "anti-entropy" "background anti-entropy under a 45-in-105 partition cycle"
      (partition_sync period)
  in
  [
    entry ~slot:0 ~mix:1 "crash storm" "standard" "waves of correlated crashes and recoveries"
      crash_storm;
    entry ~slot:1 ~mix:2 "rolling partition" "standard"
      "each representative isolated in turn; every third cycle traps the client" rolling_partition;
    entry ~slot:2 ~mix:3 "flaky links" "standard"
      "network-wide drop/duplicate/reorder gremlins and a lossy client link" flaky_links;
    entry ~slot:3 ~mix:4 "torn-WAL crashes" "standard"
      "crashes that tear, corrupt, or truncate the WAL tail at the worst instant" torn_wal_crashes;
    entry ~slot:4 ~mix:5 "coordinator crash" "standard"
      "the coordinator vanishes inside the two-phase-commit window" coordinator_crash;
    entry ~slot:5 ~mix:6 "clock skew" "extended"
      "lease-scale virtual-clock skew and drift on representatives" clock_skew;
    entry ~slot:6 ~mix:7 "disk full" "extended"
      "WAL appends fail with typed errors until the disk heals" disk_full;
    entry ~slot:7 ~mix:9 "slow replica" "robustness"
      "one representative turns gray (6-16x latency, never crashed), rotating victims" slow_replica;
    entry ~slot:8 ~mix:10 "retry storm" "robustness"
      "repeated short total outages deliver the retry wave to recovering nodes" retry_storm;
    entry ~mix:8 "reconfig" "membership" "online join and retire under partitions and bounces"
      ~defaults:
        { base with config = None; duration = 1500.0; key_space = 24; clients = 2; cache = None;
          batching = None }
      reconfig_plan;
    entry ~mix:11 "sharded split" "sharding"
      "a shard split migrates the top key range to a new group under partitions and bounces"
      ~defaults:
        { base with duration = 1500.0; key_space = 24; clients = 2; groups = Some 2; cache = None;
          batching = None }
      shard_plan;
    entry ~mix:0 "crash timeline" "availability" ~defaults:{ base with duration = 2500.0 }
      "rep0, then rep1, crash and recover in five equal windows" crash_timeline;
    sync 10.0;
    sync 30.0;
    sync 100.0;
    sync 300.0;
  ]

let find name = List.find (fun e -> String.equal e.name name) catalogue

let plan_of (p : params) e =
  e.build
    ~seed:(Int64.add p.seed (Int64.mul 7919L (Int64.of_int e.mix)))
    ~n:(Option.fold ~none:0 ~some:Config.n_reps p.config)
    p

(* --- running a plan ------------------------------------------------------------------- *)

(* What the consistency auditor saw: the recorded history judged by the
   checker, and the quiesce-time scrub. *)
type audit = {
  checker_violations : string list;
  scrub_violations : string list;
  checked_ops : int;
  ambiguous_ops : int;
  keys_given_up : int;
  events : History.event list;  (* the retained window, in finish order *)
  events_dropped : int;
}

type progress = {
  what : change;
  started_at : float;
  completed_at : float option;
  gate_ok : bool;
  rounds : int;
  sessions : int;
}

type report = {
  progress : progress list;
  final_epoch : int;
  epoch_agreed : bool;
  in_flight : bool;
  n_groups : int;
  n_shards : int;
  steady_ops : int;
  steady_span : float;
  during_ops : int;
  during_span : float;
}

type window = {
  since : float;
  until : float;
  opened_by : action list;
  up_reps : int;
  ok_ops : int;
  unavailable_ops : int;
}

type sync_report = {
  period : float;
  sync_counters : Sync.counters;
  mean_stale : float;
  end_stale : int;
  digests_equal : bool;
}

type outcome = {
  plan : string;
  params : params;
  world_seed : int64;
  attempted : int;
  succeeded : int;
  unavailable : int;
  violations : int;
  final_keys_checked : int;
  rpc_retries : int;
  msgs_dropped : int;
  msgs_duplicated : int;
  msgs_reordered : int;
  wal_records_repaired : int;
  checkpoints : int;
  wal_over_live : int;
  sim_events : int;
  leases_expired : int;
  unilateral_aborts : int;
  indoubt_by_coordinator : int;
  indoubt_by_peer : int;
  indoubt_recovered : int;
  orphan_locks : int;
  indoubt_open : int;
  cache_stats : Cache.counters option;
  audit : audit;
  change : report option;
  windows : window list;
  anti_entropy : sync_report option;
}

let audit_violations o =
  List.length o.audit.checker_violations + List.length o.audit.scrub_violations

let total_violations o = o.violations + audit_violations o

let completed r =
  r.epoch_agreed && List.for_all (fun p -> p.completed_at <> None && p.gate_ok) r.progress

let pp_report ppf r =
  let stamp ppf = function
    | Some t -> Format.fprintf ppf "t=%.1f" t
    | None -> Format.pp_print_string ppf "never"
  in
  let name = function Join _ -> "join" | Retire _ -> "retire" | Split -> "split" in
  let first = List.hd r.progress in
  let gate = if first.gate_ok then "passed" else "FAILED" in
  List.iteri
    (fun i p ->
      let verb = if p.what = Split then "flipped" else "completed" in
      if i = 0 then
        Format.fprintf ppf "%s started t=%.1f, %s %a" (name p.what) p.started_at verb stamp
          p.completed_at
      else Format.fprintf ppf "; %s %s %a" (name p.what) verb stamp p.completed_at)
    r.progress;
  (match first.what with
  | Split ->
      Format.fprintf ppf
        "; slice digest gate %s (%d rounds, %d catch-up sessions); final shard epoch %d (%s \
         across %d groups / %d shards)"
        gate first.rounds first.sessions r.final_epoch
        (if r.epoch_agreed then "agreed" else "DISAGREED")
        r.n_groups r.n_shards
  | Join _ | Retire _ ->
      let sessions p =
        Printf.sprintf "%d %s" p.rounds (match p.what with Retire _ -> "drain" | _ -> "converge")
      in
      Format.fprintf ppf "; digest gate %s (%s sessions); final epoch %d" gate
        (String.concat ", " (List.map sessions r.progress))
        r.final_epoch);
  Format.fprintf ppf "; throughput %d ops/%.0fu steady, %d ops/%.0fu during %s" r.steady_ops
    r.steady_span r.during_ops r.during_span (name first.what)

(* The record a plan's changes advance: a one-group world is governed by a
   membership record (a [Single] world by the epoch-0 record of its
   configuration), a sharded one by its shard map. *)
type live = Voted of Member.record ref | Sharded of Shard_map.t ref

type client = Suite of Suite.t | Router of Router.t

let lookup c k = match c with Suite s -> Suite.lookup s k | Router r -> Router.lookup r k
let insert c k v = match c with Suite s -> Suite.insert s k v | Router r -> Router.insert r k v
let update c k v = match c with Suite s -> Suite.update s k v | Router r -> Router.update r k v
let delete c k = match c with Suite s -> Suite.delete s k | Router r -> Router.delete r k

let transports = function
  | Suite s -> [ Suite.transport s ]
  | Router r -> List.init (Router.n_groups r) (fun g -> Suite.transport (Router.suite r g))

let acked = function Ok acked -> acked | Error _ -> false

(* Install a fence stamp — the fence, an epoch and its encoded record — on
   representative [r]; [true] once acknowledged. *)
let install tr r (fence, epoch, record) =
  acked (Transport.send tr r (fun rep -> Rep.install_epoch rep fence ~epoch ~record))

let covers_write (cfg : Config.t) acked =
  let sum = ref 0 in
  Array.iteri (fun i ok -> if ok then sum := !sum + Config.votes_of cfg i) acked;
  !sum >= cfg.Config.write_quorum

(* Install on the [n] representatives until the acknowledging set satisfies
   [covered], a round every 6 units; gives up at [deadline], which is
   checked before each round. *)
let install_until sim ~deadline n ~covered install =
  let acked = Array.make n false in
  let round _ =
    covered acked || Sim.now sim >= deadline
    ||
    (for r = 0 to n - 1 do
       if not acked.(r) then acked.(r) <- install r
     done;
     covered acked)
  in
  ignore (Sim.retry sim ~every:6.0 (`Until infinity) round);
  covered acked

(* A membership change, as one two-step transition: write the joint record
   (under joint quorums), fence the old epoch, run converge sessions with
   the changing slot as hub until the atomic digest gate passes, then write
   and fully broadcast the stable record. A transition that cannot pass the
   gate leaves the record joint — joint quorums keep governing, which is
   safe indefinitely.

   Epoch installation covers the write quorum of every view of both the
   previous and the new record before the driver proceeds, so every quorum
   a straggler could collect at the old epoch crosses a fencing
   representative; completed transitions are additionally broadcast to all
   representatives before the next one begins, which bounds any client's
   staleness at one record. *)
let member_change ~sim ~deadline ~key_space ~admin ~syncer ~rng record change =
  let n = Config.n_reps (Member.current !record).Member.config in
  let tr = Suite.transport admin in
  let rounds = ref 0 in
  (* Install [next]'s epoch until the acknowledging set covers the write
     quorum of every view of [prev] and [next] ([all]: every
     representative). *)
  let fence ~all ~prev next =
    let views = Member.views prev @ Member.views next in
    install_until sim ~deadline n
      (fun r -> install tr r (Rep.Membership, Member.epoch_of next, Member.encode next))
      ~covered:(fun acked ->
        if all then Array.for_all Fun.id acked
        else List.for_all (fun v -> covers_write v.Member.config acked) views)
  in
  (* Write the encoded record to the distinguished directory entry through
     the admin suite — under whatever quorums the suite's current membership
     record demands (the joint ones, at every call site below). *)
  let write_record m =
    let enc = Member.encode m in
    Sim.retry sim ~every:8.0 (`Until deadline) (fun _ ->
        match
          Suite.with_retries ~attempts:5 ~backoff:3.0 ~sleep:(Sim.sleep sim) ~rng (fun () ->
              match Suite.update admin Member.key enc with
              | Ok () -> ()
              | Error `Not_present -> (
                  match Suite.insert admin Member.key enc with
                  | Ok () -> ()
                  | Error `Already_present ->
                      raise (Suite.Unavailable "membership record write raced")))
        with
        | () -> true
        | exception (Suite.Unavailable _ | Txn.Abort _) -> false)
  in
  (* Converge participant sets for a joint record: the hub plus enough old-
     view members to cover a read quorum of the old view — every committed
     write's quorum intersects such a set, so the hub ends up dominating
     every committed version. The full suite comes first (it also converges
     the bystanders); the minimal subsets let an attempt dodge a partitioned
     or crashed victim. *)
  let converge_subsets ~hub joint =
    let old_view = List.hd (Member.views joint) in
    let votes i = Config.votes_of old_view.Member.config i in
    let voters = List.filter (fun i -> i <> hub && votes i > 0) (List.init n Fun.id) in
    let pairs =
      List.concat_map
        (fun a ->
          List.filter_map
            (fun b ->
              if b > a && votes a + votes b >= old_view.Member.config.Config.read_quorum
              then Some [ hub; a; b ]
              else None)
            voters)
        voters
    in
    List.init n Fun.id :: pairs
  in
  let transition ~joint ~hub =
    (* Narrow the hub's divergence with ordinary pairwise digest sessions
       while the old record still governs — the paper-side of "catches up
       while holding zero votes". A joining hub pulls from each voter; a
       retiring hub pushes its surplus out. The converge mega-session that
       actually gates the transition then holds its whole-directory locks
       only briefly, so client traffic keeps flowing through most of the
       change. Failed sessions (faults, lost deadlocks) are fine: converge
       is the correctness gate, this is a warm-up. *)
    (let pre_view = Member.current !record in
     let votes i = Config.votes_of pre_view.Member.config i in
     let as_src = votes hub > 0 in
     let voters = List.filter (fun i -> i <> hub && votes i > 0) (List.init n Fun.id) in
     (* Quarter the key space: each slice session holds its range locks only
        briefly, so client traffic flows between the slices. The first slice
        starts at [Bound.Low] and therefore carries the membership entry
        too. *)
     let quarter k = Bound.Key (Key.of_int (k * key_space / 4)) in
     let slices =
       [ (Bound.Low, quarter 1); (quarter 1, quarter 2); (quarter 2, quarter 3);
         (quarter 3, Bound.High) ]
     in
     List.iter
       (fun v ->
         List.iter
           (fun (lo, hi) ->
             if Sim.now sim < deadline then begin
               ignore
                 ((if as_src then Sync.session_between syncer ~lo ~hi ~src:hub ~dst:v
                   else Sync.session_between syncer ~lo ~hi ~src:v ~dst:hub)
                   : bool);
               Sim.sleep sim 4.0
             end)
           slices)
       voters);
    Suite.set_membership admin joint;
    let ok = write_record joint in
    let ok = ok && fence ~all:false ~prev:!record joint in
    record := joint;
    let subsets = converge_subsets ~hub joint in
    let ok =
      ok
      && Sim.retry sim ~every:10.0 (`Until deadline) (fun k ->
             incr rounds;
             let among = List.nth subsets (k mod List.length subsets) in
             Option.fold ~none:false ~some:Sync.digests_equal (Sync.converge syncer ~hub ~among))
    in
    let completed =
      ok
      &&
      match Member.finish_change joint with
      | Error _ -> false
      | Ok stable ->
          (* Written while the admin suite still holds the joint record, so
             the write collects quorums in both views. *)
          let wrote = write_record stable in
          Suite.set_membership admin stable;
          let installed = fence ~all:true ~prev:joint stable in
          record := stable;
          wrote && installed
    in
    (ok, completed)
  in
  let joint, hub =
    match change with
    | Join { slot; votes; read_quorum; write_quorum } ->
        (Member.join !record ~slot ~votes ~read_quorum ~write_quorum, slot)
    | Retire { slot; read_quorum; write_quorum } ->
        (Member.retire !record ~slot ~read_quorum ~write_quorum, slot)
    | Split -> invalid_arg "Nemesis: a split needs a sharded world"
  in
  let gate_ok, completed =
    match joint with Error _ -> (false, false) | Ok joint -> transition ~joint ~hub
  in
  {
    what = change;
    started_at = 0.0;
    completed_at = (if completed then Some (Sim.now sim) else None);
    gate_ok;
    rounds = !rounds;
    sessions = 0;
  }

(* A range split, end to end:

   - the admin splits the last shard at the [groups-1]/[groups] point of
     the key space: {!Shard_map.begin_split} puts the upper slice into
     [Moving], and the new epoch is installed on a write quorum of the
     source group's votes BEFORE the copy starts — from then on any write
     quorum a stale client collects on the slice crosses a fencing
     representative and aborts wholesale, so the slice is frozen;
   - sliced {!Sync.session_between} hub rounds copy the slice into the
     target group (and converge the source group's own replicas on it),
     until the digest gate — every replica of both groups reports the same
     {!Rep.digest_interior_range} over the slice — passes;
   - {!Shard_map.finish_move} lands the slice on the target group; the new
     epoch is installed on the source group FIRST (fencing the stale readers
     still routed there), then the target, then broadcast to everyone at
     quiesce, which bounds any client's staleness at one map.

   A split that cannot pass its gate leaves the map [Moving] — reads keep
   flowing from the source group, which is safe indefinitely. *)
let split_change ~sim ~deadline ~key_space world ~admin ~cross map =
  let groups = Shard_world.groups world in
  let n = Config.n_reps (Shard_world.config world) in
  let cut_int = (groups - 1) * key_space / groups in
  let src_g = groups - 2 and dst_g = groups - 1 in
  let tr g = Suite.transport (Router.suite admin g) in
  (* Install [m]'s epoch on group [g] until the acknowledging set covers the
     group's write quorum of votes: from then on any quorum a stale client
     collects there crosses a fencing representative (reads too, since
     R + W exceeds the total). *)
  let install_group g m =
    install_until sim ~deadline n
      (fun r -> install (tr g) r (Rep.Shard_map, Shard_map.epoch_of m, Shard_map.encode m))
      ~covered:(covers_write (Shard_world.config world))
  in
  (* The copy slice: {!Sync.session_between} and {!Rep.digest_range} work on
     half-open-at-the-low-side ranges [(lo, hi]], while the moving shard owns
     [[cut, HIGH)] — so the slice starts just below the cut. The workload
     only mints [Key.of_int] keys, so nothing lives strictly between
     [cut - 1] and [cut] and the slice is exactly the frozen range. *)
  let slice_lo = Bound.Key (Key.of_int (cut_int - 1)) in
  let slice_hi = Bound.High in
  let slice_digest g r =
    let txns = Shard_world.txns world in
    let txn = Txn.Manager.begin_txn txns in
    let res =
      Transport.send (tr g) r (fun rep ->
          (* The interior digest: the gap immediately above [slice_lo]
             extends below the cut, so its version keeps moving with live
             deletions in the un-frozen half and would never agree between
             source (bumped continuously) and target (as of the last
             session). The fence freezes everything the flip hands over —
             entries and interior absence proofs — and that is exactly what
             this digest covers. *)
          let d = Rep.digest_interior_range rep ~txn ~lo:slice_lo ~hi:slice_hi in
          Rep.abort rep ~txn;
          d)
    in
    Txn.Manager.abort txns txn;
    match res with Ok d -> Some d | Error _ -> None
  in
  (* The gate: EVERY replica of both groups reports the same slice digest —
     all of the source's (they may have diverged before the freeze; a read
     quorum of any divergent pair dominates, and the hub rounds below push
     the merged slice back out) and all of the target's (so after the flip
     any read quorum there holds the full slice). Source-side writes are
     frozen by the fence, so the per-replica snapshots compose soundly. *)
  let gate_pass () =
    let peers = List.init n (fun r -> (src_g, r)) @ List.init n (fun r -> (dst_g, r)) in
    let ds =
      List.filter_map
        (fun (g, r) -> Option.map (fun d -> ((g * n) + r, d)) (slice_digest g r))
        peers
    in
    List.length ds = 2 * n && Sync.digests_equal ds
  in
  (* One hub round: pull every peer's slice onto target replica 0, then push
     the union back onto everyone — source and target replicas alike end up
     holding the merged slice. *)
  let hub = n in
  let rounds = ref 0 and sessions = ref 0 in
  let session ~src ~dst =
    if Sim.now sim < deadline then begin
      incr sessions;
      ignore (Sync.session_between cross ~lo:slice_lo ~hi:slice_hi ~src ~dst : bool);
      Sim.sleep sim 3.0
    end
  in
  let catchup_round _ =
    incr rounds;
    for p = 0 to (2 * n) - 1 do
      if p <> hub then session ~src:p ~dst:hub
    done;
    for p = 0 to (2 * n) - 1 do
      if p <> hub then session ~src:hub ~dst:p
    done;
    gate_pass ()
  in
  let gate_ok, completed =
    match
      Shard_map.begin_split !map ~shard:(Shard_map.n_shards !map - 1)
        ~at:(Key.of_int cut_int) ~to_g:dst_g
    with
    | Error _ -> (false, false)
    | Ok moving -> (
        let fenced = install_group src_g moving in
        map := moving;
        Router.set_map admin moving;
        let ok = fenced && Sim.retry sim ~every:10.0 (`Until deadline) catchup_round in
        if not ok then (false, false)
        else
          match Shard_map.finish_move moving ~shard:(Shard_map.n_shards moving - 1) with
          | Error _ -> (true, false)
          | Ok landed ->
              (* Source first: stale readers of the slice — still routed to
                 the source group while their map says [Moving] — are fenced
                 into adopting the landed map before the target serves. *)
              let on_src = install_group src_g landed in
              let on_dst = install_group dst_g landed in
              map := landed;
              Router.set_map admin landed;
              (true, on_src && on_dst))
  in
  {
    what = Split;
    started_at = 0.0;
    completed_at = (if completed then Some (Sim.now sim) else None);
    gate_ok;
    rounds = !rounds;
    sessions = !sessions;
  }

(* Mean think time between a client's operations, and the transaction
   lease every representative arms. *)
let op_gap = 2.0
let lease = 60.0

let fail what = invalid_arg ("Nemesis.run_plan: " ^ what)

(* Client [c]'s handle on the live record: a membership-armed suite, or a
   router over the shard map. *)
let client_handle ?recorder ?health ?cache ?batching world live c =
  match live with
  | Voted m ->
      let s = Shard_world.suite_for_client ?recorder ?health ?cache ?batching world c 0 in
      Suite.set_membership s !m;
      Suite s
  | Sharded m -> Router (Shard_world.router_for_client ?recorder world c ~map:!m)

(* The live record's current fence stamp. *)
let stamp = function
  | Voted m -> (Rep.Membership, Member.epoch_of !m, Member.encode !m)
  | Sharded m -> (Rep.Shard_map, Shard_map.epoch_of !m, Shard_map.encode !m)

let empty_window ~until since =
  { since; until; opened_by = []; up_reps = 0; ok_ops = 0; unavailable_ops = 0 }

(* What one run's phases share: the world, the workload's handles and
   sequential model, and the tallies the outcome reports. *)
type run = {
  plan : plan;
  params : params;  (* as the outcome records them *)
  world : Shard_world.t;
  sim : Sim.t;
  net : Net.t;
  n : int;  (* representatives per group *)
  groups : int;
  live : live;
  reps : Rep.t array;  (* plan representative [i] is group [i / n]'s slot [i mod n] *)
  actor : (float * Sync.t) option;  (* the period and actor an [Anti_entropy] step starts *)
  recorders : History.recorder array;
  checker : Checker.t;
  health : Picker.Health.t option;
  caches : Cache.t array;
  handles : client array;
  budgets : Suite.Retry_budget.t option array;
  retry_rng : Rng.t;  (* client 0's retry jitter, shared with the final sweep *)
  model : (string, string) Hashtbl.t;
  mutable attempted : int;
  mutable violations : int;
  mutable samples : int list;  (* stale-entry counts, newest first *)
  mutable closed : window list;  (* newest first *)
  mutable open_w : window;  (* succeeded and unavailable ops count only here *)
  mutable phase : [ `Steady | `During | `After ];
  mutable steady_ops : int;
  mutable during_ops : int;
  mutable during_span : float;
  mutable progress : progress list;  (* newest first *)
  mutable epoch_agreed : bool;
}

(* World setup: check the plan against its world, then build the world, its
   anti-entropy actor, and one recorded (and optionally cached) handle per
   workload client. Everything is refused before the run starts. *)
let setup ~seed ~config ~key_space ~clients ~cache ~batching plan =
  if clients < 1 then fail "need at least one client";
  (* The admin driving the plan's changes gets a client slot (and node) of
     its own after the workload's. *)
  let n_clients = if plan.changes = [] then clients else clients + 1 in
  let periods =
    List.filter_map (function { action = Anti_entropy p; _ } -> Some p | _ -> None) plan.steps
  in
  let single_only () =
    if plan.robust || cache || batching || periods <> [] then
      fail "the robustness stack, caches, batching and anti-entropy need a Single world"
  in
  let params =
    { seed; config = Some config; duration = plan.duration; key_space; clients; groups = None;
      cache = Some cache; batching = Some batching }
  in
  let groups, live, params =
    match plan.world with
    | Single ->
        let roster = Array.make (Config.n_reps config) Member.Active in
        (1, Voted (ref (Member.initial ~config ~roster)), params)
    | Members m ->
        single_only ();
        (1, Voted (ref m), { params with config = None; cache = None; batching = None })
    | Shards groups ->
        single_only ();
        if groups < 2 || key_space < 2 * groups then
          fail "a sharded world needs two groups and two keys per group";
        (* Groups [0 .. groups-2] each serve an equal initial slice; the
           split cut sits at the [groups-1]/[groups] point, so after the flip
           every group — the newcomer included — serves a 1/[groups]
           slice. *)
        let cuts =
          List.init (groups - 2) (fun i -> Key.of_int ((i + 1) * key_space / groups))
        in
        ( groups,
          Sharded (ref (Shard_map.initial ~cuts)),
          { params with groups = Some groups; cache = None; batching = None } )
  in
  let config =
    match live with Voted m -> (Member.current !m).Member.config | Sharded _ -> config
  in
  let world =
    Shard_world.create ~seed ~rpc_timeout:10.0 ~rpc_attempts:4 ~rpc_backoff:2.0 ~n_clients ~lease
      ?admission:(if plan.robust then Some Rep.default_admission else None)
      ~config ~groups ()
  in
  List.iter
    (fun (_, change) ->
      match (change, live) with
      | (Join _ | Retire _), Voted _ | Split, Sharded _ -> ()
      | _ -> fail "joins and retires need a Members world, splits a Shards world")
    plan.changes;
  let actor =
    match periods with
    | [] -> None
    | [ period ] ->
        Some (period, Shard_world.make_sync ~config:{ Sync.default_config with period } world [ 0 ])
    | _ -> fail "a plan starts at most one anti-entropy actor"
  in
  let net = Shard_world.net world in
  let n = Config.n_reps config in
  let reps = Array.concat (List.init groups (Shard_world.group_reps world)) in
  let outside s =
    let rep i = i < 0 || i >= Array.length reps and node j = j < 0 || j >= Net.n_nodes net in
    match s.action with
    | Crash i | Recover i | Torn_crash (i, _) | Clock_skew (i, _, _) | Disk_full (i, _)
    | Slow (i, _) ->
        rep i
    | Partition (a, b) -> List.exists node (a @ b)
    | Flaky_link (a, b, _) -> node a || node b
    | Heal | Flaky _ | Steady | Anti_entropy _ -> false
  in
  Option.iter
    (fun s ->
      fail
        (Format.asprintf "step \"%a\" at t=%.1f names a node outside the world (%d \
                          representatives, %d nodes)"
           pp_action s.action s.at (Array.length reps) (Net.n_nodes net)))
    (List.find_opt outside plan.steps);
  Net.seed_faults net (Int64.add seed 77L);
  (* Recording and checking are pure observation: recorders draw no
     randomness and schedule no events. *)
  let recorders = Array.init clients (Shard_world.recorder_for_client world) in
  let checker = Checker.create ~clients () in
  Array.iter (fun r -> History.set_sink r (Checker.feed checker)) recorders;
  (* One shared health table: every client's observations feed it and every
     client's picker reads it, so a gray representative spotted by one
     client is avoided by all. *)
  let health = if plan.robust then Some (Picker.Health.create ~n ()) else None in
  (* Per-client caches: one weak representative per client, so stale lines
     from one client's vantage are validated (and corrected) against the
     same quorums every other client writes through. *)
  let caches = if cache then Array.init clients (fun _ -> Cache.create ()) else [||] in
  let handles =
    Array.init clients (fun c ->
        client_handle ~recorder:recorders.(c) ?health
          ?cache:(if cache then Some caches.(c) else None)
          ~batching world live c)
  in
  (* Per-client retry budgets: sustained unavailability dries a client's
     retries up instead of letting it amplify the storm. *)
  let budgets =
    Array.init clients (fun _ -> if plan.robust then Some (Suite.Retry_budget.create ()) else None)
  in
  let sim = Shard_world.sim world and retry_rng = Rng.create (Int64.add seed 2L) in
  { plan; params; world; sim; net; n; groups; live; reps; actor; recorders; checker; health;
    caches; handles; budgets; retry_rng; model = Hashtbl.create 64; attempted = 0;
    violations = 0; samples = []; closed = []; phase = `Steady; steady_ops = 0; during_ops = 0;
    during_span = 0.0; progress = []; epoch_agreed = true;
    open_w = { (empty_window ~until:plan.duration 0.0) with up_reps = Array.length reps } }

let crashed (t : run) i = Rep.is_crashed t.reps.(i)
let crash ?wal_fault (t : run) i = Shard_world.crash_rep ?wal_fault t.world ~g:(i / t.n) (i mod t.n)

let recover (t : run) i =
  (* An armed WAL fault would refuse the recovery marker: the operator
     frees disk space before restarting the node. *)
  Rep.set_io_fault t.reps.(i) None;
  Shard_world.recover_rep t.world ~g:(i / t.n) (i mod t.n)

let set_clock (t : run) i = Shard_world.set_clock_skew t.world ~g:(i / t.n) (i mod t.n)

let apply (t : run) = function
  | Crash i -> if not (crashed t i) then crash t i
  | Torn_crash (i, f) ->
      (* A torn write needs unforced log bytes to tear, and those exist
         only while a transaction is running at the victim (its redo
         records are forced at prepare/commit). Stalk the victim until it
         holds unsynced records — the worst possible instant — then pull
         the plug; give up and crash anyway after a bounded wait. *)
      if not (crashed t i) then
        (* Strictly shorter than the plan's crash→recover hold, so the
           victim is down before its scheduled recovery fires. *)
        let deadline = Sim.now t.sim +. 10.0 in
        Sim.spawn t.sim (fun () ->
            let rec stalk () =
              if crashed t i || Sim.now t.sim >= t.plan.duration then ()
              else if Rep.wal_unsynced t.reps.(i) > 0 || Sim.now t.sim >= deadline then
                crash ~wal_fault:f t i
              else begin
                Sim.sleep t.sim 0.5;
                stalk ()
              end
            in
            stalk ())
  | Recover i -> if crashed t i then recover t i
  | Partition (a, b) -> Net.partition t.net a b
  | Heal -> Net.heal_partition t.net
  | Flaky f -> Net.set_default_faults t.net f
  | Flaky_link (a, b, f) -> Net.set_link_faults t.net a b f
  | Steady -> Net.clear_faults t.net
  | Clock_skew (i, offset, rate) -> set_clock t i ~offset ~rate
  | Disk_full (i, fault) -> if not (crashed t i) then Rep.set_io_fault t.reps.(i) fault
  | Slow (i, factor) ->
      (* Every message to or from the victim rides a guaranteed latency
         spike; links are symmetric, so one override per pair covers both
         directions. [Steady] clears the overrides. *)
      let slow = { Net.no_faults with spike = 1.0; spike_factor = factor } in
      for j = 0 to Net.n_nodes t.net - 1 do
        if j <> i then Net.set_link_faults t.net i j slow
      done
  | Anti_entropy _ ->
      Option.iter
        (fun (_, a) ->
          Sync.run a t.sim;
          (* Staleness sampled at fixed virtual times while the workload runs. *)
          Sim.spawn t.sim (fun () ->
              while Sim.now t.sim < t.plan.duration do
                Sim.sleep t.sim 25.0;
                t.samples <- Anti_entropy.stale_entries t.reps :: t.samples
              done))
        t.actor

(* The fault schedule: each step before the plan's duration fires at its
   time. Workload ops count in the window between consecutive step times in
   which they ended: a step at a new time closes the open window, and the
   open window's up count is taken after each of its opening steps. *)
let schedule_faults (t : run) =
  List.iter
    (fun s ->
      if s.at < t.plan.duration then
        Sim.at t.sim s.at (fun () ->
            apply t s.action;
            if s.at > t.open_w.since then begin
              t.closed <- { t.open_w with until = s.at } :: t.closed;
              t.open_w <- empty_window ~until:t.plan.duration s.at
            end;
            let up = Array.fold_left (fun k r -> if Rep.is_crashed r then k else k + 1) 0 t.reps in
            t.open_w <-
              { t.open_w with up_reps = up; opened_by = t.open_w.opened_by @ [ s.action ] }))
    t.plan.steps

(* Admin setup: the admin drives the changes from its own client slot.
   Record writes go through an ordinary membership-armed suite (joint
   quorums, two-phase commit like any other directory write); epoch installs
   and gate digests ride its transports. Returns the change runner and the
   installs that settle every representative on the final record at
   quiesce. *)
let admin (t : run) =
  let deadline = t.plan.duration -. 30.0 in
  let key_space = t.params.key_space in
  let handle = client_handle ?health:t.health t.world t.live t.params.clients in
  let run_change =
    match (t.live, handle) with
    | Voted record, Suite admin ->
        let syncer = Shard_world.make_sync t.world [ 0 ] in
        let rng = Rng.create (Int64.add t.params.seed 5L) in
        member_change ~sim:t.sim ~deadline ~key_space ~admin ~syncer ~rng record
    | Sharded map, Router admin ->
        (* The migration actor spans the split's source and target groups;
           it keeps a seed of its own, apart from the per-group actors'. *)
        let cross =
          Shard_world.make_sync ~seed:0xc0_55eedL t.world [ t.groups - 2; t.groups - 1 ]
        in
        fun _ -> split_change ~sim:t.sim ~deadline ~key_space t.world ~admin ~cross map
    | _ -> assert false
  in
  let installs tr = List.init t.n (fun r () -> install tr r (stamp t.live)) in
  (run_change, List.concat_map installs (transports handle))

(* The admin fiber: each change waits its delay after the previous one
   finished. Workload ops completed before the first change began count as
   steady state, those completed while it was in flight as during. *)
let spawn_admin (t : run) run_change finish =
  Sim.spawn t.sim (fun () ->
      List.iteri
        (fun i (delay, change) ->
          Sim.sleep t.sim delay;
          let started_at = Sim.now t.sim in
          if i = 0 then t.phase <- `During;
          t.progress <- { (run_change change) with started_at } :: t.progress;
          if i = 0 then (t.during_span <- Sim.now t.sim -. started_at; t.phase <- `After))
        t.plan.changes;
      finish ())

(* With one client every response is checked against the sequential model.
   With concurrent clients the interleavings make that model meaningless
   (they are exactly what the checker exists to judge), so the same random
   workload runs unchecked and the history checker is the oracle. *)
let expect (t : run) ok = if t.params.clients = 1 && not ok then t.violations <- t.violations + 1

let expect_read (t : run) key got =
  expect t
    (match (got, Hashtbl.find_opt t.model key) with
    | Some (_, v), Some v' -> String.equal v v'
    | None, None -> true
    | _ -> false)

let model_next (t : run) probe =
  Hashtbl.fold
    (fun k v acc ->
      if String.compare k probe > 0 then
        match acc with Some (kb, _) when String.compare kb k <= 0 -> acc | _ -> Some (k, v)
      else acc)
    t.model None

(* One random operation of client [c]; transient failures retried with
   backoff, then written off as unavailable. *)
let one_op (t : run) c rng_c retry_rng_c =
  t.attempted <- t.attempted + 1;
  let key_space = t.params.key_space in
  let cut_int = (t.groups - 1) * key_space / t.groups in
  let key = Key.of_int (Rng.int rng_c key_space) in
  let value =
    if t.params.clients = 1 then Printf.sprintf "v%d-%f" t.attempted (Sim.now t.sim)
    else Printf.sprintf "c%d-v%d-%f" c t.attempted (Sim.now t.sim)
  in
  let kind = Rng.int rng_c (match t.live with Sharded _ -> 6 | Voted _ -> 4) in
  try
    Suite.with_retries ~attempts:4 ~backoff:2.0 ?budget:t.budgets.(c) ~sleep:(Sim.sleep t.sim)
      ~rng:retry_rng_c (fun () ->
        match (kind, t.handles.(c)) with
        | 0, client -> expect_read t key (lookup client key)
        | 1, client -> (
            match insert client key value with
            | Ok () -> Hashtbl.replace t.model key value
            | Error `Already_present -> expect t (Hashtbl.mem t.model key))
        | 2, client -> (
            match update client key value with
            | Ok () -> Hashtbl.replace t.model key value
            | Error `Not_present -> expect t (not (Hashtbl.mem t.model key)))
        | 3, client ->
            let report = delete client key in
            expect t (report.Suite.was_present = Hashtbl.mem t.model key);
            Hashtbl.remove t.model key
        | 4, Router r ->
            (* Boundary probe: a [next] walk from just below the split cut
               crosses the shard seam mid-migration. *)
            let probe = Key.of_int (max 0 (cut_int - 1 - Rng.int rng_c 2)) in
            expect t
              (match (Router.next r probe, model_next t probe) with
              | Some (k1, _, v1), Some (k2, v2) -> String.equal k1 k2 && String.equal v1 v2
              | None, None -> true
              | _ -> false)
        | _, Router r -> (
            (* Cross-shard transaction: read a low-half key and write a
               high-half key atomically across two groups' suites. *)
            let k1, k2 =
              ( Key.of_int (Rng.int rng_c (max 1 cut_int)),
                Key.of_int (cut_int + Rng.int rng_c (max 1 (key_space - cut_int))) )
            in
            let seen, wrote =
              Router.with_txn r (fun txn ->
                  let seen = Router.lookup ~txn r k1 in
                  (seen, Router.update ~txn r k2 value))
            in
            expect_read t k1 seen;
            match wrote with
            | Ok () -> Hashtbl.replace t.model k2 value
            | Error `Not_present -> expect t (not (Hashtbl.mem t.model k2)))
        | _, Suite _ -> assert false);
    t.open_w <- { t.open_w with ok_ops = t.open_w.ok_ops + 1 };
    match t.phase with
    | `Steady -> t.steady_ops <- t.steady_ops + 1
    | `During -> t.during_ops <- t.during_ops + 1
    | `After -> ()
  with Suite.Unavailable _ | Suite.Deadline_exceeded _ | Txn.Abort _ ->
    (* Retries exhausted — the whole suite down, the deadline budget burnt,
       or a transient abort (say a disk-full window) outlasting the backoff.
       The operation had no effect. *)
    t.open_w <- { t.open_w with unavailable_ops = t.open_w.unavailable_ops + 1 }

(* The workload clients: each runs random operations with exponential think
   times until the plan's duration, then reports to [finish]. *)
let spawn_clients (t : run) finish =
  for c = 0 to t.params.clients - 1 do
    let seeded k = Rng.create (Int64.add t.params.seed (Int64.of_int (k + c))) in
    let rng_c = seeded (if c = 0 then 1 else 100) in
    let retry_rng_c = if c = 0 then t.retry_rng else seeded 200 in
    Sim.spawn t.sim (fun () ->
        while Sim.now t.sim < t.plan.duration do
          one_op t c rng_c retry_rng_c;
          Sim.sleep t.sim (Rng.exponential rng_c ~mean:op_gap)
        done;
        finish ())
  done

(* Quiesce: heal everything, let the termination protocol drain, settle
   every representative on the final record, give the anti-entropy actor
   its last periods, and sweep the whole key space. *)
let quiesce (t : run) installs =
  (* The dust settles: faults off, everyone up, stragglers delivered. *)
  Net.clear_faults t.net;
  Net.heal_partition t.net;
  Array.iteri
    (fun i rep ->
      (* Heal injected io faults and clock skew first: a representative
         cannot replay its log onto a full disk, and the final audit must
         run on true clocks. *)
      Rep.set_io_fault rep None;
      set_clock t i ~offset:0.0 ~rate:1.0;
      if crashed t i then recover t i)
    t.reps;
  Sim.sleep t.sim 200.0;
  (* No power cycle: leases abort abandoned transactions and in-doubt ones
     resolve against the coordinator or a peer. Give straggler termination
     work one more lease period before the final audit. *)
  Sim.sleep t.sim (lease +. 30.0);
  (* Every representative settles at the final record before the audit —
     the scrubber insists on a single agreed epoch at quiesce. The network
     is healed, so this terminates. *)
  List.iter
    (fun install -> ignore (Sim.retry t.sim ~every:3.0 (`Retries 21) (fun _ -> install ())))
    installs;
  let fence, final_epoch, _ = stamp t.live in
  t.epoch_agreed <-
    Array.for_all (fun rep -> fst (Rep.fence_view rep fence) = final_epoch) t.reps;
  (* The anti-entropy actor gets up to eight more periods to leave no live
     entry stale and every root digest equal, then stops before the final
     sweep and the audit. *)
  Option.iter
    (fun (period, a) ->
      ignore
        (Sim.retry t.sim ~every:5.0 (`Until (Sim.now t.sim +. (8.0 *. period))) (fun _ ->
             Anti_entropy.stale_entries t.reps = 0 && Anti_entropy.all_digests_equal t.reps));
      Sync.stop a)
    t.actor;
  (* Every key the workload could have touched must now be readable — and,
     when a single client kept the sequential model, agree with it. (The
     reads also land in the recorded history, so the checker judges them
     against everything that came before.) *)
  for k = 0 to t.params.key_space - 1 do
    let key = Key.of_int k in
    match
      Suite.with_retries ~attempts:5 ~backoff:4.0 ~sleep:(Sim.sleep t.sim) ~rng:t.retry_rng
        (fun () -> lookup t.handles.(0) key)
    with
    | got -> expect_read t key got
    | exception (Suite.Unavailable _ | Suite.Deadline_exceeded _) ->
        (* Everything is healed; failing to read here is itself a bug. *)
        t.violations <- t.violations + 1
  done

(* The audit once the run is over: the checker's verdict on the recorded
   history, and the scrubber's on the settled representatives. *)
let audit (t : run) =
  Checker.finalize t.checker;
  let scrub_violations =
    match t.live with
    | Voted m ->
        (* Scrub under the settled configuration. If a transition could not
           pass its gate the campaign quiesced at a joint record: the old
           view's quorums are the ones still guaranteed to see every
           committed write (the new view's only become sufficient after the
           converge), so the scrubber sweeps those. *)
        Scrub.run ~expected_epoch:(Member.epoch_of !m)
          ~config:(List.hd (Member.views !m)).Member.config t.reps
    | Sharded _ ->
        (* Each group is a complete directory in its own right (own
           sentinels, own quorum invariants, frozen residue included), so
           the scrubber sweeps them independently. *)
        List.concat
          (List.init t.groups (fun g ->
               List.map (Printf.sprintf "g%d: %s" g)
                 (Scrub.run ~config:(Shard_world.config t.world)
                    (Shard_world.group_reps t.world g))))
  in
  let stats = Checker.stats t.checker in
  let recorders = Array.to_list t.recorders in
  {
    checker_violations =
      List.map (Format.asprintf "%a" Checker.pp_violation) (Checker.violations t.checker);
    scrub_violations;
    checked_ops = stats.Checker.ops_checked;
    ambiguous_ops = stats.Checker.ambiguous_ops;
    keys_given_up = List.length stats.Checker.given_up;
    events =
      List.sort
        (fun a b -> compare a.History.finish b.History.finish)
        (List.concat_map History.events recorders);
    events_dropped = List.fold_left (fun acc r -> acc + History.dropped r) 0 recorders;
  }

let outcome (t : run) : outcome =
  let audit = audit t in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 t.reps in
  let sum_counter f = sum (fun r -> f (Rep.counters r)) in
  let windows = List.rev (t.open_w :: t.closed) in
  let ops f = List.fold_left (fun acc w -> acc + f w) 0 windows in
  let final_epoch, in_flight, n_shards =
    match t.live with
    | Voted m ->
        (Member.epoch_of !m, (match !m with Member.Joint _ -> true | Member.Stable _ -> false), 1)
    | Sharded m -> (Shard_map.epoch_of !m, Shard_map.in_flight !m, Shard_map.n_shards !m)
  in
  {
    plan = t.plan.plan_name;
    params = t.params;
    world_seed = t.params.seed;
    attempted = t.attempted;
    succeeded = ops (fun w -> w.ok_ops);
    unavailable = ops (fun w -> w.unavailable_ops);
    violations = t.violations;
    final_keys_checked = t.params.key_space;
    rpc_retries =
      List.fold_left (fun acc tr -> acc + tr.Transport.retry_count) 0 (transports t.handles.(0));
    msgs_dropped = Net.messages_dropped t.net;
    msgs_duplicated = Net.messages_duplicated t.net;
    msgs_reordered = Net.messages_reordered t.net;
    wal_records_repaired = sum Rep.wal_records_repaired;
    checkpoints = sum_counter (fun c -> c.Rep.checkpoints);
    wal_over_live =
      Array.fold_left
        (fun acc r -> max acc (Rep.wal_length r - Rep.size r - Rep.wal_unsynced r))
        min_int t.reps;
    sim_events = Sim.events_executed t.sim;
    leases_expired = sum_counter (fun c -> c.Rep.leases_expired);
    unilateral_aborts = sum_counter (fun c -> c.Rep.unilateral_aborts);
    indoubt_by_coordinator = sum_counter (fun c -> c.Rep.indoubt_by_coordinator);
    indoubt_by_peer = sum_counter (fun c -> c.Rep.indoubt_by_peer);
    indoubt_recovered = sum_counter (fun c -> c.Rep.indoubt_recovered);
    (* At quiesce every transaction has terminated: any lock still granted
       or queued is an orphan the termination protocol failed to clean up. *)
    orphan_locks = sum Rep.locks_held + sum Rep.lock_waiters;
    indoubt_open = sum Rep.in_doubt_count;
    cache_stats =
      (if t.caches = [||] then None
       else Some (Cache.sum_counters (Array.to_list (Array.map Cache.counters t.caches))));
    audit;
    change =
      (match List.rev t.progress with
      | [] -> None
      | first :: _ as progress ->
          Some
            { progress; final_epoch; epoch_agreed = t.epoch_agreed; in_flight; n_groups = t.groups;
              n_shards; steady_ops = t.steady_ops; steady_span = first.started_at;
              during_ops = t.during_ops; during_span = t.during_span });
    windows;
    anti_entropy =
      Option.map
        (fun (period, a) ->
          let n_samples = float_of_int (max 1 (List.length t.samples)) in
          { period; sync_counters = Sync.counters a;
            mean_stale = float_of_int (List.fold_left ( + ) 0 t.samples) /. n_samples;
            end_stale = Anti_entropy.stale_entries t.reps;
            digests_equal = Anti_entropy.all_digests_equal t.reps })
        t.actor;
  }

let run_plan ?(seed = 1983L) ?(config = Config.simple ~n:3 ~r:2 ~w:2) ?(key_space = 30)
    ?(clients = 1) ?(cache = false) ?(batching = false) plan =
  let t = setup ~seed ~config ~key_space ~clients ~cache ~batching plan in
  let admin = if plan.changes = [] then None else Some (admin t) in
  schedule_faults t;
  (* The last of the clients and the admin to finish runs the quiesce
     sequence, so an admin overrunning its deadline still sees the faults it
     gave up under. *)
  let running = ref (clients + Option.fold ~none:0 ~some:(fun _ -> 1) admin) in
  let finish () =
    decr running;
    if !running = 0 then quiesce t (Option.fold ~none:[] ~some:snd admin)
  in
  Option.iter (fun (run_change, _) -> spawn_admin t run_change finish) admin;
  spawn_clients t finish;
  Sim.run t.sim;
  outcome t

let run (p : params) e =
  let world_seed =
    Option.fold ~none:p.seed
      ~some:(fun slot -> Int64.add p.seed (Int64.mul 1000003L (Int64.of_int slot)))
      e.slot
  in
  let o =
    run_plan ~seed:world_seed ?config:p.config ~key_space:p.key_space ~clients:p.clients
      ?cache:p.cache ?batching:p.batching (plan_of p e)
  in
  { o with params = p }

let reproduce (o : outcome) =
  let p = o.params in
  String.concat ""
    [
      Printf.sprintf "campaign %S --seed %Ld --duration %g --keys %d --clients %d" o.plan p.seed
        p.duration p.key_space p.clients;
      (if p.cache = Some true then " --cache" else "");
      (if p.batching = Some true then " --batching" else "");
      Option.fold ~none:"" ~some:(Printf.sprintf " --groups %d") p.groups;
      Option.fold ~none:""
        ~some:(fun (c : Config.t) ->
          Printf.sprintf " -n %d -r %d -w %d" (Config.n_reps c) c.read_quorum c.write_quorum)
        p.config;
    ]

let dump_history path (o : outcome) =
  History.dump_to_file ~path ~dropped:o.audit.events_dropped o.audit.events

let table_of_outcomes outcomes =
  let t =
    Table.create
      ~header:
        [ "Plan"; "Ops"; "Ok"; "Unavail"; "Retries"; "Dropped"; "Dup'd"; "Reordered";
          "WAL repaired"; "Leases"; "Unilat"; "ByCoord"; "ByPeer"; "Orphans"; "InDoubt";
          "Events"; "Violations"; "Checked"; "Ambig"; "AuditViol" ]
      ()
  in
  List.iter
    (fun (o : outcome) ->
      Table.add_row t
        (o.plan
        :: List.map string_of_int
             [ o.attempted; o.succeeded; o.unavailable; o.rpc_retries; o.msgs_dropped;
               o.msgs_duplicated; o.msgs_reordered; o.wal_records_repaired; o.leases_expired;
               o.unilateral_aborts; o.indoubt_by_coordinator; o.indoubt_by_peer;
               o.orphan_locks; o.indoubt_open; o.sim_events; o.violations;
               o.audit.checked_ops; o.audit.ambiguous_ops; audit_violations o ]))
    outcomes;
  Table.add_separator t;
  Table.add_row t
    [ "total violations";
      string_of_int (List.fold_left (fun a o -> a + total_violations o) 0 outcomes) ];
  t
