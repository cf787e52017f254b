(** Nemesis: deterministic fault-injection campaigns over the simulator.

    A {!plan} is a declarative, timed schedule of adversarial actions —
    crash storms, rolling partitions, probabilistic link gremlins
    (drop/duplicate/reorder/latency spikes), crashes that tear or corrupt
    the write-ahead log's tail, the start of a background anti-entropy
    actor — plus an ordered list of administrative {!change}s (membership
    joins and retires, shard splits) that an admin fiber drives through
    the faults. {!run_plan}, the one campaign driver,
    runs a live random workload through the plan on the plan's {!world}
    (one {!Shard_world}: a single group governed by a membership record,
    or several shard groups under a shard map), checking every response against a
    sequential model; then it heals the world, lets the
    transaction-termination protocol drain (leases expire abandoned
    transactions; in-doubt ones resolve against the coordinator or a peer),
    and verifies the whole key space again — with {i no} power-cycle: any
    lock still held at quiesce is reported as an orphan. All randomness —
    the plan builders, the workload, the link gremlins, the retry jitter —
    derives from explicit seeds, so a run is bit-reproducible.

    The transport is the hardened one: at-most-once RPC with request-id
    deduplication and bounded exponential-backoff retries, two-phase commit,
    and client-level retries via {!Repdir_core.Suite.with_retries} — the
    point of the exercise is that {i zero} sequential-model violations
    survive every plan, and every lock manager drains to zero without anyone
    pulling a power plug. *)

open Repdir_sim
module Wal = Repdir_txn.Wal

(* --- fault-plan DSL ------------------------------------------------------------ *)

type action =
  | Crash of int  (** representative index *)
  | Recover of int
  | Torn_crash of int * Wal.storage_fault
      (** crash with tail damage hitting the victim's WAL *)
  | Partition of int list * int list  (** cut every link between the groups *)
  | Heal  (** restore all links *)
  | Flaky of Net.faults  (** network-wide probabilistic gremlins *)
  | Flaky_link of int * int * Net.faults  (** per-link override *)
  | Steady  (** clear all link gremlins *)
  | Clock_skew of int * float * float
      (** skew a representative's virtual clock: it reads
          [offset + rate * now]; [(i, 0.0, 1.0)] restores the true clock *)
  | Disk_full of int * Wal.io_fault option
      (** arm ([Some fault]) or heal ([None]) the representative's WAL write
          failure; while armed, mutating transactions abort cleanly and the
          representative stays up *)
  | Slow of int * float
      (** gray failure: every link touching the representative multiplies
          its latency by the factor — the node stays up and answers
          everything, just late. [Steady] restores it. *)
  | Anti_entropy of float
      (** start the group's background anti-entropy actor
          ({!Repdir_sync.Sync.run}) at this mean period; it runs through
          quiesce and stops before the audit. At most one per plan, and only
          on a [Single] world. *)

type step = { at : float; action : action }

type change =
  | Join of { slot : int; votes : int; read_quorum : int; write_quorum : int }
      (** give a zero-vote [Joining] slot [votes] votes under the new
          thresholds: joint record, epoch fence, catch-up gated on equal
          root digests, stable record *)
  | Retire of { slot : int; read_quorum : int; write_quorum : int }
      (** drain a member to zero votes the same way, leaving it fenced *)
  | Split
      (** split the last shard at the [(groups-1)/groups] point of the key
          space onto the last group: fence the source, copy the frozen slice
          until every replica of both groups reports the same slice digest,
          flip the map *)

type world =
  | Single
      (** one replica group running the driver's [config], as the epoch-0
          membership record of that configuration *)
  | Members of Repdir_member.Member.record
      (** one group governed by this epoch-stamped membership record (its
          current view replaces the driver's [config]) *)
  | Shards of int
      (** that many replica groups, each running the driver's [config];
          groups [0 .. n-2] serve equal slices of the key space from epoch 0
          and the last starts empty *)

type plan = {
  plan_name : string;
  duration : float;
  world : world;
  steps : step list;
  changes : (float * change) list;
}
(** Steps fire at their absolute virtual times; steps at or after
    [duration] are ignored by the runner (the cleanup phase owns that
    window). Representative indices are global: on a [Shards] world of
    [n]-representative groups, [g*n + i] is group [g]'s slot [i]. Each [(delay, change)] starts [delay] after the previous change
    finished (after the start, for the first), in one admin fiber; the
    admin stops retrying 30 units before [duration]. Joins and retires need
    a [Members] world, splits a [Shards] one. [{ p with steps = [] }] is the
    fault-free variant of a plan. *)

val pp_action : Format.formatter -> action -> unit

(* --- standard plans ------------------------------------------------------------- *)

val crash_storm : n:int -> duration:float -> seed:int64 -> plan
(** Repeated waves in which each representative independently crashes (and
    later recovers), including waves that take the whole suite down. *)

val rolling_partition : n:int -> duration:float -> seed:int64 -> plan
(** Isolates each representative in turn from all the others. *)

val flaky_links : n:int -> duration:float -> seed:int64 -> plan
(** Windows of network-wide drop/duplication/reordering/latency spikes
    alternating with a very lossy single client link. *)

val torn_wal_crashes : n:int -> duration:float -> seed:int64 -> plan
(** Crashes that tear, corrupt, or truncate the victim's WAL tail; recovery
    must come back with exactly the committed prefix. *)

val coordinator_crash : n:int -> duration:float -> seed:int64 -> plan
(** Repeated short isolations of the client/coordinator node, aimed at the
    window between the prepare round and the decision (and between decision
    and commit round), sometimes combined with a representative bounce.
    Participants stranded mid-protocol must terminate on their own: lease
    expiry aborts unprepared transactions unilaterally; prepared ones go in
    doubt and resolve by querying the coordinator after the heal, a peer, or
    via crash recovery. *)

val clock_skew : n:int -> duration:float -> seed:int64 -> plan
(** Windows of per-representative virtual-clock skew and drift: fast clocks
    fire lease timers early (spurious unilateral aborts and in-doubt
    resolutions), slow ones hold leases past their true deadline. The
    network and the clients keep the true clock. *)

val disk_full : n:int -> duration:float -> seed:int64 -> plan
(** Windows in which one representative's WAL refuses every append
    ([Disk_full] or [Io_error]): mutating transactions must abort cleanly
    while reads keep flowing, and a post-heal bounce must replay exactly the
    acknowledged prefix. *)

val slow_replica : n:int -> duration:float -> seed:int64 -> plan
(** One representative at a time turns gray — alive and answering, but 6-16x
    slow on every link — for long windows, rotating victims. {!run_plan}
    arms the robustness stack for this plan, so health-scored
    quorum selection and hedging must keep the workload's latency flat. *)

val retry_storm : n:int -> duration:float -> seed:int64 -> plan
(** Repeated short total outages (all representatives but one crash) leave
    every client's retry schedule primed; recovery delivers the accumulated
    wave to freshly-restarted nodes. Admission control, retry budgets and
    deadline propagation (armed by {!run_plan}) must absorb it
    without a metastable collapse; occasional duplicate-heavy windows stress
    the dedup cache's bounded eviction mid-storm. *)

val standard_plans : ?duration:float -> n:int -> seed:int64 -> unit -> plan list
(** The five original plans (crash storm, rolling partition, flaky links,
    torn-WAL crashes, coordinator crash), with seeds derived from [seed]. *)

val all_plans : ?duration:float -> n:int -> seed:int64 -> unit -> plan list
(** {!standard_plans} plus {!clock_skew}, {!disk_full}, {!slow_replica} and
    {!retry_storm} — nine plans. New plans append at the end: {!run_all}
    seeds each plan's world from its position in this list. *)

val reconfig_plan : clients:int -> duration:float -> seed:int64 -> plan
(** One scripted online reconfiguration: the world starts as the paper's
    3-2-2 suite plus a zero-vote [Joining] slot 3; at 80 the admin joins
    slot 3 with one vote (4 votes, R=2, W=3), and 60 after that finishes it
    retires slot 0, ending at the 3-member [0;1;1;1] R=2 W=2 view at epoch 4.
    The faults are brief single-representative partitions (the victim is
    cut from {i every} node — the [clients] workload clients, the admin and
    the anti-entropy actor included) and occasional short bounces, separated
    by calm windows the admin's retry loops can make progress in. [seed] is
    the campaign seed; the schedule draws from [seed + 7919*8]. *)

val shard_plan : n:int -> groups:int -> clients:int -> duration:float -> seed:int64 -> plan
(** One scripted shard split: [groups] (at least 2) groups of [n]
    representatives, and at 80 the admin splits the last shard onto the
    empty last group. The faults have the {!reconfig_plan} shape over the
    grouped node layout (with [clients] workload clients) — victims rotate across every group's
    representative slots, with calm windows sized for the sliced catch-up
    rounds. The schedule draws from [seed + 7919*11]. *)

val crash_timeline : duration:float -> plan
(** The availability timeline in five equal windows: all representatives
    up, rep0 crashed, rep0 and rep1 crashed, rep1 recovered (stale), all
    recovered. A 3-2-2 suite serves in every window but the third, where it
    refuses service rather than answer wrongly; a 5-3-3 suite serves in
    all five. *)

val partition_sync : n:int -> period:float -> duration:float -> seed:int64 -> plan
(** A background anti-entropy actor at [period] from time 0, while every
    105 units from 60 one random representative is cut off for 45 from
    every node of a one-client world (the other representatives, the
    workload client and the sync node). The transactions it strands must
    terminate through leases and in-doubt resolution, with no restart. *)

val plan_catalog : (string * string * string) list
(** Every registered campaign as [(name, family, description)] — the single
    source of truth behind [repdir plans]. Families: ["standard"] (run by
    default), ["extended"] (opt-in via [--all]), ["robustness"] (opt-in via
    [--all]; runs with the overload/gray-failure stack armed),
    ["membership"] ({!reconfig_plan}, run by [repdir reconfig]),
    ["sharding"] ({!shard_plan}, run by [repdir shard]), ["availability"]
    ({!crash_timeline}, run by [repdir faults]) and ["anti-entropy"]
    ({!partition_sync}, run by [repdir sync --staleness]). *)

(* --- running -------------------------------------------------------------------- *)

type audit = {
  checker_violations : string list;
      (** strict-serializability violations, pretty-printed *)
  scrub_violations : string list;  (** replica-scrubber findings *)
  checked_ops : int;  (** definite per-key projections the checker proved *)
  ambiguous_ops : int;  (** timed-out writes carried as optional *)
  chunks_closed : int;
  keys_given_up : int;  (** keys left unchecked by state-space caps *)
  dump : string -> unit;
      (** write the retained history window to the given path — the
          post-mortem artifact a failing campaign leaves behind *)
}
(** What the consistency auditor saw, when the plan ran with [~audit:true]:
    the recorded multi-client history judged by the strict-serializability
    checker ({!Repdir_audit.Checker}) and the quiesce-time replica scrubber
    ({!Repdir_audit.Scrub}). *)

type progress = {
  what : change;
  started_at : float;  (** virtual time the change began *)
  completed_at : float option;
      (** when the change finished — the stable record fully broadcast, or
          the landed map installed on both groups; [None] if the admin could
          not finish before its deadline (the record stays [Joint], the map
          [Moving] — safe indefinitely) *)
  gate_ok : bool;
      (** the change's gate held: a converge mega-session saw the hub's
          gap-map root digest equal every peer's, atomically, before the
          epoch bump; or every replica of both groups reported the same
          digest over the frozen slice before the flip *)
  rounds : int;  (** converge sessions (join, retire) or hub rounds (split) *)
  sessions : int;  (** sliced catch-up sessions (split) *)
}

type report = {
  progress : progress list;  (** one per change of the plan, in order *)
  final_epoch : int;  (** of the membership record or the shard map *)
  epoch_agreed : bool;
      (** every representative held [final_epoch] after the quiesce broadcast *)
  in_flight : bool;  (** the final record is [Joint], or the map [Moving] *)
  n_groups : int;
  n_shards : int;  (** shards in the final map (1 without sharding) *)
  steady_ops : int;  (** workload ops completed before the first change began *)
  steady_span : float;  (** length of that window, virtual time *)
  during_ops : int;  (** ops completed while the first change was in flight *)
  during_span : float;
}
(** What the admin achieved — a campaign's liveness side, complementing the
    safety verdict in the {!outcome}'s audit. *)

val completed : report -> bool
(** Every change completed and passed its gate, and every representative
    agreed on the final epoch. *)

val pp_report : Format.formatter -> report -> unit

type window = {
  since : float;
  until : float;  (** the next step time, or the plan's duration *)
  up_reps : int;  (** representatives up once the window's opening steps applied *)
  ok_ops : int;  (** workload ops that succeeded in the window *)
  unavailable_ops : int;  (** workload ops that ended unavailable in the window *)
}
(** One interval between consecutive step times (from 0 to the first step,
    and from the last one to [duration]); an op counts in the window in which
    it ended. *)

type sync_report = {
  sync_counters : Repdir_sync.Sync.counters;
  mean_stale : float;
      (** stale entries ({!Anti_entropy.stale_entries}) averaged over samples
          every 25 units until [duration] *)
  end_stale : int;  (** stale entries left after quiesce; must be 0 *)
  digests_equal : bool;
      (** all root digests equal at the end — parked ghosts can keep them
          apart without any entry being stale (DESIGN.md, "Ghosts and the
          representability limit") *)
}
(** What the background anti-entropy actor did. At quiesce it gets up to
    eight more periods to leave no entry stale. *)

type outcome = {
  plan : string;
  world_seed : int64;  (** the seed this plan's world ran under — the repro handle *)
  attempted : int;
  succeeded : int;
  unavailable : int;  (** ops that failed even after client-level retries *)
  violations : int;  (** responses disagreeing with the sequential model *)
  final_keys_checked : int;
  rpc_retries : int;  (** transport retransmissions *)
  msgs_dropped : int;
  msgs_duplicated : int;
  msgs_reordered : int;
  wal_records_repaired : int;  (** log records scrubbed by recoveries *)
  checkpoints : int;  (** representative checkpoints taken, all reps *)
  wal_over_live : int;
      (** at quiesce, the most log records any representative holds beyond
          its live entries and its unforced tail *)
  sim_events : int;  (** total simulator events — a reproducibility fingerprint *)
  leases_expired : int;  (** transaction leases that ran out, all reps *)
  unilateral_aborts : int;  (** lease expiries terminated alone (unprepared) *)
  indoubt_by_coordinator : int;  (** in-doubt resolutions answered by the coordinator *)
  indoubt_by_peer : int;  (** in-doubt resolutions answered by a peer rep *)
  indoubt_recovered : int;  (** resolved in-doubt transactions restored by recovery *)
  orphan_locks : int;
      (** locks still granted or queued anywhere at quiesce — must be 0 *)
  indoubt_open : int;  (** transactions still in doubt at quiesce — must be 0 *)
  cache_stats : Repdir_cache.Cache.counters option;
      (** aggregated client-cache counters; present iff [~cache:true] *)
  audit : audit option;  (** present iff the plan ran with [~audit:true] *)
  change : report option;  (** present iff the plan has changes *)
  windows : window list;  (** in time order *)
  anti_entropy : sync_report option;  (** present iff the plan has an [Anti_entropy] step *)
}

val audit_violations : outcome -> int
(** Checker plus scrubber violations (0 when the plan was not audited). *)

val total_violations : outcome -> int
(** Sequential-model violations plus {!audit_violations}. *)

val run_plan :
  ?seed:int64 ->
  ?config:Repdir_quorum.Config.t ->
  ?key_space:int ->
  ?audit:bool ->
  ?clients:int ->
  ?cache:bool ->
  plan ->
  outcome
(** Defaults: the paper's 3-2-2 suite and 30 keys. Clients think for an
    exponential time with mean 2.0 between operations, and every
    representative arms a 60-unit transaction lease.

    The plans whose point is the overload/gray-failure stack
    ({!slow_replica}, {!retry_storm}) run with it armed: representative
    admission control ({!Repdir_rep.Rep.default_admission}), a shared
    health-score table passed to every client's
    {!Sim_world.suite_for_client} (which arms the [Healthy] picker, hedged
    reads at the suite's constant 2.0-unit floor, and a 30-unit
    per-operation deadline budget), and per-client retry budgets. Every
    other plan keeps its historical event stream.

    [audit] (default false) attaches a history recorder to every client and
    feeds the completed events to the online strict-serializability checker;
    at quiesce the replica scrubber sweeps the settled representatives (each
    group on its own; under a membership record, with the old view's
    quorums if a change is still joint, and demanding one agreed epoch).
    The findings land in the outcome's [audit] field. Recording is pure
    observation: an audited run replays the exact event stream of an
    unaudited one.

    [clients] (default 1) runs that many concurrent clients. With one
    client every response is checked against the inline sequential model;
    with more, the interleavings make that model meaningless, so the inline
    checks are skipped and the history checker is the oracle (run with
    [~audit:true]). On a [Shards] world the workload also runs boundary
    [next] probes across the split seam and cross-shard read-write
    transactions committed with the router's two-phase protocol.

    [cache] (default false) attaches a version-validated client cache
    ({!Repdir_cache.Cache}) to every client's suite — the whole point being
    that the inline model, the checker, and the scrubber must stay exactly
    as clean as without it. Aggregated cache counters land in
    [cache_stats].

    Every step applies to every world: plan representative [i] is group
    [i / n]'s representative [i mod n], so a [Clock_skew] step skews one
    representative of a sharded world like any other fault.

    Raises [Invalid_argument], before the run starts, if a step names a
    representative or node outside the world, if a change does not fit the
    plan's world, if a plan has more than one [Anti_entropy] step, if a
    [Members] or [Shards] world is given a cache, the robustness stack or
    an anti-entropy actor, or if a [Shards] world has fewer than two groups
    or two keys per group. *)

val run_all :
  ?seed:int64 ->
  ?config:Repdir_quorum.Config.t ->
  ?duration:float ->
  ?key_space:int ->
  ?audit:bool ->
  ?clients:int ->
  ?cache:bool ->
  ?all:bool ->
  unit ->
  outcome list
(** Run the standard plans — all nine (adding {!clock_skew}, {!disk_full},
    {!slow_replica} and {!retry_storm}) when [all] is true — each in a fresh
    world with a seed derived from [seed]. *)

val table_of_outcomes : outcome list -> Repdir_util.Table.t
