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
  robust : bool;
      (** run with the overload/gray-failure stack armed: representative
          admission control ({!Repdir_rep.Rep.default_admission}), one shared
          health-score table passed to every client's
          {!Shard_world.suite_for_client} (the [Healthy] picker and a 30-unit
          per-operation deadline) and per-client retry budgets *)
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

(* --- the catalogue ------------------------------------------------------------- *)

type params = {
  seed : int64;  (** the campaign seed *)
  config : Repdir_quorum.Config.t option;
      (** each group's suite; [None] when the plan's world fixes it (a
          [Members] record) *)
  duration : float;
  key_space : int;
  clients : int;  (** workload clients; the admin driver is separate *)
  groups : int option;  (** replica groups of a [Shards] world; [None] otherwise *)
  cache : bool option;
      (** attach client caches; [None] when the world cannot take them (not
          [Single]) *)
  batching : bool option;
      (** batch each client's rounds ({!Repdir_core.Suite.create}'s
          [batching]); [None] when the world cannot take it (not [Single]) *)
}
(** The parameters of one campaign run. An entry's defaults mark with
    [None] the parameters its plan cannot honour. *)

type entry = {
  name : string;  (** the plan's name *)
  family : string;
  doc : string;  (** one line *)
  defaults : params;
  mix : int;  (** the plan's schedule seed is the campaign seed + 7919 * [mix] *)
  slot : int option;
      (** [Some i]: the plan is the [i]th of the sweep, and its world seed is
          the campaign seed + 1000003 * [i]; [None]: outside the sweep, the
          world seed is the campaign seed *)
  build : seed:int64 -> n:int -> params -> plan;
      (** the plan from its own schedule [seed] and [n] representatives per
          group (all of them, for a plan over every group's
          representatives), reading [duration], [clients] and [groups] *)
}

val catalogue : entry list
(** Every registered campaign, in sweep order first. Families:
    - ["standard"]: crash storm (correlated crash waves), rolling partition
      (each representative isolated in turn; every third cycle traps the
      client), flaky links (drop/duplicate/reorder/spike gremlins and a
      lossy client link), torn-WAL crashes (crashes that tear, corrupt or
      truncate the victim's WAL tail at the worst instant; recovery must
      come back with exactly the committed prefix) and coordinator crash
      (short isolations of the client/coordinator inside the two-phase
      commit window; stranded participants terminate on their own);
    - ["extended"]: clock skew (lease-scale per-representative clock skew
      and drift) and disk full (WAL appends fail until the disk heals;
      mutating transactions abort cleanly while reads flow);
    - ["robustness"]: slow replica (a rotating 6-16x gray replica) and retry
      storm (repeated near-total outages), both [robust];
    - ["membership"]: reconfig — the paper's 3-2-2 suite plus a zero-vote
      [Joining] slot 3; at 80 the admin joins slot 3 (4 votes, R=2, W=3),
      and 60 after that retires slot 0, ending at [0;1;1;1] R=2 W=2 at epoch
      4, under brief single-representative isolations and bounces;
    - ["sharding"]: sharded split — [groups] groups; at 80 the admin splits
      the last shard onto the empty last group, under the same fault shape;
    - ["availability"]: crash timeline — five equal windows: all up, rep0
      down, rep0 and rep1 down, rep1 back (stale), all back; a 3-2-2 suite
      refuses service in the third rather than answer wrongly;
    - ["anti-entropy"]: partition sync at periods 10, 30, 100 and 300 — a
      background sync actor from time 0 while every 105 units from 60 one
      random representative is cut off for 45 from every node. *)

val find : string -> entry
(** The entry of that name. Raises [Not_found]. *)

val plan_of : params -> entry -> plan
(** The plan a campaign under [params] runs: {!entry.build} at the derived
    schedule seed. *)

(* --- running -------------------------------------------------------------------- *)

type audit = {
  checker_violations : string list;
      (** strict-serializability violations, pretty-printed *)
  scrub_violations : string list;  (** replica-scrubber findings *)
  checked_ops : int;  (** definite per-key projections the checker proved *)
  ambiguous_ops : int;  (** timed-out writes carried as optional *)
  keys_given_up : int;  (** keys left unchecked by state-space caps *)
  events : Repdir_audit.History.event list;
      (** the clients' retained history windows, merged in finish order *)
  events_dropped : int;  (** older events the bounded windows dropped *)
}
(** What the consistency auditor saw: the recorded multi-client history
    judged by the strict-serializability checker ({!Repdir_audit.Checker})
    and the quiesce-time replica scrubber ({!Repdir_audit.Scrub}). *)

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
  opened_by : action list;  (** the steps that fired at [since], in plan order *)
  up_reps : int;  (** representatives up once the window's opening steps applied *)
  ok_ops : int;  (** workload ops that succeeded in the window *)
  unavailable_ops : int;  (** workload ops that ended unavailable in the window *)
}
(** One interval between consecutive step times (from 0 to the first step,
    and from the last one to [duration]); an op counts in the window in which
    it ended. *)

type sync_report = {
  period : float;  (** the actor's mean period *)
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
  params : params;
      (** what ran: under {!run}, the campaign's parameters; under
          {!run_plan}, its arguments, with the world seed as [seed] *)
  world_seed : int64;  (** the seed this plan's world ran under *)
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
  audit : audit;
  change : report option;  (** present iff the plan has changes *)
  windows : window list;  (** in time order *)
  anti_entropy : sync_report option;  (** present iff the plan has an [Anti_entropy] step *)
}

val total_violations : outcome -> int
(** Sequential-model violations plus checker and scrubber findings. *)

val run_plan :
  ?seed:int64 ->
  ?config:Repdir_quorum.Config.t ->
  ?key_space:int ->
  ?clients:int ->
  ?cache:bool ->
  ?batching:bool ->
  plan ->
  outcome
(** Run [plan] in a world seeded with [seed]. Defaults: the paper's 3-2-2
    suite and 30 keys. Clients think for an exponential time with mean 2.0
    between operations, and every representative arms a 60-unit transaction
    lease. A [robust] plan runs with the robustness stack armed.

    Every run is audited: each client carries a history recorder feeding
    the online strict-serializability checker, and at quiesce the replica
    scrubber sweeps the settled representatives (each group on its own;
    under a membership record, with the old view's quorums if a change is
    still joint, and demanding one agreed epoch). Recording and checking
    draw no randomness and schedule no events.

    [clients] (default 1) runs that many concurrent clients. With one
    client every response is checked against the inline sequential model;
    with more, the interleavings make that model meaningless, so the inline
    checks are skipped and the history checker is the oracle. On a [Shards]
    world the workload also runs boundary [next] probes across the split
    seam and cross-shard read-write transactions committed with the
    router's two-phase protocol.

    [cache] (default false) attaches a version-validated client cache
    ({!Repdir_cache.Cache}) to every client's suite — the whole point being
    that the inline model, the checker, and the scrubber must stay exactly
    as clean as without it. Aggregated cache counters land in
    [cache_stats].

    [batching] (default false) builds every client's suite with
    per-representative batching: the path perfbench measures, with its
    piggybacked prepare, in-round read-only releases and two-round delete.
    The oracles are the same.

    Every step applies to every world: plan representative [i] is group
    [i / n]'s representative [i mod n], so a [Clock_skew] step skews one
    representative of a sharded world like any other fault.

    Raises [Invalid_argument], before the run starts, if a step names a
    representative or node outside the world, if a change does not fit the
    plan's world, if a plan has more than one [Anti_entropy] step, if a
    [Members] or [Shards] world is given a cache, batching, the robustness
    stack or an anti-entropy actor, or if a [Shards] world has fewer than two groups
    or two keys per group. *)

val run : params -> entry -> outcome
(** Run the entry's campaign plan ({!plan_of}) at its world seed. A single
    entry's run replays exactly what any campaign containing it runs for
    it. *)

val reproduce : outcome -> string
(** The [repdir] arguments that replay a {!run} outcome: the plan name and
    every parameter it ran with. *)

val dump_history : string -> outcome -> unit
(** Write the outcome's retained history window to the given path. *)

val table_of_outcomes : outcome list -> Repdir_util.Table.t
