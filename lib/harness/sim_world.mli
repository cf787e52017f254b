(** A complete simulated deployment: representative servers on network nodes,
    suite clients calling them by RPC, and failure injection.

    Node layout: representatives occupy nodes [0 .. n-1]; each client created
    with {!client_transport} gets its own node. Representative lock waits
    suspend the server-side RPC process, so concurrent client transactions
    contend exactly as §3.1 prescribes. *)

open Repdir_sim
open Repdir_rep
open Repdir_quorum
open Repdir_core
open Repdir_txn

type t

val create :
  ?seed:int64 ->
  ?latency:(Repdir_util.Rng.t -> float) ->
  ?rpc_timeout:float ->
  ?rpc_attempts:int ->
  ?rpc_backoff:float ->
  ?n_clients:int ->
  ?parallel_rpc:bool ->
  ?two_phase:bool ->
  ?lease:float ->
  ?group_commit:float ->
  ?admission:Rep.admission ->
  config:Config.t ->
  unit ->
  t
(** [latency] defaults to exponential with mean 1.0; [rpc_timeout] to 50.0
    time units; [n_clients] to 1. [parallel_rpc] (default true) fans quorum
    requests out concurrently (the §5 latency optimization); when false,
    quorum members are contacted one at a time as in the paper's
    pseudo-code. [two_phase] (default false) commits suite transactions with
    presumed-abort two-phase commit; each client doubles as the coordinator
    of its own transactions, keeping its decision log at its own node
    ({!coordinator}), which participants query to resolve in-doubt
    transactions. [lease] (default: none) arms a sliding virtual-clock lease
    over every transaction at every representative: an unprepared
    transaction idle for a lease period is unilaterally aborted (presumed
    abort) and its locks released; a prepared one goes in doubt and is
    resolved by querying its coordinator, then peers. The resolver is
    installed regardless of [lease], so crash-recovered in-doubt
    transactions always terminate.

    [group_commit] (default: none — every force syncs immediately, the seed
    behaviour) gives each representative's write-ahead log a group-commit
    window: a force that finds no sync pending becomes the group leader,
    waits that long in sim time, and syncs once for every force that arrived
    meanwhile (see {!Repdir_rep.Rep.create}). Keep it well below [lease].

    [admission] (default: none — every request is admitted, the seed
    behaviour) arms the sliding-window admission controller at every
    representative (see {!Repdir_rep.Rep.create}): requests beyond the
    window cap are rejected with {!Repdir_rep.Rep.Overloaded}, which client
    transports surface as [Error (Transport.Overloaded _)] and the suite
    treats as a non-quorum-eligible representative; maintenance traffic
    (anti-entropy, keepalives) is shed first.

    All client RPCs go through {!Repdir_sim.Rpc.call_at_most_once}: each
    representative node keeps a request-id dedup cache (reset when it
    crashes), and a call timing out is retransmitted up to [rpc_attempts]
    times total (default 1 — no retries, the paper's behaviour) with
    exponential backoff starting at [rpc_backoff] (default 5.0) and
    deterministic jitter. *)

val parallel_fanout : Sim.t -> Transport.fanout
(** Fork/join quorum fan-out over simulator processes — the concurrent
    [fanout] this world's client transports use. Exposed so other worlds
    (e.g. the sharded one) can build transports over the same simulator. *)

val parallel_race : Sim.t -> Transport.race
(** First-success-wins hedged-call race over simulator processes — the
    [race] primitive of this world's client transports. *)

val sim : t -> Sim.t
val net : t -> Net.t
val config : t -> Config.t
val txns : t -> Txn.Manager.t
val reps : t -> Rep.t array

val coordinator : t -> int -> Coordinator.t
(** Client [i]'s two-phase-commit decision log (it lives at the client's
    node; in-doubt participants reach it by RPC). *)

val client_transport : ?health:Picker.Health.t -> t -> int -> Transport.t
(** Transport for client [i] (0-based, [i < n_clients]). Calls must be made
    from inside a simulator process. [health] (default: none — no
    observations, the seed behaviour) feeds every call's outcome into a
    gray-failure score table (see {!Picker.Health}): latency is measured as
    the client saw it (retransmissions and timeout waits included) and a
    call counts as ok when the representative answered — an application
    exception is a timely answer; a timeout, crash or overload rejection is
    not. When the world runs with [parallel_rpc] (the default) the transport
    also offers {!Transport.race}, so suites with a [Healthy] picker can
    race a spare against a suspected-slow representative. *)

val suite_for_client :
  ?seed:int64 ->
  ?batching:bool ->
  ?recorder:Repdir_audit.History.recorder ->
  ?membership:Repdir_member.Member.record ->
  ?health:Picker.Health.t ->
  ?cache:Repdir_cache.Cache.t ->
  t ->
  int ->
  Suite.t
(** [batching] (default false) turns on the suite's per-representative
    message batching (see {!Suite.create}); the suite's deferred-notice
    flush timer runs on this world's simulator clock. [recorder] attaches a
    consistency-audit history recorder to the suite (see {!Suite.create});
    build one with {!recorder_for_client}. [membership] is the record the
    suite starts from (default: the world's configuration at epoch 0);
    either way every representative call is epoch-stamped and fenced (see
    {!Suite.create}). [health] arms the whole client-side robustness stack:
    it is threaded to {!client_transport} so the suite's transport feeds the
    score table, quorum selection uses the [Picker.Healthy] picker over it
    (which also arms hedged reads), and every operation gets a 30-unit
    deadline budget. Without it the suite uses the [Random] picker, no
    hedging and no deadline. [cache] attaches a version-validated client
    cache. *)

val recorder_for_client : ?cap:int -> t -> int -> Repdir_audit.History.recorder
(** A history recorder for client [i], stamping events with this world's
    (unskewed) simulator clock. *)

(* --- anti-entropy ----------------------------------------------------------- *)

val syncer_node : t -> int
(** The network node the anti-entropy actor calls from (allocated after the
    clients, so it never perturbs client node ids). *)

val make_sync :
  ?config:Repdir_sync.Sync.config -> ?seed:int64 -> t -> Repdir_sync.Sync.t
(** An anti-entropy actor whose peers reach every representative over the
    at-most-once RPC layer from {!syncer_node} (same timeout/retry settings
    as client transports; an exhausted retry budget surfaces as an
    unreachable peer and fails the session). The actor is not scheduled:
    drive it with {!Repdir_sync.Sync.round} from a simulator process, or use
    {!start_sync}. *)

val start_sync :
  ?config:Repdir_sync.Sync.config -> ?seed:int64 -> ?until:float -> t ->
  Repdir_sync.Sync.t
(** {!make_sync} plus {!Repdir_sync.Sync.run}: the periodic background actor
    is spawned on the simulator before [run] is next called. *)

val set_clock_skew : t -> int -> offset:float -> rate:float -> unit
(** Skew representative [i]'s virtual clock: it reads
    [offset + rate * Sim.now] and sees scheduled delays divided by [rate]
    (a fast clock, [rate > 1], fires lease timers early). The defaults
    [(0, 1)] reproduce the shared clock exactly. Affects everything driven
    by the representative's own timers — leases, termination retries,
    group-commit windows — while the network and the clients keep the true
    clock. Raises [Invalid_argument] if [rate] is not positive. *)

val clock_skew : t -> int -> float * float
(** Current [(offset, rate)] of representative [i]'s clock. *)

val set_io_fault : t -> int -> Repdir_txn.Wal.io_fault option -> unit
(** Arm or heal a WAL write failure at representative [i] (see
    {!Repdir_rep.Rep.set_io_fault}): while armed, operations needing a log
    record abort their transaction cleanly and the representative stays
    up. *)

val crash_rep : ?wal_fault:Repdir_txn.Wal.storage_fault -> t -> int -> unit
(** Crash both the node (messages drop) and the representative (volatile
    state lost, RPC dedup cache reset). [wal_fault] additionally damages the
    write-ahead log's tail at the moment of the crash (torn write). *)

val recover_rep : t -> int -> unit
(** Bring the node back and replay the representative's write-ahead log. *)
