(** The simulated deployment: [groups] independent replica groups of [n]
    representatives each, all on one simulated network with shared clients
    and one shared syncer node. A single replica group — the paper's suite
    of representatives — is the one-group world, addressed as group 0.

    Node layout: group [g]'s representative [i] occupies global node
    [g*n + i]; clients follow at [groups*n ..]; the syncer node is last. One
    transaction manager and one lock group span the whole deployment, so
    cross-shard client transactions and cross-group migration sessions
    serialize against single-group traffic exactly as they would inside one
    group. Representative lock waits suspend the server-side RPC process, so
    concurrent client transactions contend exactly as §3.1 prescribes. In a
    one-group world representatives are named [rep%d], otherwise
    [g%d.rep%d]. *)

open Repdir_sim
open Repdir_rep
open Repdir_quorum
open Repdir_txn
open Repdir_shard

type t

val create :
  ?seed:int64 ->
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
  groups:int ->
  unit ->
  t
(** [create ~config ~groups ()] builds a [groups]-group deployment where
    every group runs [config]. The options are shared by all groups.

    Link latency is exponential with mean 1.0; [rpc_timeout] defaults to
    50.0 time units; [n_clients] to 1. [parallel_rpc] (default true) fans quorum
    requests out concurrently (the §5 latency optimization); when false,
    quorum members are contacted one at a time as in the paper's
    pseudo-code.
    Client transactions commit by presumed-abort two-phase commit; each
    client doubles as the coordinator of its own transactions, keeping its
    decision log at its own node ({!coordinator}). An in-doubt participant
    asks that coordinator by RPC, then the peers of its own group; this
    resolver is always installed, so crash-recovered in-doubt transactions
    terminate. [lease] (default: none)
    arms a sliding virtual-clock lease over every transaction at every
    representative: an unprepared transaction idle for a lease period is
    unilaterally aborted and its locks released; a prepared one goes in
    doubt and is resolved as above.

    [group_commit] (default: none — every force syncs immediately) gives
    each representative's write-ahead log a group-commit window, held only
    while another unvoted writer could join it (see
    {!Repdir_rep.Rep.create}); keep it well below [lease]. [admission]
    (default: none — every request is admitted) arms the sliding-window
    admission controller at every representative: requests beyond the cap
    surface at clients as [Error (Transport.Overloaded _)], and maintenance
    traffic (anti-entropy, keepalives) is shed first.

    Every message — client, sync, in-doubt resolver and shard-view probe —
    goes through {!Repdir_sim.Rpc.call_at_most_once}: each node keeps a
    request-id dedup cache (reset when it crashes), and a client or sync
    call timing out is retransmitted up to [rpc_attempts] times total
    (default 1 — no retries, the paper's behaviour) with exponential backoff
    starting at [rpc_backoff] (default 5.0) and deterministic jitter.

    [two_phase] exists only so that perfbench's source, which passes
    [~two_phase:true], still compiles: [true] and an absent label behave
    the same, and [false] raises [Invalid_argument]. The perfbench change of
    ROADMAP item 2 deletes it. *)

(* --- accessors --------------------------------------------------------------- *)

val sim : t -> Sim.t
val net : t -> Net.t
val txns : t -> Txn.Manager.t

val config : t -> Config.t
(** The configuration every group runs. *)

val groups : t -> int
(** Number of replica groups. *)

val group_reps : t -> int -> Rep.t array
(** Group [g]'s representatives, for scrubbing and direct inspection at
    quiesce. *)

val coordinator : t -> int -> Coordinator.t
(** Client [i]'s two-phase-commit decision log (it lives at the client's
    node; in-doubt participants reach it by RPC). *)

(* --- clients ----------------------------------------------------------------- *)

val client_transport :
  ?health:Picker.Health.t -> t -> int -> int -> Repdir_core.Transport.t
(** [client_transport t i g] is client [i]'s transport to group [g]: the
    suite sees a plain [n]-representative world whose member [r] lives at
    global node [g*n + r]. Calls must be made from inside a simulator
    process. Every retransmission counts in the transport's [retry_count]
    and [msg_count].

    [health] (default: none — no observations) feeds every call's outcome
    into a gray-failure score table (see {!Picker.Health}): latency is
    measured as the client saw it (retransmissions and timeout waits
    included) and a call counts as ok when the representative answered — an
    application exception is a timely answer; a timeout, crash or overload
    rejection is not, and each retransmission is reported as a failed
    observation at once. *)

val recorder_for_client : t -> int -> Repdir_audit.History.recorder
(** A history recorder stamped with client [i]'s id and the (unskewed)
    simulator clock, for the strict-serializability checker. *)

val shard_view_peek : t -> int -> int -> string option
(** [shard_view_peek t i g]: client [i] asks group [g]'s representatives in
    turn for their installed shard map record, returning the first non-empty
    answer — how a router blocked on a [Moving] range learns the flip landed
    without waiting to be fenced. *)

val suite_for_client :
  ?seed:int64 ->
  ?batching:bool ->
  ?recorder:Repdir_audit.History.recorder ->
  ?health:Picker.Health.t ->
  ?cache:Repdir_cache.Cache.t ->
  ?shard:Repdir_core.Suite.shard_info ->
  t ->
  int ->
  int ->
  Repdir_core.Suite.t
(** [suite_for_client t i g] is a suite for client [i] over group [g], whose
    timers run on the simulator clock and which commits through client
    [i]'s coordinator ({!coordinator}). It starts from the world's
    configuration as the epoch-0 membership record
    ({!Repdir_core.Suite.set_membership} replaces it); every representative
    call is epoch-stamped and fenced. [batching]
    (default false) turns on per-representative message batching and
    [recorder] attaches a consistency-audit history recorder (build one
    with {!recorder_for_client}); [cache] attaches a version-validated
    client cache and [shard] the shard-map fence (see
    {!Repdir_core.Suite.create}). [health] arms the whole client-side
    robustness stack: it is threaded to {!client_transport} so the suite's
    transport feeds the score table, and quorum selection uses the
    [Picker.Healthy] picker over it, which also arms a 30-unit
    per-operation deadline budget. Without it the suite uses the [Random]
    picker and no deadline. *)

val router_for_client :
  ?recorder:Repdir_audit.History.recorder -> t -> int -> map:Shard_map.t -> Router.t
(** [router_for_client t i ~map] wires a {!Repdir_shard.Router} for client
    [i]: one {!suite_for_client} per replica group of the deployment (not
    merely of [map] — see {!Router.create}'s [groups]), all sharing client
    [i]'s coordinator, the deployment transaction manager and (optionally)
    one recorder, with no other option set. *)

(* --- anti-entropy ------------------------------------------------------------ *)

val make_sync :
  ?config:Repdir_sync.Sync.config -> ?seed:int64 -> t -> int list -> Repdir_sync.Sync.t
(** [make_sync t gs] is an anti-entropy actor whose peers are the
    representatives of groups [gs] in order: peer [k*n + i] is the [k]th
    listed group's representative [i]. Over [[g]] it reconciles one group;
    over [[from_g; to_g]], [Sync.session_between ~src:i ~dst:(n+j)] is a
    sliced source-to-target migration session. Peers are reached from the
    syncer node with the client RPC discipline; an exhausted retry budget
    or an overload rejection surfaces as an unreachable peer and fails the
    session. Shares the deployment's lock group, so sessions serialize
    after in-flight client writers. The actor is not scheduled: drive it
    with {!Repdir_sync.Sync.round} or {!Repdir_sync.Sync.run}. *)

(* --- fault injection ---------------------------------------------------------- *)

val set_clock_skew : t -> g:int -> int -> offset:float -> rate:float -> unit
(** Skew group [g]'s representative [i]'s virtual clock: it reads
    [offset + rate * Sim.now] and sees scheduled delays divided by [rate]
    (a fast clock, [rate > 1], expires leases early). The defaults
    [(0, 1)] reproduce the shared clock exactly. Affects everything driven
    by the representative's own timers — leases, termination retries,
    group-commit windows — while the network and the clients keep the true
    clock. Raises [Invalid_argument] if [rate] is not positive. *)

val crash_rep : ?wal_fault:Repdir_txn.Wal.storage_fault -> t -> g:int -> int -> unit
(** Crash group [g]'s representative [i]: network down, volatile state lost,
    RPC dedup table reset; [wal_fault] additionally damages the write-ahead
    log's tail at the moment of the crash (torn write), to be discovered on
    recovery. *)

val recover_rep : t -> g:int -> int -> unit
(** Bring the node back and replay the representative's write-ahead log. *)
