(** The replicated directory suite — the paper's core algorithm (§3.2).

    A suite combines a configuration (votes, R, W), a quorum-selection
    strategy, and a transport to the representatives. Operations follow the
    paper's figures:

    - {!lookup} — Figure 8: read from a read quorum, answer with the highest
      version number's reply.
    - {!insert}/{!update} — Figure 9: read the key's current version from a
      read quorum, write the entry with version+1 to a write quorum.
    - {!delete} — Figures 12/13: locate the real predecessor and real
      successor (skipping ghosts), copy them to write-quorum members that
      lack them, then coalesce the range with a dominating gap version.

    Each public operation runs inside its own transaction unless an explicit
    transaction (created with {!with_txn}) is supplied; locks follow strict
    2PL at every representative, and every transaction commits by
    presumed-abort two-phase commit at the representatives it touched.

    Transport failures mid-operation are handled by excluding the failed
    representative and re-running the operation body with a fresh quorum;
    representative operations are idempotent for fixed arguments, so re-runs
    are safe. If no quorum can be collected the operation raises
    {!Unavailable} after aborting its transaction. *)

open Repdir_key
open Repdir_quorum
open Repdir_txn

type value = string

exception Unavailable of string

exception Deadline_exceeded of string
(** An operation ran out of its deadline budget (armed by the [Healthy]
    picker; see {!create}): either a representative refused the already-expired work
    ({!Repdir_rep.Rep.Deadline_exceeded}) or the client noticed the expiry
    before re-running the operation body. The operation's transaction was
    aborted and rolled back like any other failure; deliberately {e not}
    retried by {!with_retries} — deadlines exist to fail fast. *)

(** Client-side retry budget: a token bucket shared across one client's
    operations, plugged into {!with_retries}. Every retry spends one token;
    every overall success earns [earn] back (capped at [cap]). Under
    sporadic failures the bucket hovers near its cap and retries proceed as
    normal; under sustained unavailability it empties and retries are
    refused — the client fails fast instead of amplifying a brownout into a
    retry storm. *)
module Retry_budget : sig
  type t

  val create : ?cap:float -> ?earn:float -> unit -> t
  (** Defaults: [cap = 10.0] tokens (also the initial balance),
      [earn = 0.1] per success — steady-state retries are limited to about
      one per ten successes. *)

  val tokens : t -> float
end

type t

type shard_info = { shard_label : unit -> string; shard_epoch : unit -> int }
(** Sharding hook, attached by the multi-group router
    ({!Repdir_shard.Router}) to each per-group suite. The closures read the
    router's current shard map, so this module never depends on the shard
    library. [shard_epoch] stamps every representative call (fenced
    server-side by {!Repdir_rep.Rep.execute} on the [Shard_map] fence,
    beside the membership fence); [shard_label] names the owned range and group,
    appended to quorum-failure messages so a sharded campaign's
    {!Unavailable} errors are attributable to a shard. *)

val create :
  ?picker:Picker.strategy ->
  ?seed:int64 ->
  ?two_phase:bool ->
  ?coordinator:Coordinator.t ->
  ?batch_depth:int ->
  ?batching:bool ->
  ?timers:Repdir_rep.Rep.timers ->
  ?recorder:Repdir_audit.History.recorder ->
  ?shard:shard_info ->
  ?cache:Repdir_cache.Cache.t ->
  config:Config.t ->
  transport:Transport.t ->
  txns:Txn.Manager.t ->
  unit ->
  t
(** Transactions commit by presumed-abort two-phase commit, this client
    acting as [coordinator] (default: a fresh private one): prepare at every
    touched representative — each vote durably records the coordinator's
    node id — force-log the commit decision in the coordinator's own log,
    then run the commit round. Any prepare failure decides abort. A
    participant that crashes or loses contact between prepare and commit
    holds the transaction in doubt and resolves it through the termination
    protocol (querying this coordinator's decision log, or a peer) — so
    either all representatives eventually apply the transaction or none do.

    [two_phase] exists only so that perfbench's source, which passes
    [~two_phase:true], still compiles: [true] and an absent label behave
    the same, and [false] raises [Invalid_argument]. The perfbench change of
    ROADMAP item 2 deletes it.

    [batch_depth] (default 1) enables the §4 batching: real-predecessor/
    successor walks ask each quorum member for [batch_depth] successive
    neighbours per call, so "the real predecessor and real successor will
    often be located using one remote procedure call to each member of the
    quorum". Depth 1 reproduces the paper's pseudo-code exactly.

    Every representative call is a {!Repdir_rep.Rep.execute} message whose
    envelope carries the suite's stamps (described below) and any deferred
    termination notices for that representative.
    [batching] (default false — the seed behaviour, one op per message)
    turns on per-representative message batching: each round of an
    operation packs its per-member representative ops into one message
    (e.g. a delete's repair checks + copies + victim probe + coalesce become
    one message per write-quorum member, and a delete resolves its
    neighbours from its probe replies: see {!delete}), write quorums
    prefer members the transaction already touched, the two-phase-commit
    prepare of a single-operation transaction is piggybacked on its final
    work round, and commit-round deliveries are deferred as notices that
    ride on later messages. A single-operation insert or update is one
    round of conditional writes: see {!insert}. A single-operation
    transaction that only read ends without waiting for its
    release ({!Repdir_rep.Rep.finish_readonly}): a lookup releases its read
    quorum in-round, and so does a one-round write at every member that did
    not write. Any other read-only member is offered the release in the
    prepare round and waited for, because only a refusal there reveals a
    read lock that lease expiry released before the transaction held all its
    locks. A member the transaction sent a write, or one that restarted
    since first contact, goes straight to prepare. Observationally
    equivalent to the unbatched suite op by op, except that one-round writes
    pick other version numbers; only the message count (and the moment locks
    of *committed* transactions are released) changes.
    Deferred commit notices rely on the representatives' lease/termination
    protocol as a backstop, so long-lived deployments should run with leases
    on. With [timers], a notice waits at most 5.0 time units (a constant)
    before a dedicated flush message carries it.

    [recorder] attaches a consistency-audit history recorder
    ({!Repdir_audit.History}): every single-key operation
    (lookup/insert/update/delete) is recorded with its observed result,
    stamped at its invocation (the start of the attempt that produced it), and
    each transaction's completion is stamped [`Ok] (committed), [`Failed]
    (cleanly aborted — the client's own decision log is authoritative, so a
    failure with no commit decision is a presumed abort), or [`Ambiguous]
    (a commit decision was logged but the failure left its delivery
    unknown). Range traversals ([next]/[prev]/[first]/[last]/[fold_range])
    are not recorded.

    The suite reads a membership record: quorums are collected from the
    record's view(s) — {i both} views of a joint record, so quorums on
    either side of a transition intersect — and every representative call
    is stamped with the record's epoch and fenced server-side
    ({!Repdir_rep.Rep.execute}). It starts from [config] as the
    [Stable] record at epoch 0 with every slot [Active]
    ({!Repdir_member.Member.initial}); {!set_membership} replaces it. A
    representative that has installed no record accepts that stamp. A
    static suite is fenced like any other: when it reaches a representative
    that installed a newer epoch it adopts that record instead of writing
    under the old quorums, and a quorum failure names epoch 0 and its
    view.

    A {!Picker.strategy.Healthy} picker with [timers] gives every operation
    a deadline budget of 30.0 time units (a positive constant; without
    [timers] there is no clock to measure it and no deadline): converted to
    an absolute deadline when the operation starts, stamped on each of its
    RPCs (representatives refuse already-expired work —
    {!Repdir_rep.Rep.execute}), and checked client-side before every
    body re-run, so an operation that burned its budget on timeouts raises
    {!Deadline_exceeded} instead of collecting yet another quorum.
    Termination traffic is never stamped: a prepared transaction must
    settle however late.

    [cache] (off by default — the seed behaviour) attaches a version-
    validated client cache ({!Repdir_cache.Cache}) of entries {e and} gaps,
    turning quorum reads into Gifford-style weak-representative
    validations: the read quorum is still collected — same members, same
    point locks, same serialization point — but a read of a cached line
    sends the line's tag with the lookup
    ({!Repdir_rep.Rep.B_lookup_unless}), and only members newer than the
    line reply with the value, in the same round. A cache hit completes
    with zero payload bytes on the wire, and a write decides from version
    tags alone ({!Repdir_rep.Rep.B_validate}). Cached lines are installed and invalidated only when the
    writing transaction commits, are dropped when the membership epoch
    advances, and are tagged with the epoch they were read under — so
    caching is observationally invisible: every operation returns exactly
    what the uncached suite would have returned. *)

val sync_cache_epoch : t -> unit
(** Re-derive the attached cache's epoch tag from the current membership
    {e and} shard epochs, flushing every line if either advanced. The suite
    calls this itself on membership adoption; the shard router calls it when
    it adopts a newer shard map, so lines cached under the old owning group
    of a migrated range die immediately. No-op without a cache. *)

val set_membership : t -> Repdir_member.Member.record -> unit
(** Replace the suite's membership record — the reconfiguration driver's
    hook for advancing its own view after writing a new record. Client
    suites instead learn by fencing: a stale-epoch rejection carries the
    newer record and the operation retries under it (single-operation
    transactions re-run in place; an explicit transaction aborts with
    [Txn.Abort (Unavailable _)] and should be retried wholesale). When no
    quorum can be collected during a transition, the {!Unavailable} message
    names the epoch of the view that failed. *)

val transport : t -> Transport.t

val coordinator : t -> Coordinator.t
(** The decision log this suite commits against. *)

val txns : t -> Txn.Manager.t

val flush_notices : t -> unit
(** Deliver every queued termination notice now, one message per
    representative with a non-empty queue. Failed deliveries re-queue
    (delivery is idempotent). The flush timer calls this automatically;
    harnesses call it to quiesce before auditing lock or in-doubt
    residue. *)

val pending_notice_count : t -> int
(** Termination notices queued but not yet delivered (0 when batching is
    off or the pipeline has drained). *)

(** Everything {!delete} did, for the paper's §4 statistics. *)
type delete_report = {
  was_present : bool;  (** the key had a current entry before the delete *)
  removed_per_rep : (int * int) array;
      (** per write-quorum member: (representative index, entries removed by
          its coalesce) — the "entries in ranges coalesced" samples *)
  repair_inserts : int;
      (** real-predecessor/successor copies installed — "insertions while
          coalescing" *)
  ghosts_deleted : int;
      (** entries removed that were not the deleted key itself — "deletions
          while coalescing" *)
  pred : Bound.t;  (** the real predecessor used for the coalesce *)
  succ : Bound.t;  (** the real successor *)
}

(* --- user operations ------------------------------------------------------- *)

val lookup : ?txn:Txn.id -> t -> Key.t -> (Version.t * value) option

val mem : ?txn:Txn.id -> t -> Key.t -> bool

val insert : ?txn:Txn.id -> t -> Key.t -> value -> (unit, [ `Already_present ]) result
(** DirSuiteInsert (Figure 9): one read-quorum version read decides; only a
    key absent there is written, at the next version. Inside a [txn] an
    insert that answers [`Already_present] keeps its read locks until the
    transaction ends.

    With [batching] and no [txn], the insert is one round instead. The
    suite keeps a clock, the highest version it has read or written, and
    proposes the version after it. It sends one
    {!Repdir_rep.Rep.B_write_unless} to each member of a set that is both a
    read quorum and a write quorum (any two of three at 3-2-2). A member
    writes and votes only when its version of the key is below the
    proposal and the key is absent there; any other member releases the
    transaction in the same message. The replies' version tags decide as a
    version read would. [`Already_present] costs no more than that round.
    If every member wrote, the proposal exceeds every version a read quorum
    holds, so the write commits with no further round. If a member refused,
    the attempt aborts without the client waiting and the insert runs again
    once in a new transaction, proposing above every tag seen and writing
    whatever a member's presence. A second refusal falls back to the
    two-round path. A batched insert's version is therefore not the gap's
    version plus one. *)

val update : ?txn:Txn.id -> t -> Key.t -> value -> (unit, [ `Not_present ]) result
(** DirSuiteUpdate (Figure 9): as {!insert}, writing only a key present at
    the version read. The one-round form's first attempt writes only at
    members where the key is present. *)

val delete : ?txn:Txn.id -> t -> Key.t -> delete_report
(** Deleting an absent key is permitted (Figure 13 never tests presence): the
    surrounding range is still coalesced, which may clean up ghosts; the
    report has [was_present = false].

    With [batching], a delete that meets no ghost takes two rounds: the
    probes of both neighbours plus a tag read of the key, then the write
    round. Each probe reply carries the member's nearest entry, its version
    and value, and the version of the gap up to it, under a lock covering
    that span. So the candidate's version at every member is in hand (its
    entry's, or its gap's), and the candidate resolves as a lookup round of
    it at that quorum would. A ghost costs one more round, to the members
    that returned it. Unbatched, the delete follows Figures 12 and 13 call for call. *)

(* --- ordered traversal ------------------------------------------------------ *)

val next : ?txn:Txn.id -> t -> Key.t -> (Key.t * Version.t * value) option
(** Smallest *current* entry with key strictly greater than the argument
    (ghosts are skipped via the real-successor walk of Figure 12); [None] at
    the end of the directory. The argument need not be present. *)

val prev : ?txn:Txn.id -> t -> Key.t -> (Key.t * Version.t * value) option
(** Mirror of {!next}. *)

val first : ?txn:Txn.id -> t -> (Key.t * Version.t * value) option
val last : ?txn:Txn.id -> t -> (Key.t * Version.t * value) option
(** The smallest (largest) current entry, or [None] on an empty directory:
    the same real-successor (real-predecessor) walk as {!next} ({!prev}),
    started from the LOW (HIGH) sentinel. *)

val fold_range :
  ?txn:Txn.id -> t -> lo:Key.t -> hi:Key.t -> init:'a -> f:('a -> Key.t -> value -> 'a) -> 'a
(** Fold over current entries with [lo <= key <= hi] in ascending order; one
    transaction covers the whole scan, so the result is a consistent
    snapshot under strict 2PL. *)

val to_alist : ?txn:Txn.id -> t -> (Key.t * value) list
(** The whole directory, ascending — a consistent snapshot. *)

(* --- multi-operation transactions ------------------------------------------ *)

val with_txn : t -> (Txn.id -> 'a) -> 'a
(** Run several suite operations as one atomic transaction: 2PL locks are
    held across the whole body and released at the commit (or rollback on
    exception, which is then re-raised). [with_txn t f] is
    [with_txns [| t |] f]. *)

val with_txns : t array -> (Txn.id -> 'a) -> 'a
(** The one commit driver. Runs [f] as a transaction over [suites], one
    per replica group, which must share one transaction manager,
    coordinator and recorder (the first suite's are used). After the body
    it prepares every suite the transaction touched, makes one decision in
    the shared coordinator's log, runs a commit or abort round per suite,
    applies (or drops) each suite's staged cache lines and stamps the
    transaction's finish once. A suite the transaction never touched sends
    nothing. A failed vote anywhere aborts everywhere and raises
    {!Unavailable}; a body exception aborts every touched suite and is
    re-raised. *)

(* --- client-level retry ----------------------------------------------------- *)

val with_retries :
  ?attempts:int ->
  ?backoff:float ->
  ?deadline:float ->
  ?budget:Retry_budget.t ->
  ?sleep:(float -> unit) ->
  ?rng:Repdir_util.Rng.t ->
  (unit -> 'a) ->
  'a
(** [with_retries f] runs [f], re-running it when it fails transiently —
    {!Unavailable} (no quorum) or a transaction abort for deadlock or
    unavailability — up to [attempts] times total (default 5). Failed
    attempts were rolled back by the transaction machinery, so re-running is
    safe. Between attempts it calls [sleep] (default: none — e.g.
    [Sim.sleep sim] on the simulator) with an exponential backoff starting
    at [backoff] (default 1.0), jittered uniformly in [0.5, 1.5) when [rng]
    is supplied. The final failure is re-raised; non-transient exceptions
    propagate immediately ({!Deadline_exceeded} in particular is never
    retried).

    [deadline] caps the cumulative backoff sleep (default [48 * backoff]):
    a retry whose pause would push total sleeping past it re-raises the
    failure instead — the attempt count alone is unbounded in wall-clock
    terms once backoff growth compounds. The default never binds for the
    default schedule (worst case ~22.5 × backoff) but keeps any
    [attempts]/[backoff] combination finite in time. [budget] plugs in a
    shared {!Retry_budget}: each retry must buy a token (re-raising the
    failure when the bucket is dry) and each success earns a fraction back,
    so sustained unavailability makes this client fail fast rather than
    retry-storm. *)
