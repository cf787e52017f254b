(** A directory representative (§3.1, Figure 6).

    One replica of the directory data: a B+tree gap map guarded by a range
    lock manager, with per-transaction undo logs and a write-ahead log for
    crash recovery. Every operation is performed on behalf of a transaction
    and takes the lock the paper specifies:

    - [lookup x] — RepLookup(x, x)
    - [walk Down x] (DirRepPredecessor) — RepLookup(y, x) where y is the
      farthest key returned
    - [walk Up x] (DirRepSuccessor) — RepLookup(x, y) where y is the
      farthest key returned
    - [insert x] — RepModify(x, x)
    - [coalesce l h] — RepModify(l, h)

    Locks are held until {!commit} or {!abort} (strict two-phase locking).

    Blocking: when a lock cannot be granted immediately the representative
    invokes the [waiter] it was created with, passing a registration function
    for the wake-up callback; the discrete-event simulator suspends the
    calling process there. The default waiter raises, which is correct for
    single-transaction (sequential) use where blocking is impossible. When a
    lock request would close a waits-for cycle, [Txn.Abort (Deadlock _)] is
    raised to unwind to the transaction boundary. *)

open Repdir_key
open Repdir_gapmap

exception Crashed of string
(** Raised by every operation while the representative is crashed. *)

exception Overloaded of string
(** Raised (carrying the representative's name) when the admission
    controller pushes a request back instead of executing it — the
    representative is alive but shedding load. Clients treat it like a
    transport failure: exclude this representative and collect the quorum
    elsewhere. Only raised when an {!admission} policy is configured. *)

exception Deadline_exceeded of string
(** Raised by {!execute} when a message's client-stamped deadline has already
    passed on arrival: executing it would waste server capacity on work whose
    client has given up. *)

type fence = Repdir_txn.Wal.fence = Membership | Shard_map
(** The records a representative fences requests with (see "epoch fencing"
    below): a group's membership record and the multi-group shard map. *)

exception Stale_epoch of { rep : string; fence : fence; epoch : int; record : string }
(** Raised by {!execute} when the caller's epoch for [fence] is older
    than this representative's: the request is rejected, and the exception
    carries the representative's newer epoch and encoded record so the
    sender can adopt it (a suite re-reads its quorums, a router re-routes)
    and retry in one round trip. *)

type waiter = ((unit -> unit) -> unit) -> unit
(** [waiter register]: block the current logical thread; [register] must be
    called immediately with the wake-up callback and returns at once; the
    waiter itself returns only once the callback has fired. *)

type timers = { now : unit -> float; after : float -> (unit -> unit) -> unit }
(** Clock access for leases and termination retries: [now] reads the virtual
    clock, [after d k] schedules [k] to run as a new logical thread [d] time
    units from now (it may block, e.g. on RPC). Without timers the
    representative never expires leases and never self-resolves in-doubt
    transactions. *)

(** Admission-control policy (off by default; needs [timers]). The
    representative keeps a sliding [window]-long record of admitted work as a
    stand-in for its request queue; an arrival finding [cap] or more entries
    is rejected {!Overloaded}, and from [shed_at] entries up the breaker
    sheds non-quorum-critical ([`Maintenance]) work — anti-entropy transfers
    and keepalives — first, keeping headroom for the operations quorums
    depend on. Termination traffic (prepare/commit/abort/outcome queries,
    notices) is never charged: shedding it would strand locks and in-doubt
    transactions and make the overload worse. *)
type admission = { window : float; cap : int; shed_at : int }

val default_admission : admission
(** [{ window = 10.0; cap = 96; shed_at = 64 }]. *)

type work_class = [ `Critical | `Maintenance ]

type resolution_source = By_coordinator | By_peer

type resolver = coord:int -> Repdir_txn.Txn.id -> ([ `Committed | `Aborted ] * resolution_source) option
(** Termination query callback, installed by the harness: ask the coordinator
    node [coord] for the transaction's decision and, if it is unreachable,
    ask peer representatives what they know ({!outcome_of}). [None] means
    nobody knows yet; the representative retries after a lease period. May
    block (RPC); exceptions are treated as [None]. *)

type t

(** Operation counters, for the performance characterization. *)
type counters = {
  mutable lookups : int;
  mutable predecessors : int;
  mutable successors : int;
  mutable inserts : int;
  mutable coalesces : int;
  mutable lock_waits : int;  (** lock requests that could not be granted immediately *)
  mutable digests : int;  (** anti-entropy digest requests served *)
  mutable pulls : int;  (** anti-entropy range transfers served *)
  mutable sync_applies : int;  (** anti-entropy merges applied here *)
  mutable leases_expired : int;  (** transaction leases that ran out *)
  mutable unilateral_aborts : int;  (** expiries terminated alone (unprepared) *)
  mutable indoubt_by_coordinator : int;  (** in-doubt resolved by asking the coordinator *)
  mutable indoubt_by_peer : int;  (** in-doubt resolved by asking a peer rep *)
  mutable indoubt_recovered : int;
      (** resolved in-doubt transactions that had been restored by crash recovery *)
  mutable batches : int;  (** {!execute} messages served *)
  mutable batch_ops : int;  (** individual ops run inside those batches *)
  mutable notices_applied : int;  (** piggybacked termination notices applied *)
  mutable readonly_finishes : int;  (** transactions released by {!finish_readonly} *)
  mutable overload_rejects : int;  (** arrivals pushed back at the admission cap *)
  mutable shed_rejects : int;  (** maintenance work shed by the overload breaker *)
  mutable expired_rejects : int;  (** requests refused because their deadline had passed *)
  mutable validates : int;
      (** cache validations served: tag reads ([B_validate]) and conditional
          lookups ([B_lookup_unless]) *)
  mutable checkpoints : int;  (** {!checkpoint}s taken, automatic ones included *)
}

val create :
  ?waiter:waiter ->
  ?lock_group:Repdir_lock.Lock_manager.group ->
  ?timers:timers ->
  ?lease:float ->
  ?group_commit:float ->
  ?admission:admission ->
  name:string ->
  unit ->
  t
(** [lock_group] shares waits-for deadlock detection across representatives
    (see {!Repdir_lock.Lock_manager.group}); required whenever concurrent
    transactions span representatives. [timers] connects the representative
    to the virtual clock; [lease] (off by default) bounds how long a
    transaction may sit idle here before the termination protocol takes over.
    Expiry is watched by one sweep per representative, armed at the earliest
    lease deadline on the local clock, not by a timer per transaction.
    In-doubt termination queries go to the resolver installed with
    {!set_resolver} (none at creation).

    [group_commit] (off by default; needs [timers]) is the longest a WAL
    force (prepare, commit, epoch installation) waits for company. The first
    forcer holds the window open only while another transaction has logged
    writes here and not yet voted, since that transaction's prepare could
    join; every force requested meanwhile rides on its single sync. Alone,
    it syncs at once. Must be well below [lease]: forcers block through the
    window while holding their locks.

    [admission] (off by default; needs [timers]) arms admission control over
    every Figure-6 operation, anti-entropy endpoint and keepalive — see
    {!admission}. Absent, no admission state is kept and the operation paths
    are byte-identical to a representative built before this knob existed. *)

val set_resolver : t -> resolver -> unit

val name : t -> string
val counters : t -> counters
val size : t -> int

(* --- epoch fencing ------------------------------------------------------- *)

(* One durable (epoch, encoded record) slot per {!fence}; both fences follow
   the same contract. *)

val fence_view : t -> fence -> int * string
(** [(epoch, encoded record)] of the newest durably installed epoch of a
    fence — [(0, "")] before any installation. The shard-map view is the
    router's explicit refresh probe (e.g. when a write keeps landing on a
    migrating range and the router must learn the completed flip). *)

val epoch : t -> int
(** The installed membership epoch: [fst (fence_view t Membership)]. *)

val install_epoch : t -> fence -> epoch:int -> record:string -> bool
(** Install an epoch of [fence]: logged as {!Repdir_txn.Wal.Epoch} and
    forced before acknowledging, so a representative counted toward fence
    coverage cannot forget across a crash. Monotone — an older epoch is
    ignored (returns [true]: the fence is already at least this new);
    returns [false] only when the log refuses the append (injected io
    fault). Recovery restores each fence and {!checkpoint} re-logs it. *)

(* --- overload pushback ------------------------------------------------------ *)

val admission_depth : t -> int
(** Entries currently in the admission window (stale entries are pruned
    lazily, on the next charge). 0 when admission control is off. *)

(* --- Figure 6 operations -------------------------------------------------- *)

val lookup : t -> txn:Repdir_txn.Txn.id -> Bound.t -> Gapmap_intf.lookup

(** A key's version tag with the payload shed: the entry's version when
    present, the containing gap's version when absent. Because every key —
    present or absent — has exactly one version here, a tag is a complete
    currency proof for a client-cached entry or gap line. *)
type version_tag = Tag_entry of Repdir_key.Version.t | Tag_gap of Repdir_key.Version.t

(** Which way a neighbour probe goes: [Down] to predecessors, [Up] to
    successors. *)
type direction = Down | Up

val walk :
  t ->
  txn:Repdir_txn.Txn.id ->
  direction ->
  Bound.t ->
  depth:int ->
  (Gapmap_intf.neighbor * Gapmap_intf.value) list
(** DirRepPredecessor ([Down]) or DirRepSuccessor ([Up]): up to [depth]
    successive neighbours of the bound, nearest first, each with its value
    ([""] for a sentinel). A [Down] element carries the version of the gap
    following it, an [Up] element that of the gap preceding it: the gap
    between it and the walk's previous position. The list ends early at LOW
    or HIGH (inclusive). [depth] > 1 is the §4 batching: "each member of a
    read quorum sends the results of three successive DirRepPredecessor ...
    operations in a single message". Takes one RepLookup lock spanning the
    whole returned range, and reads the values under it. Counts one
    [predecessors] or [successors] per call. Raises [Invalid_argument] when
    [depth] is not positive or the bound is the walk's own end. *)

val insert : t -> txn:Repdir_txn.Txn.id -> Key.t -> Version.t -> Gapmap_intf.value -> unit

val coalesce :
  t -> txn:Repdir_txn.Txn.id -> lo:Bound.t -> hi:Bound.t -> Version.t -> int
(** Returns the number of entries deleted (the paper's "entries in ranges
    coalesced" statistic for this representative). Raises
    {!Gapmap_intf.Missing_endpoint} if an endpoint entry is absent. *)

(* --- anti-entropy endpoints ------------------------------------------------- *)

val digest_range :
  t -> txn:Repdir_txn.Txn.id -> lo:Bound.t -> hi:Bound.t -> Gapmap_intf.digest
(** Digest of this representative's state over [(lo, hi]], under a
    RepLookup(lo, hi) lock — concurrent modifications of the range are
    serialized against the sync transaction. *)

val digest_interior_range :
  t -> txn:Repdir_txn.Txn.id -> lo:Bound.t -> hi:Bound.t -> Gapmap_intf.digest
(** Like {!digest_range} but excluding the version of the gap immediately
    above [lo] (RepLookup lock). That gap can extend below [lo], so its
    version moves with deletions outside the range; convergence gates over a
    write-fenced slice compare this digest instead, since the fence freezes
    the slice's entries and interior gaps but not the shared boundary
    gap. *)

val split_range :
  t -> txn:Repdir_txn.Txn.id -> lo:Bound.t -> hi:Bound.t -> arity:int -> Bound.t list
(** Interior cut keys partitioning the range into roughly entry-equal
    sub-ranges (RepLookup lock), for recursing into a digest mismatch. *)

val pull_range :
  t -> txn:Repdir_txn.Txn.id -> lo:Bound.t -> hi:Bound.t -> Gapmap_intf.transfer
(** Versioned transfer of the range's full state (RepLookup lock). *)

val apply_range :
  t -> txn:Repdir_txn.Txn.id -> Gapmap_intf.transfer -> Gapmap_intf.applied
(** Merge a peer's transfer under a RepModify(t_lo, t_hi) lock: install or
    overwrite entries the peer holds at strictly higher versions, raise
    dominated gap versions (never beyond what the peer attests), and delete
    entries dominated by a newer peer gap when the removal is exact. The
    merge is a plan of primitive ops written to the write-ahead log as one
    {!Repdir_txn.Wal.record.Sync_apply} record and undo-logged op by op, so
    it aborts and replays like any other transaction work. Idempotent: a
    second apply of the same transfer is a no-op (versions never lowered). *)

val root_digest : t -> Gapmap_intf.digest
(** Lock-free digest of the whole directory, for convergence checks by the
    harness (not part of the locked protocol). Raises {!Crashed} while the
    representative is down. *)

val keepalive : t -> txn:Repdir_txn.Txn.id -> unit
(** Renew the transaction's lease here without taking locks or doing work.
    A long multi-peer sync session leaves all but one participant idle while
    it walks the others; without heartbeats those idle leases expire and
    unilaterally abort the session from under it. Raises like any other
    operation if the transaction has already been terminated here. *)

(* --- batched execution ------------------------------------------------------ *)

(** One step of a batched message (§4: representative calls "batch into few
    messages"): the suite packs each round's per-representative calls into a
    single {!execute} RPC instead of one RPC per call. *)
type batch_op =
  | B_lookup of Bound.t
  | B_validate of Bound.t
      (** Version-only lookup, for a cached client's writes: the key's
          {!version_tag}, under the same
          RepLookup(point) lock as {!lookup} — the serialization point of a
          version-only read is identical to a payload read's; only the
          reply bytes differ. *)
  | B_lookup_unless of Bound.t * version_tag
      (** Conditional lookup of a client's cached line with the given tag,
          as HTTP's [If-None-Match]: under the same lock as {!lookup}, the
          reply is [R_current] when this member's tag equals the line's,
          [R_older] when its version is lower, and the full [R_lookup] only
          when its version is higher (or equal under the other presence). *)
  | B_walk of direction * Bound.t * int
      (** [(dir, bound, depth)]: {!walk}, answered with every neighbour's
          value ([R_walk]). *)
  | B_insert of Key.t * Version.t * Gapmap_intf.value
  | B_insert_if_absent of Key.t * Version.t * Gapmap_intf.value
      (** Fused existence check + conditional copy, for the delete repair
          round; a no-op (taking only the lock) when the key is present. *)
  | B_coalesce of Bound.t * Bound.t * Version.t  (** lo, hi, version *)
  | B_write_unless of Key.t * Version.t * Gapmap_intf.value * bool option * int
      (** [(key, v, value, expect, coord)]: a batched implicit insert or
          update in one round. Under RepModify(key) the member reads the
          key's {!version_tag}. It writes the entry at [v] (logged,
          undo-recorded, applied) only when the tag's version is below [v]
          and, unless [expect] is [None], the key's presence here equals
          [expect]; then it votes yes for coordinator [coord] as
          [B_prepare] does. Otherwise it releases the transaction as
          [B_finish_readonly] does. The reply is [R_write (tag, wrote)],
          the tag read before any write. A transaction that already wrote
          at this member (a re-executed retransmission) is refused with
          [Txn.Abort]. *)
  | B_prepare of int
      (** Two-phase-commit vote piggybacked on the transaction's final work
          round (last-round optimization); the argument is the coordinator
          node. Everything {!prepare} implies applies — in particular the
          vote binds even though the client learns it together with the
          round's results. *)
  | B_finish_readonly
      (** Release the transaction here if (and only if) it did no work at
          this representative — see {!finish_readonly}. *)

type batch_result =
  | R_lookup of Gapmap_intf.lookup
  | R_tag of version_tag  (** [B_validate]: the key's version tag *)
  | R_current  (** [B_lookup_unless]: this member holds exactly the line *)
  | R_older  (** [B_lookup_unless]: this member's version is below the line's *)
  | R_walk of (Gapmap_intf.neighbor * Gapmap_intf.value) list  (** [B_walk]: {!walk}'s answer *)
  | R_unit
  | R_inserted of bool  (** [B_insert_if_absent]: whether the copy was installed *)
  | R_removed of int  (** [B_coalesce]: entries deleted *)
  | R_write of version_tag * bool
      (** [B_write_unless]: the key's tag before the op, and whether it wrote *)
  | R_finished of bool  (** [B_finish_readonly]: whether the release was granted *)

(** A deferred termination record for a transaction *other* than the one a
    message is executing: piggybacked on the next message to this
    representative instead of costing a dedicated commit-round message. *)
type notice = N_commit of Repdir_txn.Txn.id | N_abort of Repdir_txn.Txn.id

(** What a message carries besides its ops: the sender's stamps. *)
type envelope = {
  notices : notice list;  (** piggybacked termination notices, see {!deliver_notices} *)
  deadline : float option;
      (** absolute deadline on this representative's clock; [None] is
          unstamped, and a representative without [timers] ignores it *)
  shard_epoch : int option;
      (** the sender's shard-map epoch; [None] (an unsharded sender) is not
          fenced on [Shard_map] *)
  member_epoch : int;  (** the sender's membership epoch *)
}

val execute :
  t -> envelope -> txn:Repdir_txn.Txn.id -> batch_op list -> batch_result list
(** Check the envelope, then run the ops. The checks run in this order,
    each raising before any op runs: the notices are applied (so a message
    that is then refused still settles them); an expired deadline raises
    {!Deadline_exceeded}; an epoch older than the installed one raises
    {!Stale_epoch}, the shard-map fence before the membership fence; equal
    or newer epochs are accepted. Only operation messages are fenced and
    deadline-checked: termination traffic (prepare, commit, abort, outcome
    queries, notice flushes) and anti-entropy are not, so prepared
    transactions settle across a configuration change however late, and
    zero-vote joiners keep receiving catch-up sessions. Raises {!Crashed}
    while down.

    Then run the ops strictly in list order on behalf of one transaction and
    return their results positionally. The first op to fail raises,
    abandoning the rest of the batch; earlier ops keep their effects —
    isolated by the transaction's locks and undone by its abort — exactly as
    if each op had been its own RPC. Safe under at-most-once retransmission
    for the same reason the individual ops are: a duplicate execution
    re-runs idempotent steps under the locks the first run still holds. *)

val deliver_notices : t -> notice list -> unit
(** Apply piggybacked termination notices. Commit/abort of an unknown or
    already-terminated transaction is a no-op (stale notice); a
    conflicting-outcome refusal is swallowed — the termination protocol has
    already settled that transaction authoritatively. *)

val finish_readonly : t -> txn:Repdir_txn.Txn.id -> bool
(** Release the transaction's locks and lease here without recording an
    outcome, provided it performed no writes at this representative, is not
    prepared, and is not in doubt — the batched fast path ending a read-only
    visit in the same message as its reads. Returns false (and changes
    nothing) otherwise; the client then falls back to the normal
    prepare/commit round. No outcome is recorded because this
    representative's vote was never collected, so it must keep answering
    [`Unknown] to termination queries. *)

(* --- transaction boundary -------------------------------------------------- *)

val prepare : t -> txn:Repdir_txn.Txn.id -> coord:int -> unit
(** Two-phase commit vote: durably record (with the coordinator's node id)
    that the transaction's effects are complete here. Locks stay held; the
    outcome is the coordinator's decision. A crash after prepare leaves the
    transaction in doubt; {!recover} restores it — locks re-held, effects
    withheld — and the termination protocol resolves it. Raises [Txn.Abort]
    if this representative already aborted the transaction (e.g. a lease
    expired and it aborted unilaterally) or lost its effects in a crash. *)

val commit : t -> txn:Repdir_txn.Txn.id -> unit
val abort : t -> txn:Repdir_txn.Txn.id -> unit
(** Both release the transaction's locks; abort also rolls back its effects.
    Idempotent under duplicate delivery. Raises [Txn.Abort] when asked for
    the outcome opposite to one already recorded — a representative never
    both commits and aborts the same transaction. *)

(* --- transaction termination ------------------------------------------------ *)

(** Each transaction is in one of five states at a representative:

    - {e fresh}: nothing is known of it here;
    - {e active}: it ran operations here under a lease ([create]'s
      [lease]); without a lease it has no record and stays fresh;
    - {e prepared}: it voted yes here, durably, for a coordinator;
    - {e in doubt}: prepared, then its lease ran out, or recovery restored
      it with its effects withheld; it asks the resolver until a verdict
      comes;
    - {e ended}: committed or aborted, and the verdict is kept.

    Transitions:

    - an operation makes a fresh transaction active; {!finish_readonly}
      makes a fresh or active one that wrote nothing here fresh again;
    - {!prepare} makes a fresh, active or prepared transaction prepared;
    - lease expiry puts a prepared transaction in doubt;
    - {!commit}, {!abort}, {!resolve_in_doubt} and the unilateral abort of
      an active transaction whose lease ran out end it through one
      transition: log the verdict, record it, keep or roll back the effects
      (re-apply or drop them for one restored in doubt), release its
      locks. The verdict is recorded before the commit record is
      forced, so a duplicate that arrives during the force finds the
      transaction ended. A refused commit record (injected io fault) raises
      [Txn.Abort] and leaves an active or prepared transaction as it was;
      an in-doubt one stays in doubt.

    Operations run while fresh, active or prepared, and raise [Txn.Abort]
    in doubt or ended, also when the state changed while the operation
    waited for a lock. On an ended transaction a duplicate of its own
    verdict does nothing and the opposite one raises [Txn.Abort]; a
    duplicate prepare does nothing in doubt or committed. *)

val outcome_of : t -> Repdir_txn.Txn.id -> [ `Committed | `Aborted | `Unknown ]
(** What this representative durably knows about a transaction's fate — the
    answer it serves to a peer's termination query. Both definite answers are
    final: [`Committed] implies the coordinator logged commit; [`Aborted]
    implies the coordinator can never commit (it either decided abort or can
    no longer gather this rep's vote). *)

val resolve_in_doubt : t -> txn:Repdir_txn.Txn.id -> [ `Committed | `Aborted ] -> unit
(** Terminate an in-doubt transaction with a verdict obtained out of band
    (tests, harness). No-op if the transaction is not in doubt here. *)

val in_doubt_txns : t -> Repdir_txn.Txn.id list
(** Prepared-but-undecided transactions currently blocking their write
    ranges, ascending. *)

val in_doubt_count : t -> int
(** In-doubt transactions here; zero at quiesce. *)

val locks_held : t -> int
(** Granted range locks, all transactions. Zero at quiesce — any residue is
    an orphaned lock the termination protocol failed to clean up. *)

val lock_waiters : t -> int
(** Queued lock requests; zero at quiesce. *)

(* --- failure injection and recovery ---------------------------------------- *)

val crash : t -> unit
(** Lose all volatile state (gap map, lock table, undo logs). The write-ahead
    log survives. In-flight transactions are implicitly aborted: their
    records lack a commit record and are ignored at replay. *)

val is_crashed : t -> bool

val incarnation : t -> int
(** Number of completed recoveries. Bumped by {!recover}, so two reads that
    disagree bracket a crash: any volatile state (locks, undo logs, RPC dedup
    entries, unforced log records) from the earlier incarnation is gone. The
    suite uses this to fail transactions that span a participant restart. *)

val inject_storage_fault : t -> Repdir_txn.Wal.storage_fault -> unit
(** Damage the write-ahead log's persistent frames (torn/corrupted/lost
    tail), as a crash can; meaningful when followed by {!crash} and
    {!recover}, which scrubs the damage back to the committed prefix. *)

val set_io_fault : t -> Repdir_txn.Wal.io_fault option -> unit
(** Arm or heal an injected WAL write failure (disk full, io error). While
    armed, every operation that must log a record aborts its transaction
    cleanly — [Txn.Abort (Unavailable _)], locks released at the boundary —
    and the representative stays up; presumed-abort outcome records are
    simply skipped. Heal before {!recover}: recovery must write its marker. *)

val wal_records_repaired : t -> int
(** Total log records discarded by recovery-time scrubbing across all
    recoveries (0 when no storage fault was ever injected). *)

val recover : t -> unit
(** Scrub the write-ahead log back to its longest checksum-valid prefix
    (discarding any torn or corrupted tail), then rebuild the gap map from
    the committed records. Transactions prepared but undecided at the crash
    are restored as in-doubt: their effects are withheld from the map, their
    write ranges re-locked, and the termination protocol (resolver queries to
    the coordinator, then peers) decides their fate — commit replays their
    redo records, abort drops them. Deciding locally would be unsound: the
    coordinator may have logged a commit this representative never saw. *)

val checkpoint : t -> unit
(** Replace the write-ahead log by one checkpoint record: a snapshot of the
    gap map (one pass over the B+tree leaves) carrying every transaction
    outcome and uncommitted transaction the log knew, followed by the
    re-logged epoch fences; forces the log. Raises [Invalid_argument] unless
    the representative is quiescent: no active, prepared or in-doubt
    transaction, undo or granted lock.

    A representative also checkpoints itself whenever a transaction leaves
    it (commit, abort, lease expiry, read-only finish, in-doubt resolution)
    and finds it quiescent, its log fully forced, no io fault armed, and
    more than {!checkpoint_floor} records beyond its live entry count in the
    log. *)

val checkpoint_floor : int
(** How many records beyond the live entry count the log may hold before
    a quiescent representative checkpoints itself. *)

val wal_length : t -> int
(** Records in the write-ahead log since its last checkpoint. *)

val wal_unsynced : t -> int
(** Log records appended since the last forced write (prepare, commit,
    checkpoint or recovery). Only these can be damaged by a crash-time
    storage fault — a torn write needs unforced bytes to tear. *)

val wal_group_forces : t -> int
(** Syncs actually issued on the prepare/commit paths (with no group-commit
    window, exactly one per force request). *)

val wal_group_absorbed : t -> int
(** Force requests that rode on a concurrent transaction's sync instead of
    issuing their own — group commit's savings at this representative. *)

(* --- inspection ------------------------------------------------------------ *)

val entries : t -> (Key.t * Version.t * Gapmap_intf.value) list
val gaps : t -> (Bound.t * Bound.t * Version.t) list
val check_invariants : t -> (unit, string) result

val active_txn_count : t -> int
(** Active and prepared transactions here; zero at quiesce. *)

val scrub : t -> string list
(** Quiesce-time deep self-check: gap-map structural invariants (entries and
    gaps exactly tile [LOW, HIGH]) and, when no transaction is active or in
    doubt, equality of the live map with a committed-only replay of the
    write-ahead log (which subsumes version monotonicity with respect to the
    WAL). Returns human-readable violation descriptions; empty means
    clean. *)

val pp : Format.formatter -> t -> unit
