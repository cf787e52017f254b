(** Write-ahead log for one directory representative.

    Simulates the stable storage the paper assumes each representative's
    transactional storage system provides. Mutating operations append redo
    records before being applied; commit and abort append outcome records.
    After a crash (volatile state lost) the representative's gap map is
    rebuilt by {!replay}: starting from the most recent checkpoint, the redo
    records of committed transactions are re-applied in log order. Strict
    two-phase locking guarantees that records of different transactions that
    touch intersecting ranges appear in serialization order, so redo-only
    replay of committed transactions reconstructs exactly the committed
    state.

    The persistent image of a record is a checksummed frame (marshalled
    bytes + FNV-1a checksum). Storage faults injected at the tail with
    {!inject} — a torn final write, a corrupted byte, frames that never
    reached the disk — damage that image, and only then is a record encoded
    into its frame: the log otherwise keeps one in-memory copy per record.
    {!repair} models what recovery reads back: the longest checksum-valid
    prefix, damaged frames that still verify re-decoded from their bytes.
    Because a transaction's effects replay only when its [Commit] frame
    survives, repair always recovers exactly a committed prefix of history.

    {!checkpoint} bounds the log: it replaces every record by one
    [Checkpoint] carrying the map snapshot plus everything recovery derives
    from the dropped records (outcomes, and the uncommitted transactions
    whose operation records it drops). *)

open Repdir_key

type record =
  | Begin of Txn.id
  | Insert of Txn.id * Key.t * Version.t * Repdir_gapmap.Gapmap_intf.value
  | Coalesce of Txn.id * Bound.t * Bound.t * Version.t
  | Sync_apply of Txn.id * Repdir_gapmap.Gapmap_intf.sync_op list
      (** Anti-entropy merge plan applied to this representative; replays by
          re-running the primitive ops in order. *)
  | Prepare of Txn.id * int
      (** Two-phase commit vote: the transaction's effects are durable and
          its outcome is delegated to the coordinator's decision record. The
          second field is the coordinator's network node id, so crash
          recovery knows whom to query for the outcome. *)
  | Commit of Txn.id
  | Abort of Txn.id
  | Recovery_marker
      (** Appended when the representative finishes crash recovery: records
          written before the marker belong to a previous incarnation whose
          volatile state (locks, undo logs, in-memory effects of active
          transactions) was lost. *)
  | Checkpoint of checkpoint
  | Epoch of fence * int * string
      (** Durable epoch installation for one fence: the epoch together with
          the encoded record it came from — not the log's internal recovery
          epochs (the [Recovery_marker] counter). Recovery restores the
          newest one per fence; {!truncate_to_checkpoint} callers must
          re-append them. *)

and fence =
  | Membership  (** a group's membership record: votes and quorums *)
  | Shard_map  (** the multi-group directory's ownership map *)

and checkpoint = {
  entries : (Key.t * Version.t * Repdir_gapmap.Gapmap_intf.value * Version.t) list;
      (** key, entry version, value, gap-after version — ascending keys *)
  low_gap : Version.t;
  decided : decided list;
      (** Outcomes of the transactions whose records the checkpoint replaced,
          newest chunk first. Each {!checkpoint} adds one chunk for the
          records since the previous one and shares the older chunks, so
          building a checkpoint costs only the records it replaces. *)
  lost : Txn.id list;
      (** Transactions whose operation records the checkpoint replaced (or an
          earlier one carried) with no [Commit]: their effects died in a crash
          or were rolled back, and a prepare must still be refused. Recovery
          treats them as {!ops_before_last_recovery}. *)
}

and decided = { commits : Txn.id array; aborts : Txn.id array }

type t

val create : unit -> t

(** Injected write-path failure: while armed, appends are refused. Distinct
    from {!storage_fault}, which damages already-written frames and is only
    discovered at crash recovery — an io fault is observed synchronously by
    the writer, which must abort the transaction cleanly and keep serving. *)
type io_fault = Disk_full | Io_error

val pp_io_fault : Format.formatter -> io_fault -> unit

val set_io_fault : t -> io_fault option -> unit
(** Arm ([Some f]) or heal ([None]) the injected write failure. *)

val try_append : t -> record -> (unit, io_fault) result
(** Append one record, or report the injected fault without writing
    anything. The representative write paths use this and translate
    [Error _] into a transaction abort. *)

val append : t -> record -> unit
(** Like {!try_append} but for callers with no storage-failure story
    (tests, fixtures): raises [Failure _] if an io fault is armed. *)

val sync : t -> unit
(** Force every appended frame to disk. Records below this watermark are
    durable: crash-time {!inject} faults can only damage the unsynced
    suffix, exactly as torn writes on a real fsynced log only hurt bytes
    written since the last forced write. Representatives force the log
    before acknowledging a prepare or commit. *)

val synced_length : t -> int
(** Number of records known durable (≤ {!length}). *)

val length : t -> int

val settled : t -> bool
(** Every record is forced and no io fault is armed: a {!checkpoint} now
    cannot change what a crash-time storage fault can reach, and its record
    will not be refused. *)

val committed : t -> Txn.id -> bool
(** Whether a [Commit] record exists for the transaction since the last
    checkpoint (outcomes carried by a checkpoint are visited by
    {!iter_outcomes}). O(1): answered from an index maintained on append, not
    by scanning the log. *)

val ops_before_last_recovery : t -> Txn.id -> bool
(** True if the transaction has operation records older than the most recent
    {!Recovery_marker} and no [Commit] yet, or a checkpoint carries it as
    [lost]: the representative lost (or rolled back) that transaction's
    effects, so it must refuse to prepare or commit it. O(1) — this runs on
    every prepare, so it must not scan. *)

val iter_outcomes : t -> (Txn.id -> [ `Committed | `Aborted ] -> unit) -> unit
(** Every transaction outcome the log knows — carried by a [Checkpoint] or
    recorded by a [Commit]/[Abort] — oldest first. What recovery rebuilds a
    participant's outcome table (or a coordinator's decisions) from. *)

val in_doubt : t -> (Txn.id * int) list
(** Transactions with a [Prepare] record but no [Commit]/[Abort] record,
    each with the coordinator node recorded at prepare time: their outcome
    must be resolved by the termination protocol (ask the coordinator, then
    peers). Sorted by transaction id. *)

val write_ranges : t -> Txn.id list -> (Txn.id * Bound.Interval.t list) list
(** For each given transaction, in the given order, the closed key intervals
    covering its redo records (one per record, oldest first, possibly
    overlapping) — the RepModify footprint recovery must re-lock when it
    restores the transaction as in doubt. One pass over the log. *)

val last_epoch : t -> fence -> (int * string) option
(** The newest [Epoch] record of a fence — the epoch and record a
    recovering representative must resume fencing at. *)

val truncate_to_checkpoint : t -> unit
(** Discard everything before the most recent [Checkpoint] and force the
    log; no-op if none. *)

val checkpoint :
  t ->
  entries:(Key.t * Version.t * Repdir_gapmap.Gapmap_intf.value * Version.t) list ->
  low_gap:Version.t ->
  unit
(** Append a [Checkpoint] of the given map snapshot (ascending keys, each
    with the version of the gap after it), carrying every outcome and [lost]
    transaction of the current log, then truncate to it. Costs the snapshot
    plus one pass over the records it replaces. The caller must ensure no
    live transaction has operation records in the log, and must re-append
    any [Epoch] records. Raises [Failure _] if an io fault is armed. *)

(* --- storage fault injection ---------------------------------------------------- *)

(** Damage applied to the persistent image of the log at crash time. *)
type storage_fault =
  | Truncate_tail of int
      (** The last [k] frames never reached the disk (lost buffered writes). *)
  | Tear_tail
      (** The final frame was only partially written; its checksum fails. *)
  | Corrupt_tail  (** A byte of the final frame flipped; its checksum fails. *)

val pp_storage_fault : Format.formatter -> storage_fault -> unit

val inject : t -> storage_fault -> unit
(** Mutate the persistent frames, encoding a record's frame the first time
    a fault damages it. The in-memory decoded view is refreshed only by
    {!repair} (which crash recovery must run first). *)

val repair : t -> int
(** Validate every frame oldest-first and truncate the log at the first
    invalid one; returns the number of records dropped (0 for a healthy
    log). Surviving damaged frames are re-decoded from their bytes; every
    other frame reads back as the record that was appended. *)

val tail_valid : t -> bool
(** Whether the final frame's checksum verifies (true for an empty log). *)

(** Ticket/leader bookkeeping for WAL group commit: concurrent transactions'
    force requests at one representative coalesce into a single {!sync}.

    A ticket is the log {!length} at request time; a record is durable once
    {!synced_length} reaches its ticket. The first force request with
    undurable records becomes the {e leader}: it calls {!lead}, holds a
    group window open (the representative owns the clock and the process
    suspension), then syncs and calls {!settle}. Force requests arriving
    while {!armed} are {e followers}: they {!enqueue} a wake-up callback and
    block; the leader's [settle Forced] covers their tickets. [settle
    Cancelled] (crash) wakes waiters without counting a force; each must
    re-check its ticket against the recovered log. *)
module Group : sig
  type outcome = Forced | Cancelled

  type group

  val create : unit -> group

  val armed : group -> bool
  val lead : group -> unit

  val enqueue : group -> (outcome -> unit) -> unit
  (** Register a follower's wake-up; bumps the absorbed counter. *)

  val settle : group -> outcome -> unit
  (** Disarm and wake every waiter in arrival order. [Forced] bumps the
      force counter. *)

  val count_force : group -> unit
  (** Record a force issued outside the leader protocol (no window
      configured, or a lone leader with no followers still forces once). *)

  val forces : group -> int
  (** Syncs actually issued through the group. *)

  val absorbed : group -> int
  (** Force requests that rode on another transaction's sync. *)
end

(** Rebuild a concrete gap map from the log. *)
module Replay (M : Repdir_gapmap.Gapmap_intf.S) : sig
  val replay : ?decided:(Txn.id -> bool) -> t -> M.t
  (** Fresh map holding exactly the committed state: a transaction's records
      apply when the log holds its [Commit], or when it is prepared and
      [decided] (the coordinator's verdict; default: nobody) says
      committed. *)

  val redo : t -> Txn.id -> M.t -> unit
  (** Apply one transaction's redo records, in log order, to an existing
      map: the deferred commit of a recovery-restored in-doubt transaction.
      Only sound while the transaction's {!write_ranges} have stayed locked
      since the map was rebuilt. *)
end
