(** The client-side shard router: the multi-group face of the directory.

    One router per client. It holds the client's current {!Shard_map},
    one {!Repdir_core.Suite} per replica group, and presents the full
    directory API — every operation resolves its key through the map and
    runs on the owning group's suite, so a single-group map behaves exactly
    like the seed suite.

    Map staleness is handled the same way membership staleness is: every
    representative call is stamped with the map's epoch (through the
    {!Repdir_core.Suite.shard_info} hook installed at {!create}), a fenced
    rejection ({!Repdir_rep.Rep.Stale_epoch} on the [Shard_map] fence)
    carries the newer encoded map, and the router adopts it — re-running an
    operation whose transaction it owns, or aborting a caller-owned
    transaction with a retryable [Txn.Abort (Txn.Unavailable _)].

    Transactions spanning several groups commit through the suites' one
    commit driver, {!Repdir_core.Suite.with_txns}: one prepare round per
    touched group's suite, a single forced decision in the client's shared
    coordinator log, then per-group commit/abort rounds. All the router's
    suites must share that coordinator.

    Traversals stitch groups together: each group's directory physically
    tiles the whole key space (own sentinels, possibly stale residue of
    migrated ranges), so probe answers are clamped to the probed shard's
    range and the walk continues into the adjacent shard when an answer
    falls outside it. *)

open Repdir_key
open Repdir_txn
open Repdir_core

type t

val create :
  ?refresh:(int -> string option) ->
  ?groups:int ->
  map:Shard_map.t ->
  txns:Txn.Manager.t ->
  make_suite:(int -> Suite.shard_info -> Suite.t) ->
  unit ->
  t
(** [make_suite g info] builds group [g]'s suite with [?shard:info] — the
    hook's closures read this router's live map, so fence stamps and error
    labels always reflect the latest adopted epoch. All suites must share
    one coordinator and the transaction manager [txns] ([Invalid_argument]
    otherwise), and should share one recorder. [refresh g] (optional) peeks
    group [g]'s installed shard view — {!Repdir_rep.Rep.fence_view} over the
    harness transport — so a writer blocked on a [Moving] range learns the
    flip without waiting to be fenced. Each operation makes at most 8
    adopt-and-retry rounds. [groups] (default: the initial
    map's group count) provisions suites for groups the initial map does
    not yet mention, so a later map can split a range onto a fresh group
    without rebuilding the router. *)

val epoch : t -> int
val n_groups : t -> int

val suite : t -> int -> Suite.t
(** Group [g]'s suite (for counters and harness plumbing). *)

val set_map : t -> Shard_map.t -> unit
(** Adopt a map if it is newer than the current one (forward-only); any
    advance flushes every suite's client cache. The migration driver's hook
    for its own router. *)

(* --- directory operations ----------------------------------------------------- *)

(* Signatures mirror {!Repdir_core.Suite}. Without [?txn] each operation
   owns its transaction and handles map adoption internally; with [?txn]
   the operation joins the caller's (router-created) transaction and fence
   rejections abort it wholesale. Writes to a range that is [Moving] raise
   {!Repdir_core.Suite.Unavailable} (retry; the flip will land). *)

val lookup : ?txn:Txn.id -> t -> Key.t -> (Version.t * string) option
val mem : ?txn:Txn.id -> t -> Key.t -> bool
val insert : ?txn:Txn.id -> t -> Key.t -> string -> (unit, [ `Already_present ]) result
val update : ?txn:Txn.id -> t -> Key.t -> string -> (unit, [ `Not_present ]) result
val delete : ?txn:Txn.id -> t -> Key.t -> Suite.delete_report

val next : ?txn:Txn.id -> t -> Key.t -> (Key.t * Version.t * string) option
val prev : ?txn:Txn.id -> t -> Key.t -> (Key.t * Version.t * string) option
val first : ?txn:Txn.id -> t -> (Key.t * Version.t * string) option
val last : ?txn:Txn.id -> t -> (Key.t * Version.t * string) option

val with_txn : t -> (Txn.id -> 'a) -> 'a
(** Run several router operations as one atomic — possibly cross-shard —
    transaction, committed by {!Repdir_core.Suite.with_txns} over every
    group's suite. A
    mid-transaction shard fence rejection adopts the newer map and aborts
    with a retryable [Txn.Abort (Txn.Unavailable _)]. *)
