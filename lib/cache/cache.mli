(** Client-side entry/gap cache — a weak representative.

    Gifford's weighted voting anticipates caches as {e weak representatives}:
    copies holding zero votes that may serve a read only after the real
    representatives prove the copy current. The paper's gap version numbers
    make that proof cheap for a directory: every key — present or absent —
    has a version (its entry's, or its containing gap's), so a cached entry
    {e or} a cached absence can be validated against a read quorum by
    comparing version tags alone, with no payload on the wire.

    One cache belongs to one suite (one client). Lines are tagged with the
    membership epoch they were learned under; any epoch change flushes the
    whole cache — version tags prove currency only against quorums of the
    view that produced them. The suite stages all stores transactionally and
    applies them only at commit: populating from a transaction's own
    uncommitted write would let an aborted version number collide with a
    later committed write of the same version.

    The structure is a bounded LRU: [find] refreshes recency, [store] evicts
    the coldest line past [capacity]. *)

open Repdir_key

(** One cached fact about a key: it is present at [version] with [value], or
    absent under a gap at [version]. Either claim is current iff a read
    quorum's highest version tag for the key equals [version] (and agrees on
    presence). *)
type line =
  | Entry of { version : Version.t; value : string }
  | Gap of { version : Version.t }

type counters = {
  mutable hits : int;  (** validated reads served without payload *)
  mutable misses : int;  (** reads that found no line *)
  mutable mismatches : int;
      (** lines a quorum member's version superseded, or none vouched for *)
  mutable stores : int;  (** lines installed or overwritten *)
  mutable invalidations : int;  (** lines dropped by writes (range coalesce) *)
  mutable flushes : int;  (** whole-cache drops (membership epoch change) *)
  mutable evictions : int;  (** coldest lines dropped at capacity *)
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 1024) bounds the number of lines; the least recently
    used line is evicted first. *)

val length : t -> int
val counters : t -> counters
val epoch : t -> int
(** The membership epoch every current line was learned under. *)

val sync_epoch : t -> epoch:int -> unit
(** Flush the cache if [epoch] differs from the lines' epoch, and adopt it.
    [find]/[store] run this implicitly; the suite also calls it eagerly when
    it adopts a newer membership record. A flush of an already-empty cache
    still counts (the epoch still moved). *)

val find : t -> epoch:int -> Bound.t -> line option
(** The cached line for a key, refreshing its recency. An [epoch] different
    from the cache's flushes everything first (and returns [None]). Does NOT
    touch the hit/miss counters — whether a line survives quorum validation
    is the suite's verdict, reported via {!note}. *)

val store : t -> epoch:int -> Bound.t -> line -> unit
val invalidate_range : t -> lo:Bound.t -> hi:Bound.t -> unit
(** Drop every line for a key strictly inside [(lo, hi)] — the suite runs
    this when a committed delete coalesces the range, superseding any cached
    entry or gap version inside it. *)

val flush : t -> unit

val note : t -> [ `Hit | `Miss | `Mismatch ] -> unit
(** Record the suite's validation verdict for one read. *)

val sum_counters : counters list -> counters
(** Field-wise sum — aggregating the per-client caches of a campaign. *)

val pp_counters : Format.formatter -> counters -> unit
