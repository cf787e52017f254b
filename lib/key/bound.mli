(** Keys extended with the paper's LOW and HIGH sentinels.

    Every directory representative contains the two distinguished keys LOW
    (less than any insertable key) and HIGH (greater than any insertable key),
    which guarantee that every key has a real predecessor and real successor
    (§3.1). Range locks and gap endpoints are expressed over this extended
    order. *)

type t = Low | Key of Key.t | High

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val key : Key.t -> t

val min : t -> t -> t
val max : t -> t -> t

(** Closed intervals [\[lo, hi\]] over the extended order, used by the lock
    manager and by coalesce ranges. An interval with [lo > hi] is invalid. *)
module Interval : sig
  type bound := t
  type t = { lo : bound; hi : bound }

  val make : bound -> bound -> t
  (** Raises [Invalid_argument] if [lo > hi]. *)

  val point : bound -> t
  val full : t

  val intersects : t -> t -> bool
end
