(** Weighted voting with a *static* partitioning of the key space (§2's
    penultimate alternative).

    The key space is split into a fixed number of hash partitions, and
    Gifford's file algorithm is applied to each partition separately: every
    replica holds, per partition, a version number and a full copy of that
    partition's entries. A lookup reads the partition from a read quorum and
    believes the highest-versioned copy — which also answers "not present"
    soundly, since the copy is complete for its partition. Every
    modification reads the current copy, applies the change, and writes the
    *whole partition* back to a write quorum at version+1.

    This is the §2 trade-off made concrete: correctness is easy, but (a) all
    modifications within a partition carry one version number and therefore
    serialize ({!conflict_scope} exposes the granularity for the concurrency
    comparison), and (b) each modification ships an entire partition
    ({!entries_written}), so making partitions small for concurrency makes
    the per-write cost of skewed partitions worse, and "an uneven
    distribution of accesses could limit concurrency" regardless. *)

open Repdir_key

type t

val create : ?seed:int64 -> config:Repdir_quorum.Config.t -> partitions:int -> unit -> t

val partition_of : t -> Key.t -> int

val lookup : t -> Key.t -> string option
val insert : t -> Key.t -> string -> (unit, [ `Already_present ]) result
val update : t -> Key.t -> string -> (unit, [ `Not_present ]) result
val delete : t -> Key.t -> bool

(** Which keys an operation's locks would conflict with. *)
type scope = Single_key of Key.t | Whole_partition of int

val conflict_scope :
  t -> [ `Lookup of Key.t | `Insert of Key.t | `Update of Key.t | `Delete of Key.t ] -> scope
(** Inquiries are key-granular (shared locks); every modification conflicts
    with everything in its partition. *)

val entries_written : t -> int
(** Total entries shipped by partition write-backs. *)

val size : t -> int
