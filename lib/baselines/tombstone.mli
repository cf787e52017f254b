(** Per-entry versioning with tombstones (§2: "entries could be updated to
    indicate that they are 'deleted'").

    Every key ever inserted keeps an entry forever; deletion overwrites the
    value with a deleted marker at version+1. Lookups are unambiguous and
    per-entry concurrency is perfect, but "the space occupied by 'deleted'
    entries could not easily be reclaimed": {!physical_size} grows without
    bound relative to {!size}, which the space benches plot against the
    paper's algorithm. *)

open Repdir_key

type t

val create : ?seed:int64 -> config:Repdir_quorum.Config.t -> unit -> t

val lookup : t -> Key.t -> string option
val insert : t -> Key.t -> string -> (unit, [ `Already_present ]) result
val update : t -> Key.t -> string -> (unit, [ `Not_present ]) result
val delete : t -> Key.t -> bool

val size : t -> int
(** Live entries (per a quorum read of every known key). *)

val physical_size : t -> int
(** Entries physically stored on the largest replica, tombstones included. *)
