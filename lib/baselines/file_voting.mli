(** Gifford's weighted voting for files, storing the whole directory as one
    replicated file (§2's starting point).

    Each replica holds a single version number and a full copy of the
    directory. Reads collect a read quorum and use the copy with the highest
    version; every modification reads the current copy, applies the change,
    and writes the *entire* directory back to a write quorum with version+1.

    Consequences measured by the benches: every modification ships the whole
    directory (entries-written grows with directory size), and because all
    operations touch the single version number, concurrent modifications of
    unrelated entries serialize — the limitation the paper's gap versioning
    removes. *)

open Repdir_key

type t

val create : ?seed:int64 -> config:Repdir_quorum.Config.t -> unit -> t

val lookup : t -> Key.t -> string option
val insert : t -> Key.t -> string -> (unit, [ `Already_present ]) result
val update : t -> Key.t -> string -> (unit, [ `Not_present ]) result
val delete : t -> Key.t -> bool

val size : t -> int
val crash : t -> int -> unit
val recover : t -> int -> unit

val entries_written : t -> int
(** Total entries shipped by write-backs — the whole-file write cost. *)

val version : t -> int
(** Current file version (as seen by a read quorum). *)
