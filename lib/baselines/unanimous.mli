(** Unanimous-update replication (§2).

    Every update is applied to all replicas; reads go to any single replica.
    Consistency is trivial (all replicas identical), but a single down
    replica blocks every modification — the availability weakness the paper
    cites. No version numbers are needed. *)

open Repdir_key

type t

val create : ?seed:int64 -> n:int -> unit -> t

val lookup : t -> Key.t -> string option
val insert : t -> Key.t -> string -> (unit, [ `Already_present ]) result
val update : t -> Key.t -> string -> (unit, [ `Not_present ]) result
val delete : t -> Key.t -> bool
(** All raise {!Replica_set.Unavailable} when their replica requirements
    cannot be met: reads need one replica up, modifications need all. *)

val size : t -> int
val crash : t -> int -> unit
val recover : t -> int -> unit
