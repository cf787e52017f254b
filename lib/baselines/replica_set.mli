(** Shared plumbing for the baseline replication strategies of §2: a set of
    replicas with up/down flags and quorum selection.

    The baselines are deliberately synchronous and self-contained — they
    exist to compare semantics, availability, message and space costs against
    the paper's algorithm, not to re-implement the full transactional
    stack. *)

open Repdir_quorum

exception Unavailable of string

type 'a t

val create : ?seed:int64 -> config:Config.t -> make:(int -> 'a) -> unit -> 'a t

val n : 'a t -> int

val replica : 'a t -> int -> 'a
(** Raises {!Unavailable} if the replica is down. *)

val peek : 'a t -> int -> 'a
(** Access without up-check (for test inspection). *)

val is_up : 'a t -> int -> bool
val crash : 'a t -> int -> unit
val recover : 'a t -> int -> unit

val read_quorum : 'a t -> int array
val write_quorum : 'a t -> int array
(** Uniformly random quorums among up replicas; raise {!Unavailable} when the
    votes cannot be mustered. *)

val all_up : 'a t -> int array
(** Every up replica; raises {!Unavailable} if any replica is down (the
    unanimous-update requirement). *)

val any_up : 'a t -> int
(** One uniformly random up replica. *)
