(** Primary/secondary-copy replication (§2).

    All updates go to the primary, which relays them asynchronously to
    secondaries; inquiries may be served by any replica. The relay delay is
    modelled by an explicit propagation queue: updates become visible at
    secondaries only when {!propagate} drains (a real deployment's relay
    lag). {!lookup_any} can therefore return stale answers — the §2
    objection that this scheme cannot duplicate single-copy semantics —
    while {!lookup_primary} is always current but concentrates load.

    If the primary crashes, a deterministic failover promotes the lowest-
    numbered up secondary; updates queued but not yet propagated are lost,
    which the tests observe (the Locus-style synchronization problem the
    paper mentions). *)

open Repdir_key

type t

val create : ?seed:int64 -> n:int -> unit -> t

val primary : t -> int

val insert : t -> Key.t -> string -> (unit, [ `Already_present ]) result
val update : t -> Key.t -> string -> (unit, [ `Not_present ]) result

val lookup_primary : t -> Key.t -> string option
val lookup_any : t -> Key.t -> string option
(** Uniform random up replica; may be stale. *)

val pending_updates : t -> int
val propagate : t -> unit
(** Drain the relay queue to all up secondaries. *)

val crash : t -> int -> unit
(** Crashing the primary triggers failover (losing unpropagated updates). *)

val recover : t -> int -> unit
