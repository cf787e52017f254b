(** Binary min-heap used as the simulator's event queue.

    Keys are [(time, sequence)] pairs; the sequence number makes the order of
    same-time events deterministic (FIFO in insertion order), which keeps
    whole simulations reproducible from their seed. *)

type 'a t

val create : dummy:'a -> 'a t
(** [dummy] fills the unused slots; it is never returned. *)

val push : 'a t -> time:float -> seq:int -> 'a -> unit

val pop : 'a t -> (float * int * 'a) option
(** Smallest (time, seq) first. *)

val peek_time : 'a t -> float option
