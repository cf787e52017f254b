(** Discrete-event simulator with direct-style processes.

    Processes are plain OCaml functions that call {!sleep} and {!suspend};
    OCaml 5 effect handlers capture the continuation so a process blocks
    without threads. The event queue is ordered by virtual (time, sequence),
    so runs are fully deterministic given the seed.

    This substitutes for the paper's Accent-kernel execution environment: the
    distributed experiments (availability, concurrency, crash recovery) run
    representative servers and suite clients as simulated processes exchanging
    messages through {!Net} and {!Rpc}. *)

open Repdir_util

type t

val create : ?seed:int64 -> unit -> t

val now : t -> float
(** Current virtual time. *)

val rng : t -> Rng.t
(** The simulation's root generator; split it for independent streams. *)

val spawn : t -> ?name:string -> ?at:float -> (unit -> unit) -> unit
(** Schedule a new process. [at] defaults to the current time; it must not be
    in the virtual past. An exception escaping a process aborts [run]. *)

val at : t -> float -> (unit -> unit) -> unit
(** Schedule a bare callback (not a suspendable process) at an absolute time. *)

val run : ?until:float -> t -> unit
(** Execute events in order until the queue is empty or virtual time would
    pass [until]. Can be called repeatedly. *)

(* --- callable only from inside a process ------------------------------------- *)

val sleep : t -> float -> unit
(** Advance this process's virtual time by a non-negative delay. *)

val suspend : t -> ((unit -> unit) -> unit) -> unit
(** [suspend t register] parks the process. [register] is called at once with
    a wake-up function valid from anywhere (another process, a bare event);
    calling it more than once is harmless. The process resumes at the virtual
    time of the wake-up call. *)

val retry : t -> every:float -> [ `Until of float | `Retries of int ] -> (int -> bool) -> bool
(** [retry t ~every limit ok] calls [ok 0], [ok 1], … until one returns
    true, and then returns true. After a false it gives up and returns false
    once [limit] is reached — the clock at or past [`Until deadline], or
    [`Retries n] retries made — and otherwise sleeps [every] and tries
    again. *)

(* --- diagnostics --------------------------------------------------------------- *)

val events_executed : t -> int
