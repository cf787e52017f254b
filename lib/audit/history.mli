(** Client-observed operation histories, Jepsen style.

    Each client owns a {!recorder}; the suite's operation hooks record every
    primitive with its invocation time, and the transaction boundary stamps
    the completed {!event} with the client's real-time interval and outcome:
    [`Ok] (committed, results binding), [`Failed] (cleanly aborted, no
    effect), or [`Ambiguous] (the client gave up waiting — the transaction
    may still land later). Events flow to an optional sink as they complete
    (the online checker) and into a bounded ring retained for post-mortem
    dumps. *)

open Repdir_key

type prim =
  | Lookup of Key.t * string option
  | Insert of Key.t * string * bool  (** value, whether it inserted (false: already present) *)
  | Update of Key.t * string * bool  (** value, whether it updated (false: key absent) *)
  | Delete of Key.t * bool  (** whether the key was present *)

val key_of_prim : prim -> Key.t

val prim_is_write : prim -> bool
(** Whether the primitive, with its observed result, mutated the key. *)

val pp_prim : Format.formatter -> prim -> unit

type status = [ `Ok | `Failed | `Ambiguous ]

type event = {
  client : int;
  txn : Repdir_txn.Txn.id;
  start_ : float;  (** invocation time of the first recorded primitive *)
  finish : float;  (** time the client learned the outcome (or gave up) *)
  status : status;
  prims : (float * prim) list;  (** invocation-stamped, oldest first *)
}

type recorder

val recorder : client:int -> now:(unit -> float) -> unit -> recorder
(** The retained event window holds the last 4096 events; older events are
    dropped (and counted) once it overflows. *)

val set_sink : recorder -> (event -> unit) -> unit
(** Called with every event as it completes, before it enters the window. *)

val client : recorder -> int
val now : recorder -> float

val record : recorder -> txn:Repdir_txn.Txn.id -> at:float -> prim -> unit
(** Append one primitive, invoked at time [at] (on this recorder's clock —
    see {!now}), to the named transaction's accumulating event. *)

val finish : recorder -> txn:Repdir_txn.Txn.id -> status -> unit
(** Close the named transaction's event and emit it. A transaction that
    recorded no primitives emits nothing. *)

val events : recorder -> event list
(** The retained window, oldest first. *)

val dropped : recorder -> int

val dump_to_file : path:string -> dropped:int -> event list -> unit
(** Write [events] (merged retained windows, in finish order), one per line,
    to [path] under a header counting them and the [dropped] ones — the
    post-mortem artifact a failing campaign leaves behind. *)
