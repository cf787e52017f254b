(** How a directory-suite client reaches representatives.

    The suite algorithm is written against this record so the same code runs
    over direct function calls ({!local} — the configuration used for the
    paper's §4 statistical simulations) and over the discrete-event
    simulator's RPC layer with latency, crashes and timeouts
    ({!Repdir_harness.Shard_world}). *)

open Repdir_rep

type error =
  | Timeout  (** no reply within the RPC deadline *)
  | Down of string  (** the representative is crashed *)
  | Overloaded of string
      (** the representative's admission controller rejected the request
          ({!Repdir_rep.Rep.Overloaded}): it is alive but shedding load. The
          suite treats it like any other transport failure — the
          representative is excluded for the rest of the operation, which
          re-runs on a fresh quorum, so overloaded replicas are never
          quorum-eligible for the retry. *)

val pp_error : Format.formatter -> error -> unit

exception Rpc_failed of int * error
(** Raised by suite internals when a representative call fails; carries the
    representative index. *)

(** Fan-out strategy for independent per-representative work within one
    operation. The paper's pseudo-code sends quorum requests one at a time;
    §5 notes message traffic and latency can be improved — a parallel fanout
    (the simulator's fork/join) overlaps the round trips. Results keep array
    order; if any branch raises, the first (by index) exception is re-raised
    after all branches finish. *)
type fanout = { map : 'a 'b. ('a -> 'b) -> 'a array -> 'b array }

val sequential_fanout : fanout

type t = {
  n_reps : int;
  is_up : int -> bool;
      (** Availability hint used for quorum selection; a representative that
          looks up may still fail mid-call. *)
  incarnation : int -> int;
      (** The representative's current incarnation number (recovery count),
          as a session layer would learn it from reply metadata. A change
          between two reads brackets a restart: the representative has lost
          all volatile state it held for the caller. *)
  call : 'r. int -> (Rep.t -> 'r) -> ('r, error) result;
      (** Run one representative operation. Exceptions raised by the
          operation itself (deadlock aborts, missing endpoints) propagate;
          [Error] is reserved for transport-level failures. *)
  fanout : fanout;
  mutable rpc_count : int;  (** total calls issued, for the statistics *)
  mutable retry_count : int;
      (** transport-level retransmissions performed under the calls (0 for
          transports without a retry layer) *)
  mutable msg_count : int;
      (** total messages put on the wire: every operation call ({!call_exn}),
          every termination-round message ({!send}), and — for transports
          with a retry layer — every retransmission. [rpc_count] keeps its
          historical meaning (operation calls only), so the §4 tables can
          report calls and true messages side by side. A batched round is one
          message however many ops it carries. *)
  mutable bytes_count : int;
      (** estimated payload bytes put on the wire (requests and replies),
          accounted by the suite with {!add_bytes} from a fixed serialization
          model — the currency the version-validated cache saves: a member
          holding the client's cached line answers a conditional lookup in
          one byte where a lookup reply carries the full value. Retransmissions are not re-counted (the model
          tracks the client's logical traffic, which is what cache on/off
          comparisons need to hold constant elsewhere). *)
}

val local : Rep.t array -> t
(** Zero-latency transport over in-process representatives. A crashed
    representative reports [Down]. *)

val call_exn : t -> int -> (Rep.t -> 'r) -> 'r
(** Like [call] but raising {!Rpc_failed}, and counting the call (in both
    [rpc_count] and [msg_count]). *)

val send : t -> int -> (Rep.t -> 'r) -> ('r, error) result
(** Like [call] but counted in [msg_count] only: a termination-round message
    (prepare/commit/abort/notice flush), which the historical [rpc_count]
    never included. *)

val add_bytes : t -> int -> unit
(** Charge [n] estimated wire bytes to [bytes_count]. *)
