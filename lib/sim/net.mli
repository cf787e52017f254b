(** Simulated message network: named nodes, per-message latency, node
    crashes, link-level partitions, and probabilistic link faults.

    Delivery rules: a message is dropped if the source is down or the link
    is cut when it is sent, or if the destination is down when it would be
    delivered. Delivered messages run as fresh simulator processes at the
    destination, so handlers may block (e.g. on representative locks).

    Fault plans add a probabilistic adversary on top: per-link (or
    network-wide) message drop, duplication, reordering and latency spikes.
    All fault randomness is drawn from a dedicated deterministic generator,
    so a run with a given seed and fault plan replays bit-for-bit — and a
    run with no fault plan never touches that generator, so pre-existing
    experiments are unperturbed. *)

open Repdir_util

type node_id = int

(** Per-message fault probabilities for one link direction-insensitively.
    [drop], [duplicate], [reorder] and [spike] are probabilities in [0,1];
    a reordered message gets up to [reorder_delay] extra transit time
    (uniform), a spiked message's base latency is multiplied by
    [spike_factor] (>= 1). *)
type faults = {
  drop : float;
  duplicate : float;
  reorder : float;
  reorder_delay : float;
  spike : float;
  spike_factor : float;
}

val no_faults : faults
(** All probabilities zero; [{no_faults with drop = 0.1}] style updates are
    the intended way to build plans. *)

type t

val create : Sim.t -> n_nodes:int -> ?latency:(Rng.t -> float) -> unit -> t
(** [latency] draws each message's transit time; the default is exponential
    with mean 1.0 time units. *)

val sim : t -> Sim.t
val n_nodes : t -> int

val fresh_rpc_id : t -> int
(** Next network-unique request id (used by {!Rpc} for at-most-once
    deduplication). Deterministic: a simple counter. *)

val up : t -> node_id -> bool
val crash : t -> node_id -> unit
val recover : t -> node_id -> unit

val set_link : t -> node_id -> node_id -> bool -> unit
(** Cut or restore the (symmetric) link between two nodes. *)

val partition : t -> node_id list -> node_id list -> unit
(** Cut every link between the two groups. *)

val heal_partition : t -> unit
(** Restore all links. *)

(* --- fault plans --------------------------------------------------------------- *)

val seed_faults : t -> int64 -> unit
(** Re-seed the fault generator; equal seeds and plans give equal runs. *)

val set_default_faults : t -> faults -> unit
(** Apply [faults] to every link without a per-link override. *)

val set_link_faults : t -> node_id -> node_id -> faults -> unit
(** Override the fault plan for one (symmetric) link. *)

val clear_faults : t -> unit
(** Remove the default and all per-link fault plans. *)

val send : t -> src:node_id -> dst:node_id -> (unit -> unit) -> unit
(** Fire-and-forget message carrying a handler to run at the destination. *)

(* --- counters ----------------------------------------------------------------- *)

val messages_dropped : t -> int

val messages_duplicated : t -> int
(** Messages delivered twice by the fault plan. *)

val messages_reordered : t -> int
(** Messages given extra reordering delay by the fault plan. *)
