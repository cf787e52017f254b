(** The epoch-stamped shard map: which replica group serves which key range.

    A horizontal deployment partitions the extended key space
    [LOW, HIGH] into contiguous half-open ranges, each served by one
    independent replica group running the full voting algorithm over its own
    representatives. The map is the routing authority: clients resolve every
    operation's key through it, stamp each representative call with its
    epoch, and representatives fence stale stamps
    ({!Repdir_rep.Rep.Stale_epoch} on the [Shard_map] fence) exactly as they
    fence stale membership epochs — the rejection carries the encoded newer map, so a
    lagging client adopts and retries.

    Like the membership record ({!Repdir_member.Member}), the map is a pure
    value with a total order of epochs and a deterministic string encoding;
    every transition bumps the epoch by one. A migration is a two-step
    transition mirroring the joint-view dance: {!begin_move}/{!begin_split}
    puts a range into [Moving] (writes to it are refused while catch-up
    copies it to the target group), {!finish_move} lands it on the new
    group. At most one range is in flight at a time. *)

open Repdir_key

type state =
  | Serving of int  (** served by this group *)
  | Moving of { from_g : int; to_g : int }
      (** migrating: reads still go to [from_g]; writes are refused
          (clients retry after the flip) while catch-up runs *)

type range = { lo : Bound.t; hi : Bound.t }
(** Half-open: owns bounds [lo <= b < hi]; the last range also owns HIGH. *)

type t

val epoch_of : t -> int
val n_shards : t -> int

val n_groups : t -> int
(** One more than the highest group index mentioned anywhere in the map. *)

val shards : t -> (range * state) list
(** Ascending ranges, tiling [LOW, HIGH]. *)

val find : t -> Bound.t -> int
(** The index of the shard whose range owns the bound. Total: the ranges
    tile the extended key space. *)

val range_contains : range -> Bound.t -> bool
val state_of : t -> shard:int -> state
val range_of : t -> shard:int -> range

val initial : cuts:Key.t list -> t
(** Epoch-0 map with [length cuts + 1] shards split at the strictly
    increasing cut keys, shard [i] served by group [i]. An empty cut list is
    the single-group (seed-equivalent) deployment.
    Raises [Invalid_argument] on bad cuts. *)

val in_flight : t -> bool
(** Whether any range is [Moving]. *)

val begin_move : t -> shard:int -> to_g:int -> (t, string) result
(** Epoch+1: the whole range starts migrating to [to_g]. Refused while
    another migration is in flight. *)

val begin_split : t -> shard:int -> at:Key.t -> to_g:int -> (t, string) result
(** Epoch+1: split the range at the interior cut [at]; the lower half keeps
    its group, the upper half (new shard [shard+1]) starts migrating to
    [to_g]. *)

val finish_move : t -> shard:int -> (t, string) result
(** Epoch+1: the moving range lands on its target group. *)

(* --- serialization ----------------------------------------------------------- *)

val encode : t -> string
(** Deterministic single-line encoding — what {!Repdir_rep.Rep.install_epoch}
    stores for the [Shard_map] fence and its [Stale_epoch] rejections carry.
    Round-trips any key. *)

val decode : string -> (t, string) result

val equal : t -> t -> bool
(** Structural, via {!encode}. *)

val pp_range : Format.formatter -> range -> unit

val shard_label : t -> shard:int -> string
(** Human-readable "shard [lo,hi)->gN (epoch E)" for error messages — what
    the router plugs into {!Repdir_core.Suite.shard_info}. *)
