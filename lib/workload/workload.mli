(** Workload generation for the §4 simulations.

    The paper's model: "the members of quorums and the keys to insert,
    update, or delete were selected randomly from a uniform distribution",
    with directory sizes approximately stationary (100, 1 000, or 10 000
    entries). The generator keeps its own mirror of the directory contents
    and emits a size-stationary stream: a fixed fraction of updates, and
    otherwise an insert when below the target size and a delete at or above
    it, so the directory oscillates tightly around the target while every
    key choice stays uniform. *)

open Repdir_util
open Repdir_key

type op =
  | Lookup of Key.t
  | Insert of Key.t * string
  | Update of Key.t * string
  | Delete of Key.t

val pp_op : Format.formatter -> op -> unit

type t

val create :
  ?update_fraction:float ->
  ?lookup_fraction:float ->
  rng:Rng.t ->
  target_size:int ->
  unit ->
  t
(** [update_fraction] (default 1/3) of operations are updates of uniformly
    chosen existing keys; [lookup_fraction] (default 0) are lookups of
    uniform random keys; the rest alternate insert/delete around
    [target_size]. Fresh keys are uniform random strings of 12
    characters, an effectively unbounded universe. *)

val next : t -> op
(** The generator assumes the operation is applied successfully and updates
    its mirror accordingly (inserts always pick fresh keys; updates and
    deletes always pick existing keys). *)

val initial_fill : t -> op list
(** Inserts that bring an empty directory to the target size; apply them
    before measuring. The generator's mirror is updated as if applied. *)

val size : t -> int

val random_existing_key : t -> Key.t option
(** Uniform over current contents; [None] when empty. *)
