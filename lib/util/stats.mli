(** Online accumulation of summary statistics.

    The paper reports average, maximum, and standard deviation for each
    measured quantity (Figure 15); this module computes them in one pass with
    Welford's algorithm, so 100 000-operation runs need no sample storage. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Record one observation. *)

val add_int : t -> int -> unit

val merge : t -> t -> t
(** [merge a b] is the accumulator for the union of both sample sets. *)

val count : t -> int
val mean : t -> float
(** 0 when no samples have been recorded. *)

val max : t -> float
(** [neg_infinity] when empty. *)

val min : t -> float
(** [infinity] when empty. *)

val variance : t -> float
(** Population variance; 0 when fewer than two samples. *)

val stddev : t -> float
val total : t -> float
