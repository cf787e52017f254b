(** Zipf-distributed sampling over [0 .. n-1].

    Used for skewed-access workloads: §2 observes that with static
    partitioning "an uneven distribution of accesses could limit
    concurrency"; the skewed concurrency experiments quantify the same
    effect for the dynamic scheme. Sampling is by inverse transform over the
    precomputed CDF (O(log n) per draw); rank 0 is the hottest item. *)

type t

val create : n:int -> s:float -> t
(** [n] items with exponent [s >= 0]. [s = 0] degenerates to uniform;
    [s = 1] is the classic Zipf distribution. *)

val sample : t -> Rng.t -> int

val probability : t -> int -> float
(** Probability of drawing the given rank. *)
