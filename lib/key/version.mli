(** Version numbers.

    Gifford-style version numbers attached to entries and gaps. The paper
    notes 48 or more bits may be needed to prevent wrap-around; we use the
    63-bit native [int], which is monotonically incremented and never
    recycled. Gaps start at {!lowest} (0). Figure 9 gives an entry inserted
    into a gap the gap's version plus one, so freshly created directories
    match the paper's figures (gaps at 0, first entries at 1). A batched
    two-phase suite's one-round insert or update instead proposes the
    version after the highest one its client has read or written, or, when
    the suite has a clock, the current time in ticks if that is higher; a
    committed one is above the gap's version but need not be exactly one
    above it. *)

type t = int

val lowest : t
(** The paper's [LowestVersion] constant. *)

val next : t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val max : t -> t -> t
val pp : Format.formatter -> t -> unit
val to_int : t -> int
