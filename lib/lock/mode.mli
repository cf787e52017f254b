(** Type-specific lock modes for directory representatives (§3.1).

    Inquiry operations ([DirRepLookup], [DirRepPredecessor],
    [DirRepSuccessor]) take [RepLookup] locks over the range of keys they
    explicitly or implicitly access; [DirRepInsert] and [DirRepCoalesce] take
    [RepModify] locks. The compatibility relation is the paper's Figure 7:
    two locks conflict iff their ranges intersect, they belong to different
    transactions, and at least one is [RepModify]. *)

type t = Rep_lookup | Rep_modify

val compatible : t -> t -> bool
(** Compatibility of two locks of *different* transactions over intersecting
    ranges. Locks over disjoint ranges, or of the same transaction, are
    always compatible. *)
