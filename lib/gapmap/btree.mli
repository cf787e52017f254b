(** Production gap map: an imperative B+tree.

    Entries live in doubly-linked leaves in key order; internal nodes hold
    separator keys. As §5 of the paper suggests, each gap's version number
    is stored in a field of its bounding entry (the version of the gap
    *after* entry [e] lives in [e]); the gap between LOW and the first entry
    is held at the tree root. All operations are O(log n) plus the size of
    the affected range. Structural invariants (occupancy, separator
    soundness, uniform depth, leaf-chain consistency) are verified by
    [check_invariants]. *)

include Gapmap_intf.S

val create_with : branching:int -> unit -> t
(** [branching] is both the maximum entries per leaf and the maximum
    children per internal node (minimum [branching/2] for non-roots); must
    be at least 4. {!create} uses 32. *)
