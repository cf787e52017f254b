(** Reproduction of the paper's evaluation tables and §5 claims.

    Each function runs the necessary simulations and returns a rendered
    table whose rows match what the paper reports. [ops] and [seed] default
    to the paper's parameters (10 000 operations for Figure 14, 100 000 for
    Figure 15); smaller values are useful for quick checks and are used by
    the test suite. *)

open Repdir_util

val figure14 : ?seed:int64 -> ?ops:int -> ?entries:int -> unit -> Table.t
(** Average of the three deletion statistics per configuration. *)

val figure15 : ?seed:int64 -> ?ops:int -> ?sizes:int list -> unit -> Table.t
(** Avg/Max/Std Dev of the three statistics for 3-2-2 suites of 100, 1 000
    and 10 000 entries. *)

val quorum_stability : ?seed:int64 -> ?ops:int -> ?entries:int -> unit -> Table.t
(** §5 ablation: the same 3-2-2 workload under random vs fixed (stable)
    quorums. With stable write quorums, entries live on the same
    representatives, so deletes find no ghosts and need no repairs. *)

val availability : ?p_ups:float list -> unit -> Table.t
(** Exact read/write availability for the Figure 14 configurations across
    per-representative up-probabilities. *)

val messages : ?seed:int64 -> ?ops:int -> ?entries:int -> unit -> Table.t
(** Per-operation traffic across configurations: representative calls per
    operation (the paper's unit — its "no performance penalty except on
    Delete" claim quantified) alongside true wire messages per operation for
    a two-phase suite, unbatched vs batched, each row one
    {!Experiment.run} (lookups and updates a quarter of the mix each). The
    batched rows show the effect of one [Rep.execute] message per member per
    round, the piggybacked prepare, and commit notices riding on later
    calls. *)

val space_and_traffic : ?seed:int64 -> ?ops:int -> ?entries:int -> unit -> Table.t
(** Storage and write-traffic comparison across replication strategies after
    a churn workload: the gap scheme reclaims deleted entries (unlike
    tombstones) and writes single entries (unlike whole-file or
    whole-partition voting). All strategies run a 3-2-2 configuration except
    unanimous update (read-one/write-all). *)

val batching : ?seed:int64 -> ?ops:int -> ?entries:int -> unit -> Table.t
(** §4 batching: "the real predecessor and real successor will often be
    located using one remote procedure call to each member of the quorum" —
    representative calls per delete at neighbour-chain depths 1, 3 and 5. *)
