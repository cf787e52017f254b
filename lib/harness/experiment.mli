(** Driver for the §4 statistical simulations.

    Builds a suite over in-process representatives, applies the paper's
    workload, and accumulates the three statistics of Figures 14 and 15:

    - "Entries in ranges coalesced" — one sample per (delete, write-quorum
      member): entries removed by that member's coalesce (the deleted entry
      if present there, plus ghosts; real predecessor/successor excluded).
    - "Deletions while coalescing" — one sample per delete: ghost entries
      removed across the whole quorum (extra deletions relative to a
      unanimous-update strategy with W replicas).
    - "Insertions while coalescing" — one sample per delete: real
      predecessor/successor copies installed in quorum members. *)

open Repdir_util
open Repdir_quorum

type deletion_stats = {
  entries_coalesced : Stats.t;
  deletions_while_coalescing : Stats.t;
  insertions_while_coalescing : Stats.t;
}

type outcome = {
  stats : deletion_stats;
  deletes : int;  (** measured DirSuiteDelete operations *)
  ops : int;  (** total measured operations *)
  rpcs : int;  (** representative calls issued during measurement *)
  final_size : int;  (** directory size (per the workload mirror) at the end *)
  elapsed_s : float;
}

val run :
  ?picker:Picker.strategy ->
  ?seed:int64 ->
  config:Config.t ->
  n_entries:int ->
  ops:int ->
  unit ->
  outcome
(** Fill the directory to [n_entries] (unmeasured warm-up), then apply [ops]
    operations of the paper's mix, measuring delete statistics. *)
