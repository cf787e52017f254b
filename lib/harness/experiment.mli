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
      predecessor/successor copies installed in quorum members.

    It also counts, per operation kind, the representative calls and the
    true wire messages ([Transport.msg_count]) the measured operations sent. *)

open Repdir_util
open Repdir_quorum

type deletion_stats = {
  entries_coalesced : Stats.t;
  deletions_while_coalescing : Stats.t;
  insertions_while_coalescing : Stats.t;
}

type traffic = {
  count : int;  (** measured operations of the kind *)
  calls : int;  (** representative calls they issued *)
  msgs : int;  (** wire messages they sent *)
}

type outcome = {
  stats : deletion_stats;
  deletes : int;  (** measured DirSuiteDelete operations *)
  ops : int;  (** total measured operations *)
  rpcs : int;  (** representative calls issued during measurement *)
  traffic : (string * traffic) list;
      (** per kind: "lookup", "insert", "update", "delete", in that order *)
  final_size : int;  (** directory size (per the workload mirror) at the end *)
  elapsed_s : float;
}

val run :
  ?picker:Picker.strategy ->
  ?seed:int64 ->
  ?commit:[ `One_phase | `Two_phase | `Batched ] ->
  ?batch_depth:int ->
  ?mix:float * float ->
  config:Config.t ->
  n_entries:int ->
  ops:int ->
  unit ->
  outcome
(** Fill the directory to [n_entries] (unmeasured warm-up, its deferred
    commit notices flushed), then apply [ops] operations of the paper's mix,
    measuring delete statistics and traffic.

    [commit] (default [`One_phase]) picks the suite's commit: single-phase,
    presumed-abort two-phase, or two-phase with per-representative message
    batching. With batching, deferred commit notices ride on later
    operations' messages, so each kind is charged for the steady-state
    traffic it induces; the notices the last operations leave behind are not
    sent, and no kind is charged for them. [batch_depth] is
    {!Repdir_core.Suite.create}'s (default 1). [mix] is the workload's
    (lookup, update) fractions, {!Repdir_workload.Workload.create}'s
    defaults when absent. *)
