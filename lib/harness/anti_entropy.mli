(** Anti-entropy experiments: partition-then-heal convergence, and the
    divergence metrics {!Nemesis.run_plan} reports for its
    [Anti_entropy] step (the period-vs-staleness tradeoff is the
    catalogue's "partition sync" plans, {!Nemesis.catalogue}).

    The convergence campaign is the subsystem's acceptance test: build a
    directory, cut one representative off, keep writing on the surviving
    quorum, heal — then stop {i all} client traffic and let the background
    actor reconcile. The suite must reach identical root digests at every
    representative, and the sync counters must show the repair moved O(diff)
    entries, not a full copy. Everything derives from the explicit seed, so
    runs are bit-reproducible. *)

open Repdir_rep
open Repdir_sync

val stale_entries : Rep.t array -> int
(** Entries (summed over live representatives) whose version at that
    representative lags the suite-wide maximum for their key. *)

val all_digests_equal : Rep.t array -> bool
(** Whether every live representative has the same root digest. *)

type outcome = {
  seed : int64;
  victim : int;  (** the representative that was partitioned away *)
  directory_size : int;  (** entries per representative at the end *)
  diverged_entries : int;  (** entry divergence measured at heal time *)
  converged : bool;  (** all root digests equal before the deadline *)
  heal_to_converged : float;  (** virtual time from heal to convergence *)
  entries_sent : int;  (** total entries moved by range transfers *)
  digest_rpcs : int;
  pull_rpcs : int;
  sessions : int;
  sessions_failed : int;
  ghosts_kept : int;
  sim_events : int;  (** reproducibility fingerprint *)
}

val convergence :
  ?seed:int64 ->
  ?n_entries:int ->
  ?partition_writes:int ->
  ?sync_config:Sync.config ->
  ?deadline:float ->
  unit ->
  outcome
(** One partition-then-heal run on the paper's 3-2-2 suite. Defaults: 120
    entries, 12 writes during the partition, sync period 25.0, and a
    [deadline] of 1500.0 virtual time units measured from heal (a budget
    for reconciliation, not an absolute clock). The run uses single-phase
    commit — under two-phase commit every transaction that so much as
    probes the partitioned representative aborts at prepare, so the
    surviving quorum could not diverge. Quorum writes (w < n) scatter
    entries even without a partition, so the harness first drives explicit
    sync rounds until all digests agree, and the traffic counters in the
    {!outcome} are deltas measured from heal time. *)

val table_of_outcomes : outcome list -> Repdir_util.Table.t
