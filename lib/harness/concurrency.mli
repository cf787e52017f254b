(** The §2 concurrency claim, measured.

    "If a directory were stored as a replicated file suite ... only a single
    transaction could modify the directory at any time", whereas the gap
    scheme lets transactions on different entries proceed concurrently.

    Both schemes run on the same stack — representatives with Figure 7 range
    locks, strict 2PL, deadlock detection, the discrete-event simulator with
    message latency — and the same workload (each client repeatedly runs a
    transaction updating a few uniformly chosen keys). They differ only in
    data layout:

    - [`Gap]: every key is its own directory entry, so disjoint updates take
      disjoint point locks (the paper's algorithm);
    - [`Single_version]: the whole directory lives in one entry ("the file"),
      so every modification contends on one point lock with a single version
      number — Gifford's file algorithm applied to a directory.

    Conflicts resolve as in any 2PL system: blocking, or deadlock-abort and
    client retry with randomized backoff; both costs are reported. *)

type scheme = Gap | Single_version

type row = {
  scheme : scheme;
  clients : int;
  committed : int;  (** transactions committed within the duration *)
  deadlock_aborts : int;
  throughput : float;  (** committed transactions per unit of virtual time *)
  avg_latency : float;  (** virtual time per committed transaction *)
  lock_waits : int;  (** representative lock requests that had to wait *)
}

val run :
  ?seed:int64 ->
  ?duration:float ->
  ?zipf_s:float ->
  scheme:scheme ->
  clients:int ->
  config:Repdir_quorum.Config.t ->
  unit ->
  row
(** Defaults: duration 2000 time units, 64 keys, 2 updates per transaction,
    uniform key choice. [zipf_s] skews key popularity (Zipf exponent):
    §2's observation that uneven access limits concurrency, measured —
    hot keys raise lock conflicts even for the gap scheme, though conflicts
    stay per-key rather than per-directory. *)

val table :
  ?seed:int64 ->
  ?duration:float ->
  ?client_counts:int list ->
  config:Repdir_quorum.Config.t ->
  unit ->
  Repdir_util.Table.t
(** Both schemes across client counts (default 1, 2, 4, 8). *)

val skew_table :
  ?seed:int64 ->
  ?duration:float ->
  ?clients:int ->
  config:Repdir_quorum.Config.t ->
  unit ->
  Repdir_util.Table.t
(** Gap-scheme throughput under increasingly skewed key popularity: Zipf
    exponents 0, 0.7, 1 and 1.5. *)
