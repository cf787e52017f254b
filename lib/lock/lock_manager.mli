(** Range lock manager for one directory representative.

    Implements strict two-phase locking over key ranges with the Figure 7
    compatibility matrix. A transaction acquires locks as its operations
    execute and releases everything at commit or abort ({!release_all}),
    which together with per-representative serializability gives globally
    serializable schedules (Traiger et al., cited in §3.3).

    Grants are FIFO-fair: a request that conflicts with an earlier *waiting*
    request queues behind it even if it is compatible with all granted locks,
    so writers are not starved by a stream of readers.

    The manager is a passive data structure: blocking is delegated to the
    caller via the [on_grant] callback, which the discrete-event simulator
    uses to resume a suspended process. Deadlocks are detected at acquire
    time by a waits-for-graph cycle search; the victim is the requester —
    unless the requester is marked {!set_senior}, in which case a junior
    cycle member is wounded instead. *)

open Repdir_key

type t

type txn_id = int

type group
(** A deadlock-detection scope. Transactions span representatives, so a
    waits-for cycle can cross lock managers (a *distributed* deadlock: T1
    waits for T2 at representative A while T2 waits for T1 at representative
    B). Managers created in the same group share their waits-for edges; the
    cycle search at acquire time walks the union, acting as the centralized
    global detector of classical distributed 2PL systems. *)

val new_group : unit -> group

val set_senior : group -> txn:txn_id -> bool -> unit
(** Mark (or unmark) a transaction as a senior deadlock winner. By default
    the deadlock victim is the requester whose acquire would close the
    waits-for cycle — which systematically sacrifices long lock-everything
    transactions (a whole-directory sync session acquires locks for its
    entire lifetime, so it is almost always the one to close a cycle
    against a short client transaction). A senior requester instead wounds
    a junior member of the cycle: the junior's waiting requests are
    cancelled group-wide (its [on_drop] callbacks fire, exactly as if a
    lease expiry had terminated it), and the senior proceeds as an ordinary
    waiter. A cycle consisting entirely of seniors falls back to aborting
    the requester. With no senior transactions — the default — behaviour is
    unchanged. *)

type outcome =
  | Granted  (** The lock is held; proceed. *)
  | Waiting  (** Queued; [on_grant] fires when the lock is eventually held. *)
  | Deadlock of txn_id list
      (** Granting would close a waits-for cycle (the returned list, starting
          and ending at the requester). The request is *not* queued; the
          caller must abort the transaction. *)

val create : ?group:group -> unit -> t
(** Without a [group], deadlock detection is local to this manager. *)

val detach : t -> unit
(** Remove the manager from its group (when a representative discards its
    volatile lock table on crash). *)

val acquire :
  t ->
  txn:txn_id ->
  ?on_drop:(unit -> unit) ->
  Mode.t ->
  Bound.Interval.t ->
  on_grant:(unit -> unit) ->
  outcome
(** [on_grant] is invoked (synchronously, from within a later {!release_all})
    only for requests that first returned [Waiting]. [on_drop] (default:
    nothing) fires instead when the still-waiting request is cancelled by
    {!release_all} on its own transaction — the path taken when a lease
    expiry or in-doubt resolution terminates a transaction that has an
    operation suspended in the queue. Exactly one of the two callbacks ever
    fires for a waiting request. *)

val reacquire : t -> txn:txn_id -> Mode.t -> Bound.Interval.t -> unit
(** Force-grant without queueing or deadlock detection: crash recovery
    re-holding a restored in-doubt transaction's locks on a freshly rebuilt
    manager. All concurrent holders are other restored in-doubt transactions,
    which coexisted before the crash, so the grant cannot conflict. *)

val release_all : t -> txn:txn_id -> unit
(** Release every lock held by the transaction and drop its waiting requests,
    then grant any newly-compatible queued requests in FIFO order. Each
    dropped waiter's [on_drop] callback fires after the queue is drained. *)

val holds : t -> txn:txn_id -> (Mode.t * Bound.Interval.t) list
(** Locks currently granted to the transaction, most recent first. *)

val would_block : t -> txn:txn_id -> Mode.t -> Bound.Interval.t -> bool
(** True if an {!acquire} now would not return [Granted]. Does not enqueue. *)

val granted_count : t -> int
val waiting_count : t -> int
