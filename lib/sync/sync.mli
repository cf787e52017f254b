(** Anti-entropy: background pairwise reconciliation of representatives.

    The paper's weighted-voting algorithm only repairs a stale representative
    when a read quorum happens to touch the stale range, so a representative
    that misses writes during a partition stays out of date indefinitely.
    This actor closes that gap: it periodically picks a pair of
    representatives and reconciles them by comparing hierarchical range
    digests (an FNV-1a fold of entry and gap version numbers over a key
    range, served by {!Repdir_rep.Rep.digest_range}), recursing only into
    mismatched sub-ranges, and transferring just the diverged ranges —
    O(diff) entries moved in O(log n) digest rounds, not a full copy.

    Merges are version-monotone (see {!Repdir_gapmap.Gapmap_intf.Sync_ops}):
    a representative only ever learns state the peer holds at strictly higher
    version numbers, so reconciliation commutes with client traffic and
    repeated sessions are idempotent. All work happens inside ordinary
    transactions under the paper's range locks, and sessions fence on peer
    incarnation numbers, so crashes mid-session abort cleanly. *)

open Repdir_txn
open Repdir_rep
open Repdir_sim

exception Unreachable of string
(** Raised by a peer's [p_call] when the representative cannot be reached;
    fails the session (counted, aborted, retried on a later round). *)

exception Session_failed of string
(** Internal session abort (e.g. an incarnation fence tripped). *)

(** How the actor reaches one representative. [p_call] raises {!Unreachable}
    on transport failure (a crashed or overloaded representative included)
    and re-raises representative exceptions (transaction aborts; a
    {!Repdir_rep.Rep.Crashed} is treated like {!Unreachable}). [p_incarnation] reads
    the current incarnation out of band, as reply metadata would carry it. *)
type peer = {
  p_index : int;
  p_name : string;
  p_incarnation : unit -> int;
  p_call : 'r. (Rep.t -> 'r) -> 'r;
}

type config = {
  period : float;  (** mean virtual time between rounds *)
  leaf_entries : int;
      (** ranges holding at most this many entries (on either side) are
          transferred instead of subdivided *)
}

val default_config : config
(** period 200.0, leaf_entries 8. *)

(** Cumulative sync-traffic counters; [entries_sent] is the total entries
    carried by range transfers — the O(diff) bound the convergence tests
    assert against directory size. *)
type counters = {
  mutable rounds : int;
  mutable sessions : int;  (** directed sessions attempted *)
  mutable sessions_failed : int;  (** aborted: peer down, restart, deadlock *)
  mutable digest_rpcs : int;
  mutable pull_rpcs : int;
  mutable entries_sent : int;
  mutable entries_installed : int;
  mutable entries_updated : int;
  mutable entries_deleted : int;
  mutable gaps_raised : int;
  mutable ghosts_kept : int;
}

type t

val create :
  ?config:config ->
  ?seed:int64 ->
  ?mark_senior:(Txn.id -> bool -> unit) ->
  peers:peer array ->
  txns:Txn.Manager.t ->
  unit ->
  t
(** [seed] drives peer-pair selection and period jitter only; every other
    source of nondeterminism is the simulation's own.

    [mark_senior] (default: nothing) flags a transaction as a senior
    deadlock winner for the duration of a {!converge} mega-session — see
    {!Repdir_lock.Lock_manager.set_senior}. Without it converge loses every
    deadlock against client traffic: it acquires locks for its whole (long)
    lifetime, so it is nearly always the requester that closes a cycle. *)

val counters : t -> counters

val set_enabled : t -> bool -> unit
(** A disabled actor keeps ticking but skips its rounds; re-enabling resumes
    reconciliation on the next tick. *)

val stop : t -> unit
(** Terminate the background actor for good at its next tick (so a simulation
    whose other processes have finished can drain its event queue and end).
    Unlike {!set_enabled}, this is irreversible. *)

val session_between :
  ?lo:Repdir_key.Bound.t -> ?hi:Repdir_key.Bound.t -> t -> src:int -> dst:int -> bool
(** One directed session between the peers at indices [src] and [dst]:
    [dst] pulls every range where its digest disagrees with [src]'s (a
    mismatched range holding more than [leaf_entries] entries is split into
    four and each part compared in turn), inside
    one transaction spanning both peers (RepLookup locks at the source,
    RepModify at the destination, strict 2PL). Returns false if the session
    aborted — peer unreachable or crashed, a restart tripped the incarnation
    fence, or a deadlock victim — in which case both sides were rolled back
    and nothing was learned. Must run inside a simulator process when the
    peers' [p_call] goes over RPC.

    [lo]/[hi] (default: the whole key space) restrict the session to the
    range [(lo, hi]]: the locks taken never exceed the slice, so a sequence
    of slice sessions reconciles a pair while letting client traffic through
    between the slices — the shape the reconfiguration driver's catch-up
    rounds use. *)

val converge :
  t ->
  hub:int ->
  among:int list ->
  (int * Repdir_gapmap.Gapmap_intf.digest) list option
(** The joiner catch-up mega-session: one transaction that pulls every
    [among] peer's divergence onto the [hub] peer (peer/hub given as
    [p_index] values), pushes the hub's now-dominating state back onto each
    peer, and reads every participant's gap-map root digest while the
    transaction still holds the whole key space locked at every
    participant — so the returned digests are an {e atomic} snapshot: all
    equal on success, live traffic notwithstanding. This is the promotion
    gate for a zero-vote joining representative (make [hub] the joiner) and
    the drain step for a retiring one (make [hub] the retiree).

    [None] means the session aborted (unreachable peer, restart fence,
    deadlock against a client transaction — locking everything everywhere
    makes those ordinary); everything was rolled back or left as a
    harmless convergent partial merge, and the driver should retry.
    Check the result with {!digests_equal}. *)

val digests_equal : (int * Repdir_gapmap.Gapmap_intf.digest) list -> bool
(** Whether every listed digest is the same. *)

val round : t -> unit
(** Pick a random pair and run one session in each direction. *)

val round_all_pairs : t -> unit
(** Reconcile every ordered pair once — a full mesh round, used by the
    convergence harness. *)

val run : t -> Sim.t -> unit
(** Spawn the background actor: every [config.period] (jittered ±25%) it
    runs {!round} while enabled, until {!stop}. *)
