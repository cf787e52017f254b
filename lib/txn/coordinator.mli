(** Two-phase-commit coordinator state: the decision log.

    Replaces the former [Commit_registry] magic cell with the real thing a
    presumed-abort coordinator keeps — a write-ahead log of its own in which
    commit decisions are forced before any participant is acknowledged, plus
    a volatile index over it. The protocol rules:

    - {!decide} is first-writer-wins. A [Committed] decision is appended to
      the log and forced before it is returned; an [Aborted] decision is
      recorded but never forced (presumed abort: no stable record is needed,
      absence of information already means abort).
    - {!resolve} answers a termination query from an in-doubt participant.
      If no decision is on file, the query itself decides [Aborted]
      (first-writer-wins), so a coordinator that stalled between prepare and
      decide loses the race and its late commit attempt degrades into an
      abort — the classical presumed-abort amnesia rule, made safe because a
      commit decision cannot exist without being logged first.

    Once the log passes 64 records, a {!decide} compacts it into one
    checkpoint carrying every decided id, provided every record is forced
    and no io fault is armed ({!Wal.settled}): compaction never touches an
    unforced tail, so it cannot change what a crash can destroy.

    The coordinator's integer [id] is its network node; participants persist
    it in their [Prepare] WAL frames so crash recovery knows whom to ask. *)

type decision = Committed | Aborted

type counters = {
  mutable commits : int;  (** commit decisions logged *)
  mutable aborts : int;  (** abort decisions recorded (incl. presumed) *)
  mutable resolutions : int;  (** termination queries served *)
  mutable presumed_aborts : int;
      (** termination queries answered by the no-information rule *)
}

type t

val create : ?id:int -> unit -> t
(** [id] (default -1) is the coordinator's network node id, stamped into
    participants' [Prepare] records. *)

val id : t -> int
val counters : t -> counters

val decide : t -> Txn.id -> decision -> decision
(** Record the decision unless one exists; returns the winning decision.
    [Committed] is durable (force-logged) before this returns. *)

val decision : t -> Txn.id -> decision option

val resolve : t -> Txn.id -> decision
(** Termination query. Answers the logged decision, or — when there is
    none — decides [Aborted] by the presumed-abort rule and answers that.
    The answer is binding either way. *)

val recover : t -> unit
(** Rebuild the volatile decision index from the log's checksum-valid
    prefix, compacted decisions included. Unforced abort records may be lost; forced commit decisions
    survive, so recovery can never flip a commit into a presumed abort. *)

val log_length : t -> int
(** Records in the decision log; compaction keeps it near 64. *)
