(** Transaction identities and lifecycle.

    The paper assumes "a flexible underlying transaction mechanism" (§1);
    this module provides its client-visible core: globally unique transaction
    ids ordered by age (used for deadlock victim selection), a status
    table, and the exceptions through which aborts propagate. The
    per-representative machinery (undo logs, write-ahead log) lives in
    {!Undo} and {!Wal}; the two-phase-commit decision log lives in
    {!Coordinator}. *)

type id = int

type status = Active | Committed | Aborted

(** Why a transaction aborted. *)
type abort_reason =
  | Deadlock of id list  (** waits-for cycle, victim is this transaction *)
  | Unavailable of string  (** could not collect a quorum *)
  | User  (** explicit abort *)

exception Abort of abort_reason
(** Raised from inside transactional code to unwind to the transaction
    boundary; the executor translates it into an abort. *)

(** A set of transaction verdicts, 2 bits per id: a dense table indexed by
    id that grows by doubling to the largest id recorded. Ids are issued
    densely from 1 by {!Manager}, so finished transactions cost a quarter
    of a byte each instead of a hash-table entry. *)
module Verdicts : sig
  type t

  val create : unit -> t

  val find_opt : t -> id -> [ `Committed | `Aborted ] option
  (** [None] for an id never recorded. Raises [Invalid_argument] for a
      negative id, as does {!replace}. *)

  val replace : t -> id -> [ `Committed | `Aborted ] -> unit

  val reset : t -> unit
  (** Forget every verdict and shrink back to the initial size. *)
end

(** Issues ids and tracks status. One manager per simulated world. *)
module Manager : sig
  type t

  val create : unit -> t

  val begin_txn : t -> id
  (** Ids are strictly increasing; a larger id means a younger transaction. *)

  val status : t -> id -> status
  (** Unknown ids raise [Invalid_argument]. *)

  val commit : t -> id -> unit
  (** Raises [Invalid_argument] unless the transaction is [Active]. *)

  val abort : t -> id -> unit
  (** Raises [Invalid_argument] unless the transaction is [Active]. *)

  val active : t -> id list
end
