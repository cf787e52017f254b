(** Logical undo for directory-representative operations.

    Each transaction accumulates, per representative, a list of inverse
    actions; abort applies them in reverse order. Because the Figure 7 lock
    matrix serializes conflicting accesses and locks are held to transaction
    end (strict 2PL), the state an undo action sees is exactly the state its
    forward operation produced, so logical inverses are sound. *)

open Repdir_key

type action =
  | Remove_entry of Key.t
      (** Inverse of an insert that created a fresh entry. The merged gap
          keeps the predecessor's gap version, which is the version the split
          halves both carried. *)
  | Restore_entry of Key.t * Version.t * Repdir_gapmap.Gapmap_intf.value
      (** Inverse of an in-place update (or of a coalesce's removal: the
          entry is re-inserted with its old version and value). *)
  | Restore_gap of Bound.t * Version.t
      (** Re-establish the version of the gap following the given bound. *)

(** A per-representative, per-transaction undo log. *)
type t

val create : unit -> t

val record : t -> txn:Txn.id -> action -> unit
(** Actions are applied in reverse recording order on abort. *)

val actions : t -> txn:Txn.id -> action list
(** Recorded actions, most recent first (i.e. application order). *)

val forget : t -> txn:Txn.id -> unit
(** Drop the transaction's actions (after commit or finished abort). *)

val active_txns : t -> Txn.id list

val exists : t -> (Txn.id -> bool) -> bool
(** Whether some transaction with recorded actions satisfies the predicate.
    Stops at the first that does, and builds no list. *)

(** Application of undo actions to a concrete gap map implementation. *)
module Apply (M : Repdir_gapmap.Gapmap_intf.S) : sig
  val action : M.t -> action -> unit

  val rollback : t -> txn:Txn.id -> M.t -> unit
  (** Apply all of the transaction's undo actions (most recent first) and
      forget them. *)
end
