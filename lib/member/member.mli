(** Replicated membership records: epoch-stamped vote reconfiguration.

    The paper fixes the suite of representatives once and for all; this
    module makes the suite itself replicated data. A membership {!record}
    names, for a fixed array of representative {i slots}, the vote
    assignment and quorum thresholds ({!Repdir_quorum.Config.t}) together
    with a per-slot roster status, all stamped with a monotonically
    increasing {i epoch}. The record is stored as a distinguished directory
    entry under {!key} — a key that sorts before every workload key — and is
    changed through the ordinary two-phase-commit write path, so membership
    enjoys exactly the consistency story of any other directory entry.

    Reconfiguration is two-step, in the style of joint consensus:

    {ol
    {- {!join} or {!retire} moves a [Stable] record to a [Joint] record
       pairing the old view with the proposed one (epoch [e+1]); a [Joint]
       record refuses another change. While a [Joint]
       record governs, every operation must collect its quorum in {i both}
       views, so any two quorums across the transition intersect.}
    {- {!finish_change} collapses the [Joint] record to a [Stable] record of
       the new view alone (epoch [e+2]), once the new view's members have
       caught up.}}

    Slots are fixed: a configuration change never renumbers representatives.
    A joining representative occupies a pre-existing zero-vote slot
    ([Joining] in the roster) and is promoted by assigning it votes; a
    retiring representative has its votes drained to zero and its slot
    marked [Retired]. Zero-vote slots never count toward quorums
    (Gifford's weak representatives), so the rest of the machinery needs no
    index remapping.

    Records serialize deterministically ({!encode}/{!decode}): retrying a
    failed installation rewrites byte-identical state. *)

open Repdir_quorum

type status =
  | Active  (** full member; normally holds votes *)
  | Joining  (** holds zero votes while catching up via anti-entropy *)
  | Retired  (** drained to zero votes and fenced *)

type view = { epoch : int; config : Config.t; roster : status array }
(** One configuration: vote assignment, R/W thresholds and roster, stamped
    with its epoch. [roster] has one entry per slot of [config]. *)

type record =
  | Stable of view
  | Joint of view * view
      (** [Joint (old_view, new_view)]: a change in flight. Operations
          collect quorums in both views. [new_view.epoch = old_view.epoch + 1]. *)

val key : Repdir_key.Key.t
(** The distinguished directory key holding the membership record. It sorts
    before every key the workload generators can produce. *)

val epoch_of : record -> int
(** The fencing epoch: the newest view's epoch. *)

val current : record -> view
(** The newest view ([new_view] of a [Joint] record). *)

val views : record -> view list
(** The governing views, oldest first — one for [Stable], two for [Joint].
    Quorums must be collected in every listed view. *)

val targets : record -> read:bool -> (Config.t * int) list
(** The [(config, quorum)] pairs an operation must satisfy, oldest view
    first: read quorums when [read], write quorums otherwise. *)

val make_view :
  epoch:int -> config:Config.t -> roster:status array -> (view, string) result
(** Validates: roster length matches the configuration, and [Joining] /
    [Retired] slots hold zero votes. *)

val initial : config:Config.t -> roster:status array -> record
(** [Stable] record at epoch 0. Raises [Invalid_argument] on an invalid
    view. *)

val finish_change : record -> (record, string) result
(** [Joint (_, v')] becomes [Stable] at epoch [v'.epoch + 1]. Fails on a
    [Stable] record. *)

val join :
  record ->
  slot:int ->
  votes:int ->
  read_quorum:int ->
  write_quorum:int ->
  (record, string) result
(** Promote a [Joining] zero-vote slot to [Active] with [votes] votes under
    the given thresholds: the [Joint] record of the first step. *)

val retire :
  record ->
  slot:int ->
  read_quorum:int ->
  write_quorum:int ->
  (record, string) result
(** Drain a slot's votes to zero and mark it [Retired] under the given
    thresholds: the [Joint] record of the first step. *)

val encode : record -> string
(** Deterministic serialization: equal records encode to equal strings. *)

val decode : string -> (record, string) result

val decode_exn : string -> record
(** Raises [Invalid_argument] on a malformed encoding. *)

val equal : record -> record -> bool
val pp : Format.formatter -> record -> unit
val pp_view : Format.formatter -> view -> unit
