(** One replica group — the paper's suite of representatives — as the
    one-group {!Shard_world}, addressed by representative index alone. Only
    the benchmark still uses this view; everything else calls
    [Shard_world] at group 0. See {!Shard_world.create} for the deployment
    model, the node layout, the RPC discipline and the termination
    resolver. *)

open Repdir_sim
open Repdir_rep
open Repdir_quorum
open Repdir_core
open Repdir_txn

type t = Shard_world.t

val create :
  ?seed:int64 ->
  ?rpc_timeout:float ->
  ?rpc_attempts:int ->
  ?rpc_backoff:float ->
  ?n_clients:int ->
  ?two_phase:bool ->
  ?lease:float ->
  ?group_commit:float ->
  config:Config.t ->
  unit ->
  t
(** [Shard_world.create ~groups:1], except that [two_phase] defaults to
    false: suite transactions commit in one phase unless asked. *)

val sim : t -> Sim.t
val txns : t -> Txn.Manager.t
val reps : t -> Rep.t array

val coordinator : t -> int -> Coordinator.t
(** Client [i]'s two-phase-commit decision log. *)

val client_transport : t -> int -> Transport.t
(** Client [i]'s transport to the group (see
    {!Shard_world.client_transport}). *)
