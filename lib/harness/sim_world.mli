(** One replica group — the paper's suite of representatives — as the
    one-group {!Shard_world}. Every function here is the [Shard_world] one
    at group 0, addressed by representative index alone; see
    {!Shard_world.create} for the deployment model, the node layout, the
    RPC discipline and the termination resolver. *)

open Repdir_sim
open Repdir_rep
open Repdir_quorum
open Repdir_core
open Repdir_txn

type t = Shard_world.t

val create :
  ?seed:int64 ->
  ?latency:(Repdir_util.Rng.t -> float) ->
  ?rpc_timeout:float ->
  ?rpc_attempts:int ->
  ?rpc_backoff:float ->
  ?n_clients:int ->
  ?parallel_rpc:bool ->
  ?two_phase:bool ->
  ?lease:float ->
  ?group_commit:float ->
  ?admission:Rep.admission ->
  config:Config.t ->
  unit ->
  t
(** [Shard_world.create ~groups:1], except that [two_phase] defaults to
    false: suite transactions commit in one phase unless asked. *)

val sim : t -> Sim.t
val net : t -> Net.t
val txns : t -> Txn.Manager.t
val reps : t -> Rep.t array

val coordinator : t -> int -> Coordinator.t
(** Client [i]'s two-phase-commit decision log. *)

val client_transport : ?health:Picker.Health.t -> t -> int -> Transport.t
(** Client [i]'s transport to the group (see
    {!Shard_world.client_transport}). *)

val suite_for_client :
  ?seed:int64 ->
  ?batching:bool ->
  ?recorder:Repdir_audit.History.recorder ->
  ?health:Picker.Health.t ->
  ?cache:Repdir_cache.Cache.t ->
  t ->
  int ->
  Suite.t
(** A suite for client [i] whose timers run on the simulator clock.
    [batching] (default false) turns on the suite's per-representative
    message batching (see {!Suite.create}). [recorder] attaches a
    consistency-audit history recorder; build one with
    {!recorder_for_client}. The suite starts from the world's configuration
    as the epoch-0 membership record ({!Suite.set_membership} replaces it);
    every representative call is epoch-stamped and fenced. [health] arms the whole
    client-side robustness stack: it is threaded to {!client_transport} so
    the suite's transport feeds the score table, and quorum selection uses
    the [Picker.Healthy] picker over it, which also arms a 30-unit
    per-operation deadline budget. Without it the suite uses the [Random]
    picker and no deadline. [cache] attaches a
    version-validated client cache. *)

val recorder_for_client : t -> int -> Repdir_audit.History.recorder
(** A history recorder for client [i], stamping events with the (unskewed)
    simulator clock. *)

val crash_rep : ?wal_fault:Repdir_txn.Wal.storage_fault -> t -> int -> unit
(** Crash representative [i] (see {!Shard_world.crash_rep}). *)

val recover_rep : t -> int -> unit
(** Bring representative [i] back and replay its write-ahead log. *)
