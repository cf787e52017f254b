(** A horizontally sharded deployment on the discrete-event simulator:
    [groups] independent replica groups of [n] representatives each, all on
    one simulated network with shared clients and one shared cross-group
    syncer node.

    Node layout: group [g]'s representative [i] occupies global node
    [g*n + i]; clients follow at [groups*n ..]; the syncer node is last. One
    transaction manager and one lock group span the whole deployment, so
    cross-shard client transactions and cross-group migration sessions
    serialize against single-group traffic exactly as they would inside one
    group.

    This is the sharded sibling of {!Sim_world}: where that module wires one
    replica group to a {!Repdir_core.Suite}, this one wires [groups] of them
    to a {!Repdir_shard.Router}. *)

open Repdir_sim
open Repdir_rep
open Repdir_quorum
open Repdir_txn
open Repdir_shard

type t

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
  ?configs:Config.t array ->
  config:Config.t ->
  groups:int ->
  unit ->
  t
(** [create ~config ~groups ()] builds a [groups]-group deployment where
    every group runs [config]. [configs] (length [groups], every entry with
    the same representative count) overrides per-group vote assignments.
    Remaining options mirror {!Sim_world.create}: RPC discipline, client
    count, lock leases, group commit and admission control are shared by all
    groups. *)

(* --- accessors --------------------------------------------------------------- *)

val sim : t -> Sim.t
val net : t -> Net.t
val txns : t -> Txn.Manager.t

val groups : t -> int
(** Number of replica groups. *)

val reps_per_group : t -> int
(** Representatives per group (equal across groups by construction). *)

val group_reps : t -> int -> Rep.t array
(** Group [g]'s representatives, for scrubbing and direct inspection at
    quiesce. *)

val group_config : t -> int -> Config.t
val coordinator : t -> int -> Coordinator.t

val rep_node : t -> int -> int -> int
(** [rep_node t g i] is the global network node of group [g]'s
    representative [i]. *)

val client_node : t -> int -> int
(** Global network node of client [i]; raises [Invalid_argument] for an
    out-of-range client. *)

val syncer_node : t -> int
(** Global network node the sync actors call from. *)

(* --- clients ----------------------------------------------------------------- *)

val client_transport : t -> int -> int -> Repdir_core.Transport.t
(** [client_transport t i g] is client [i]'s transport to group [g]: the
    suite sees a plain [n]-representative world whose member [r] lives at
    global node [g*n + r], with the deployment's at-most-once RPC
    discipline. *)

val recorder_for_client : ?cap:int -> t -> int -> Repdir_audit.History.recorder
(** A history recorder stamped with client [i]'s id and the simulator
    clock, for the strict-serializability checker. *)

val shard_view_peek : t -> int -> int -> string option
(** [shard_view_peek t i g]: client [i] asks group [g]'s representatives in
    turn for their installed shard map record, returning the first non-empty
    answer — how a router blocked on a [Moving] range learns the flip landed
    without waiting to be fenced. *)

val router_for_client :
  ?recorder:Repdir_audit.History.recorder -> t -> int -> map:Shard_map.t -> Router.t
(** [router_for_client t i ~map] wires a {!Repdir_shard.Router} for client
    [i]: one suite per replica group of the deployment (not merely of
    [map] — see {!Router.create}'s [groups]), all sharing client [i]'s
    coordinator, the deployment transaction manager and (optionally) one
    recorder. Each per-group suite uses the defaults of {!Suite.create}:
    the [Random] picker, no batching, no cache, and its group's
    configuration as the epoch-0 membership record. *)

(* --- anti-entropy ------------------------------------------------------------ *)

val make_cross_sync :
  ?config:Repdir_sync.Sync.config -> ?seed:int64 -> t -> from_g:int -> to_g:int ->
  Repdir_sync.Sync.t
(** A sync actor spanning a migration's source and target groups: peers
    [0 .. n-1] are [from_g]'s representatives, [n .. 2n-1] are [to_g]'s, so
    [Sync.session_between ~src:i ~dst:(n+j)] is a sliced source-to-target
    catch-up session. Shares the deployment's lock group, so sessions
    serialize after in-flight client writers on the slice. *)

val make_group_sync : ?config:Repdir_sync.Sync.config -> ?seed:int64 -> t -> int ->
  Repdir_sync.Sync.t
(** Per-group anti-entropy actor (peers = that group only), for steady-state
    reconciliation during a campaign. *)

(* --- fault injection ---------------------------------------------------------- *)

val crash_rep : ?wal_fault:Repdir_txn.Wal.storage_fault -> t -> g:int -> int -> unit
(** Crash group [g]'s representative [i]: network down, volatile state lost,
    RPC dedup table reset; [wal_fault] injects WAL damage to be discovered
    on recovery. *)

val recover_rep : t -> g:int -> int -> unit
