open Repdir_sim
open Repdir_rep
open Repdir_quorum
open Repdir_core

type t = Shard_world.t

let create ?seed ?latency ?rpc_timeout ?rpc_attempts ?rpc_backoff ?n_clients ?parallel_rpc
    ?(two_phase = false) ?lease ?group_commit ?admission ~config () =
  Shard_world.create ?seed ?latency ?rpc_timeout ?rpc_attempts ?rpc_backoff ?n_clients
    ?parallel_rpc ~two_phase ?lease ?group_commit ?admission ~config ~groups:1 ()

let sim = Shard_world.sim
let net = Shard_world.net
let txns = Shard_world.txns
let reps t = Shard_world.group_reps t 0
let coordinator = Shard_world.coordinator
let client_transport ?health t i = Shard_world.client_transport ?health t i 0
let recorder_for_client = Shard_world.recorder_for_client

let suite_for_client ?seed ?batching ?recorder ?health ?cache t i =
  let sim = sim t in
  let timers =
    {
      Rep.now = (fun () -> Sim.now sim);
      after = (fun d k -> Sim.spawn sim ~at:(Sim.now sim +. d) k);
    }
  in
  (* A health table arms the client-side robustness stack as one unit: the
     [Healthy] picker avoids suspected-gray members, and with it the suite
     arms a per-operation deadline budget. *)
  let picker = Option.map (fun h -> Picker.Healthy h) health in
  Suite.create ?picker ?seed ?batching ?recorder ?cache ~timers
    ~two_phase:(Shard_world.two_phase t) ~coordinator:(coordinator t i)
    ~config:(Shard_world.config t) ~transport:(client_transport ?health t i)
    ~txns:(txns t) ()

let crash_rep ?wal_fault t i = Shard_world.crash_rep ?wal_fault t ~g:0 i
let recover_rep t i = Shard_world.recover_rep t ~g:0 i
