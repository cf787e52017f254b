type t = Shard_world.t

let create ?seed ?rpc_timeout ?rpc_attempts ?rpc_backoff ?n_clients ?(two_phase = false)
    ?lease ?group_commit ~config () =
  Shard_world.create ?seed ?rpc_timeout ?rpc_attempts ?rpc_backoff ?n_clients ~two_phase
    ?lease ?group_commit ~config ~groups:1 ()

let sim = Shard_world.sim
let txns = Shard_world.txns
let reps t = Shard_world.group_reps t 0
let coordinator = Shard_world.coordinator
let client_transport t i = Shard_world.client_transport t i 0
