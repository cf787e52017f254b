open Repdir_sim
open Repdir_rep
open Repdir_quorum
open Repdir_core
open Repdir_txn
open Repdir_shard

(* A horizontally sharded deployment: [groups] independent replica groups of
   [n] representatives each, all on one simulated network with shared
   clients. Node layout: group [g]'s representative [i] occupies node
   [g*n + i]; clients follow at [groups*n ..]; the cross-group syncer node
   is last. One transaction manager and one lock group span the deployment,
   so cross-shard transactions and cross-group migration sessions serialize
   against client traffic exactly as single-group ones do. *)

type t = {
  sim : Sim.t;
  net : Net.t;
  groups : int;
  n : int;  (* representatives per group *)
  reps : Rep.t array array;  (* [g].(i) *)
  servers : Rpc.server array;  (* indexed by global node *)
  txns : Txn.Manager.t;
  configs : Config.t array;  (* per group *)
  rpc_timeout : float;
  rpc_attempts : int;
  rpc_backoff : float;
  seed : int64;
  n_clients : int;
  parallel_rpc : bool;
  coordinators : Coordinator.t array;
  two_phase : bool;
  lock_group : Repdir_lock.Lock_manager.group;
}

let rep_node t g i = (g * t.n) + i
let client_node t i =
  if i < 0 || i >= t.n_clients then invalid_arg "Shard_world: no such client";
  (t.groups * t.n) + i

let syncer_node t = (t.groups * t.n) + t.n_clients

(* Termination queries from an in-doubt representative: the coordinator's
   decision log first, then the peers of its own group — a cross-shard
   transaction's outcome is settled by the one shared coordinator record,
   and within a group any peer that saw the decision is authoritative. *)
let resolver_for t g r ~coord txn =
  let src = rep_node t g r in
  let client_base = t.groups * t.n in
  let from_coordinator =
    if coord >= client_base && coord < client_base + t.n_clients then
      match
        Rpc.call t.net ~src ~dst:coord ~timeout:t.rpc_timeout (fun () ->
            Coordinator.resolve t.coordinators.(coord - client_base) txn)
      with
      | Ok Coordinator.Committed -> Some (`Committed, Rep.By_coordinator)
      | Ok Coordinator.Aborted -> Some (`Aborted, Rep.By_coordinator)
      | Error Rpc.Timeout -> None
    else None
  in
  match from_coordinator with
  | Some _ as answer -> answer
  | None ->
      let rec ask p =
        if p >= t.n then None
        else if p = r then ask (p + 1)
        else
          match
            Rpc.call t.net ~src ~dst:(rep_node t g p) ~timeout:t.rpc_timeout
              (fun () -> Rep.outcome_of t.reps.(g).(p) txn)
          with
          | Ok `Committed -> Some (`Committed, Rep.By_peer)
          | Ok `Aborted -> Some (`Aborted, Rep.By_peer)
          | Ok `Unknown | Error Rpc.Timeout -> ask (p + 1)
          | exception Rep.Crashed _ -> ask (p + 1)
      in
      ask 0

let create ?(seed = 1L) ?latency ?(rpc_timeout = 50.0) ?(rpc_attempts = 1)
    ?(rpc_backoff = 5.0) ?(n_clients = 1) ?(parallel_rpc = true) ?(two_phase = true)
    ?lease ?group_commit ?admission ?configs ~config ~groups () =
  if groups < 1 then invalid_arg "Shard_world: need at least one group";
  if rpc_attempts < 1 then invalid_arg "Shard_world: need at least one RPC attempt";
  let n = Config.n_reps config in
  let configs =
    match configs with
    | None -> Array.make groups config
    | Some cs ->
        if Array.length cs <> groups then
          invalid_arg "Shard_world: configs length must equal groups";
        Array.iter
          (fun c ->
            if Config.n_reps c <> n then
              invalid_arg "Shard_world: all groups must have the same representative count")
          cs;
        cs
  in
  let sim = Sim.create ~seed () in
  let net = Net.create sim ~n_nodes:((groups * n) + n_clients + 1) ?latency () in
  let waiter register = Sim.suspend sim register in
  let lock_group = Repdir_lock.Lock_manager.new_group () in
  let timers =
    { Rep.now = (fun () -> Sim.now sim);
      after = (fun d k -> Sim.spawn sim ~at:(Sim.now sim +. d) k) }
  in
  let reps =
    Array.init groups (fun g ->
        Array.init n (fun i ->
            Rep.create ~waiter ~lock_group ~timers ?lease ?group_commit ?admission
              ~name:(Printf.sprintf "g%d.rep%d" g i) ()))
  in
  let t =
    {
      sim;
      net;
      groups;
      n;
      reps;
      servers = Array.init ((groups * n) + n_clients + 1) (fun _ -> Rpc.server ());
      txns = Txn.Manager.create ();
      configs;
      rpc_timeout;
      rpc_attempts;
      rpc_backoff;
      seed;
      n_clients;
      parallel_rpc;
      coordinators =
        Array.init n_clients (fun i -> Coordinator.create ~id:((groups * n) + i) ());
      two_phase;
      lock_group;
    }
  in
  Array.iteri
    (fun g grp -> Array.iteri (fun r rep -> Rep.set_resolver rep (resolver_for t g r)) grp)
    reps;
  t

let sim t = t.sim
let net t = t.net
let txns t = t.txns
let groups t = t.groups
let reps_per_group t = t.n
let group_reps t g = t.reps.(g)
let group_config t g = t.configs.(g)
let coordinator t i = t.coordinators.(i)

(* Transport for client [i] talking to group [g]: the suite sees a plain
   n-representative world whose member [r] lives at global node [g*n + r]. *)
let client_transport t i g =
  let src = client_node t i in
  let jitter_rng =
    Repdir_util.Rng.create (Int64.add t.seed (Int64.of_int (0x5e7 + src + (0x9e3 * g))))
  in
  let transport =
    {
      Transport.n_reps = t.n;
      is_up = (fun r -> Net.up t.net (rep_node t g r));
      incarnation = (fun r -> Rep.incarnation t.reps.(g).(r));
      call =
        (fun r f ->
          let dst = rep_node t g r in
          match
            Rpc.call_at_most_once t.net ~src ~dst ~server:t.servers.(dst)
              ~timeout:t.rpc_timeout ~attempts:t.rpc_attempts ~backoff:t.rpc_backoff
              ~rng:jitter_rng
              (fun () -> f t.reps.(g).(r))
          with
          | Ok v -> Ok v
          | Error Rpc.Timeout -> Error Transport.Timeout
          | exception Rep.Crashed name -> Error (Transport.Down name)
          | exception Rep.Overloaded name -> Error (Transport.Overloaded name));
      fanout = (if t.parallel_rpc then Sim_world.parallel_fanout t.sim else Transport.sequential_fanout);
      race = (if t.parallel_rpc then Some (Sim_world.parallel_race t.sim) else None);
      rpc_count = 0;
      retry_count = 0;
      msg_count = 0;
      bytes_count = 0;
    }
  in
  transport

let recorder_for_client ?cap t i =
  ignore (client_node t i);
  Repdir_audit.History.recorder ?cap ~client:i ~now:(fun () -> Sim.now t.sim) ()

(* How a router blocked on a [Moving] range learns the flip landed: peek the
   installed shard view of any reachable representative of the group (the
   flip lands on the migration's source group first). Runs inside the
   client's simulator process. *)
let shard_view_peek t i g =
  let src = client_node t i in
  let rec go r =
    if r >= t.n then None
    else
      let dst = rep_node t g r in
      match
        Rpc.call t.net ~src ~dst ~timeout:t.rpc_timeout (fun () ->
            Rep.shard_view t.reps.(g).(r))
      with
      | Ok (e, record) when e > 0 && record <> "" -> Some record
      | Ok _ -> go (r + 1)
      | Error Rpc.Timeout -> go (r + 1)
      | exception Rep.Crashed _ -> go (r + 1)
      | exception Rep.Overloaded _ -> go (r + 1)
  in
  go 0

let router_for_client ?recorder t i ~map =
  let timers =
    { Rep.now = (fun () -> Sim.now t.sim);
      after = (fun d k -> Sim.spawn t.sim ~at:(Sim.now t.sim +. d) k) }
  in
  Router.create
    ~refresh:(fun g -> shard_view_peek t i g)
    ~groups:t.groups ~map ~txns:t.txns
    ~make_suite:(fun g info ->
      Suite.create ?recorder ~shard:info ~timers ~two_phase:t.two_phase
        ~coordinator:t.coordinators.(i) ~config:t.configs.(g)
        ~transport:(client_transport t i g) ~txns:t.txns ())
    ()

(* --- cross-group anti-entropy ----------------------------------------------------- *)

(* A sync actor spanning a migration's source and target groups: peers
   [0 .. n-1] are the source group's representatives, [n .. 2n-1] the
   target's, so [Sync.session_between ~src:i ~dst:(n+j)] is a sliced
   source-to-target catch-up session. Shares the deployment's lock group, so
   sessions serialize after in-flight client writers on the slice. *)
let make_cross_sync ?config ?(seed = 0xc0_55eedL) t ~from_g ~to_g =
  let src = syncer_node t in
  let jitter_rng = Repdir_util.Rng.create (Int64.add t.seed (Int64.of_int (0x5e7 + src))) in
  let rep_of p = if p < t.n then t.reps.(from_g).(p) else t.reps.(to_g).(p - t.n) in
  let node_of p = if p < t.n then rep_node t from_g p else rep_node t to_g (p - t.n) in
  let peer p =
    {
      Repdir_sync.Sync.p_index = p;
      p_name = Rep.name (rep_of p);
      p_incarnation = (fun () -> Rep.incarnation (rep_of p));
      p_call =
        (fun f ->
          let dst = node_of p in
          match
            Rpc.call_at_most_once t.net ~src ~dst ~server:t.servers.(dst)
              ~timeout:t.rpc_timeout ~attempts:t.rpc_attempts ~backoff:t.rpc_backoff
              ~rng:jitter_rng
              (fun () -> f (rep_of p))
          with
          | Ok v -> v
          | Error Rpc.Timeout ->
              raise
                (Repdir_sync.Sync.Unreachable
                   (Printf.sprintf "%s: rpc timeout" (Rep.name (rep_of p))))
          | exception Rep.Overloaded name ->
              raise (Repdir_sync.Sync.Unreachable (name ^ ": overloaded")));
    }
  in
  Repdir_sync.Sync.create ?config ~seed
    ~mark_senior:(fun txn high ->
      Repdir_lock.Lock_manager.set_senior t.lock_group ~txn high)
    ~peers:(Array.init (2 * t.n) peer)
    ~txns:t.txns ()

(* Per-group anti-entropy actor (peers = that group only), for steady-state
   reconciliation during a campaign. *)
let make_group_sync ?config ?seed t g =
  let seed =
    match seed with Some s -> s | None -> Int64.of_int (0xa11_075 + (31 * g))
  in
  let src = syncer_node t in
  let jitter_rng =
    Repdir_util.Rng.create (Int64.add t.seed (Int64.of_int (0x5e7 + src + g)))
  in
  let peer p =
    {
      Repdir_sync.Sync.p_index = p;
      p_name = Rep.name t.reps.(g).(p);
      p_incarnation = (fun () -> Rep.incarnation t.reps.(g).(p));
      p_call =
        (fun f ->
          let dst = rep_node t g p in
          match
            Rpc.call_at_most_once t.net ~src ~dst ~server:t.servers.(dst)
              ~timeout:t.rpc_timeout ~attempts:t.rpc_attempts ~backoff:t.rpc_backoff
              ~rng:jitter_rng
              (fun () -> f t.reps.(g).(p))
          with
          | Ok v -> v
          | Error Rpc.Timeout ->
              raise
                (Repdir_sync.Sync.Unreachable
                   (Printf.sprintf "%s: rpc timeout" (Rep.name t.reps.(g).(p))))
          | exception Rep.Overloaded name ->
              raise (Repdir_sync.Sync.Unreachable (name ^ ": overloaded")));
    }
  in
  Repdir_sync.Sync.create ?config ~seed
    ~mark_senior:(fun txn high ->
      Repdir_lock.Lock_manager.set_senior t.lock_group ~txn high)
    ~peers:(Array.init t.n peer)
    ~txns:t.txns ()

(* --- fault injection --------------------------------------------------------------- *)

let crash_rep ?wal_fault t ~g i =
  Option.iter (Rep.inject_storage_fault t.reps.(g).(i)) wal_fault;
  let node = rep_node t g i in
  Net.crash t.net node;
  Rep.crash t.reps.(g).(i);
  Rpc.reset_server t.servers.(node)

let recover_rep t ~g i =
  Rep.recover t.reps.(g).(i);
  Net.recover t.net (rep_node t g i)
