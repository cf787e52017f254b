open Repdir_sim
open Repdir_rep
open Repdir_quorum
open Repdir_core
open Repdir_txn
open Repdir_shard

(* A simulated deployment: [groups] independent replica groups of [n]
   representatives each, all on one simulated network with shared clients.
   Node layout: group [g]'s representative [i] occupies node [g*n + i];
   clients follow at [groups*n ..]; the syncer node is last. One transaction
   manager and one lock group span the deployment, so cross-shard
   transactions and cross-group migration sessions serialize against client
   traffic exactly as single-group ones do. *)

type t = {
  sim : Sim.t;
  net : Net.t;
  groups : int;
  n : int;  (* representatives per group *)
  reps : Rep.t array array;  (* [g].(i) *)
  servers : Rpc.server array;  (* indexed by global node *)
  txns : Txn.Manager.t;
  config : Config.t;  (* every group's *)
  rpc_timeout : float;
  rpc_attempts : int;
  rpc_backoff : float;
  seed : int64;
  n_clients : int;
  parallel_rpc : bool;
  coordinators : Coordinator.t array;
  lock_group : Repdir_lock.Lock_manager.group;
  (* Per-representative virtual-clock skew, indexed by global node:
     representative [k] reads [offset.(k) + rate.(k) * Sim.now] and schedules
     a delay [d] as [d / rate.(k)] of simulated time. Defaults (0, 1)
     reproduce the shared clock bit-for-bit. *)
  clock_offset : float array;
  clock_rate : float array;
}

let rep_node t g i = (g * t.n) + i
let client_node t i =
  if i < 0 || i >= t.n_clients then invalid_arg "Shard_world: no such client";
  (t.groups * t.n) + i

let syncer_node t = (t.groups * t.n) + t.n_clients

(* Fork/join over simulator processes: every branch runs concurrently; the
   caller suspends until all complete. The first (lowest-index) exception is
   re-raised after the join, so no branch is abandoned mid-flight. *)
let parallel_fanout sim =
  let map : 'a 'b. ('a -> 'b) -> 'a array -> 'b array =
   fun f arr ->
    let n = Array.length arr in
    if n = 0 then [||]
    else begin
      let results = Array.make n None in
      let remaining = ref n in
      let wake = ref ignore in
      Array.iteri
        (fun i x ->
          Sim.spawn sim (fun () ->
              let r = try Ok (f x) with e -> Error e in
              results.(i) <- Some r;
              decr remaining;
              if !remaining = 0 then !wake ()))
        arr;
      Sim.suspend sim (fun w -> wake := w);
      Array.map
        (function Some (Ok r) -> r | Some (Error e) -> raise e | None -> assert false)
        results
    end
  in
  { Transport.map }

(* The one way a message reaches a node: an at-most-once call against the
   destination's dedup cache. The failures a caller survives (no reply, a
   crashed representative, an admission pushback) come back as
   [Transport.error]; any other exception is the operation's own answer and
   propagates. *)
let rpc ?(attempts = 1) ?rng ?on_retry t ~src ~dst f =
  match
    Rpc.call_at_most_once t.net ~src ~dst ~server:t.servers.(dst) ~timeout:t.rpc_timeout
      ~attempts ~backoff:t.rpc_backoff ?rng ?on_retry f
  with
  | Ok v -> Ok v
  | Error Rpc.Timeout -> Error Transport.Timeout
  | exception Rep.Crashed name -> Error (Transport.Down name)
  | exception Rep.Overloaded name -> Error (Transport.Overloaded name)

(* Termination queries from an in-doubt representative: the coordinator's
   decision log first, then the peers of its own group — a cross-shard
   transaction's outcome is settled by the one shared coordinator record,
   and within a group any peer that saw the decision is authoritative (see
   {!Rep.outcome_of}). Runs inside a simulator process (it blocks on RPC). *)
let resolver_for t g r ~coord txn =
  let src = rep_node t g r in
  let client_base = t.groups * t.n in
  let from_coordinator =
    if coord >= client_base && coord < client_base + t.n_clients then
      match
        rpc t ~src ~dst:coord (fun () ->
            Coordinator.resolve t.coordinators.(coord - client_base) txn)
      with
      | Ok Coordinator.Committed -> Some (`Committed, Rep.By_coordinator)
      | Ok Coordinator.Aborted -> Some (`Aborted, Rep.By_coordinator)
      | Error _ -> None
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
            rpc t ~src ~dst:(rep_node t g p) (fun () -> Rep.outcome_of t.reps.(g).(p) txn)
          with
          | Ok `Committed -> Some (`Committed, Rep.By_peer)
          | Ok `Aborted -> Some (`Aborted, Rep.By_peer)
          | Ok `Unknown | Error _ -> ask (p + 1)
      in
      ask 0

let create ?(seed = 1L) ?(rpc_timeout = 50.0) ?(rpc_attempts = 1)
    ?(rpc_backoff = 5.0) ?(n_clients = 1) ?(parallel_rpc = true) ?(two_phase = true)
    ?lease ?group_commit ?admission ~config ~groups () =
  if groups < 1 then invalid_arg "Shard_world: need at least one group";
  if rpc_attempts < 1 then invalid_arg "Shard_world: need at least one RPC attempt";
  if not two_phase then
    invalid_arg "Shard_world: ~two_phase:false is not supported; every suite commits by 2PC";
  let n = Config.n_reps config in
  let sim = Sim.create ~seed () in
  (* The syncer's node comes after the clients, so client node ids (and with
     them every experiment's event stream) do not depend on whether a sync
     actor is ever built; the node is silent unless one is. *)
  let n_nodes = (groups * n) + n_clients + 1 in
  let net = Net.create sim ~n_nodes () in
  let waiter register = Sim.suspend sim register in
  let lock_group = Repdir_lock.Lock_manager.new_group () in
  let clock_offset = Array.make (groups * n) 0.0 in
  let clock_rate = Array.make (groups * n) 1.0 in
  (* Timer callbacks run as full simulator processes ([Sim.spawn], not
     [Sim.at]) because the in-doubt termination query loop blocks on RPC;
     a lease sweep or a group-commit wake-up never blocks. Each
     representative reads the virtual clock through its own skew
     parameters — a node with a fast clock sees leases run out early, a slow
     one holds them too long — which is exactly the fault family the
     clock-skew nemesis plan injects. *)
  let timers_for k =
    {
      Rep.now = (fun () -> clock_offset.(k) +. (clock_rate.(k) *. Sim.now sim));
      after =
        (fun d k' -> Sim.spawn sim ~at:(Sim.now sim +. (d /. clock_rate.(k))) k');
    }
  in
  let name g i =
    if groups = 1 then Printf.sprintf "rep%d" i else Printf.sprintf "g%d.rep%d" g i
  in
  let reps =
    Array.init groups (fun g ->
        Array.init n (fun i ->
            Rep.create ~waiter ~lock_group ~timers:(timers_for ((g * n) + i)) ?lease
              ?group_commit ?admission ~name:(name g i) ()))
  in
  let t =
    {
      sim;
      net;
      groups;
      n;
      reps;
      servers = Array.init n_nodes (fun _ -> Rpc.server ());
      txns = Txn.Manager.create ();
      config;
      rpc_timeout;
      rpc_attempts;
      rpc_backoff;
      seed;
      n_clients;
      parallel_rpc;
      (* Each client doubles as the coordinator of its own transactions; the
         coordinator id is the client's network node. *)
      coordinators =
        Array.init n_clients (fun i -> Coordinator.create ~id:((groups * n) + i) ());
      lock_group;
      clock_offset;
      clock_rate;
    }
  in
  (* The resolver is always installed — in-doubt transactions can arise from
     any crash between prepare and decision, lease or no lease, and blocking
     them forever would wedge their key ranges. *)
  Array.iteri
    (fun g grp -> Array.iteri (fun r rep -> Rep.set_resolver rep (resolver_for t g r)) grp)
    reps;
  t

let sim t = t.sim
let net t = t.net
let txns t = t.txns
let config t = t.config
let groups t = t.groups
let group_reps t g = t.reps.(g)

let coordinator t i =
  ignore (client_node t i);
  t.coordinators.(i)

(* Transport for client [i] talking to group [g]: the suite sees a plain
   n-representative world whose member [r] lives at global node [g*n + r]. *)
let client_transport ?health t i g =
  let src = client_node t i in
  (* Backoff jitter draws only happen on retries, so the stream is untouched
     unless messages are actually lost. *)
  let jitter_rng =
    Repdir_util.Rng.create (Int64.add t.seed (Int64.of_int (0x5e7 + src + (0x9e3 * g))))
  in
  (* Health observations see the call as the client does: latency includes
     retransmissions and timeout waits, [ok] means "the representative
     answered" (an application exception is a timely answer; a timeout,
     crash or overload rejection is not a useful one). *)
  let observe r t0 ok =
    match health with
    | None -> ()
    | Some h -> Picker.Health.observe h r ~latency:(Sim.now t.sim -. t0) ~ok
  in
  let rec transport =
    lazy
      {
        Transport.n_reps = t.n;
        is_up = (fun r -> Net.up t.net (rep_node t g r));
        incarnation = (fun r -> Rep.incarnation t.reps.(g).(r));
        call =
          (fun r f ->
            let t0 = Sim.now t.sim in
            let dst = rep_node t g r in
            match
              rpc t ~src ~dst ~attempts:t.rpc_attempts ~rng:jitter_rng
                ~on_retry:(fun () ->
                  let tr = Lazy.force transport in
                  tr.Transport.retry_count <- tr.Transport.retry_count + 1;
                  (* A retransmission is a real wire message even though it is
                     not a fresh call. *)
                  tr.Transport.msg_count <- tr.Transport.msg_count + 1;
                  (* Each timeout is an early gray-failure signal: feed it to
                     the score table now rather than waiting out the whole
                     retry schedule, so one bad call is enough to demote a
                     slow representative. *)
                  observe r t0 false)
                (fun () -> f t.reps.(g).(r))
            with
            | Ok v ->
                observe r t0 true;
                Ok v
            | Error e ->
                observe r t0 false;
                Error e
            | exception e ->
                observe r t0 true;
                raise e);
        fanout =
          (if t.parallel_rpc then parallel_fanout t.sim else Transport.sequential_fanout);
        rpc_count = 0;
        retry_count = 0;
        msg_count = 0;
        bytes_count = 0;
      }
  in
  Lazy.force transport

let recorder_for_client t i =
  ignore (client_node t i);
  Repdir_audit.History.recorder ~client:i ~now:(fun () -> Sim.now t.sim) ()

(* How a router blocked on a [Moving] range learns the flip landed: peek the
   installed shard view of any reachable representative of the group (the
   flip lands on the migration's source group first). Runs inside the
   client's simulator process. *)
let shard_view_peek t i g =
  let src = client_node t i in
  let rec go r =
    if r >= t.n then None
    else
      match
        rpc t ~src ~dst:(rep_node t g r) (fun () -> Rep.fence_view t.reps.(g).(r) Shard_map)
      with
      | Ok (e, record) when e > 0 && record <> "" -> Some record
      | Ok _ | Error _ -> go (r + 1)
  in
  go 0

(* The one place a simulated client's suite is wired: timers on the simulator
   clock, the client's coordinator and its transport to group [g]. A health
   table arms the client-side robustness stack as one unit: the [Healthy]
   picker avoids suspected-gray members, and with it the suite arms a
   per-operation deadline budget. *)
let suite_for_client ?seed ?batching ?recorder ?health ?cache ?shard t i g =
  let timers =
    { Rep.now = (fun () -> Sim.now t.sim);
      after = (fun d k -> Sim.spawn t.sim ~at:(Sim.now t.sim +. d) k) }
  in
  let picker = Option.map (fun h -> Picker.Healthy h) health in
  Suite.create ?picker ?seed ?batching ?recorder ?cache ?shard ~timers
    ~coordinator:(coordinator t i) ~config:t.config
    ~transport:(client_transport ?health t i g) ~txns:t.txns ()

let router_for_client ?recorder t i ~map =
  Router.create
    ~refresh:(fun g -> shard_view_peek t i g)
    ~groups:t.groups ~map ~txns:t.txns
    ~make_suite:(fun g shard -> suite_for_client ?recorder ~shard t i g)
    ()

(* --- anti-entropy -------------------------------------------------------------- *)

let make_sync ?config ?(seed = 0xa11_075eedL) t gs =
  let src = syncer_node t in
  let jitter_rng = Repdir_util.Rng.create (Int64.add t.seed (Int64.of_int (0x5e7 + src))) in
  let slots =
    Array.of_list (List.concat_map (fun g -> List.init t.n (fun i -> (g, i))) gs)
  in
  let peer p =
    let g, i = slots.(p) in
    let rep = t.reps.(g).(i) and dst = rep_node t g i in
    {
      Repdir_sync.Sync.p_index = p;
      p_name = Rep.name rep;
      p_incarnation = (fun () -> Rep.incarnation rep);
      p_call =
        (fun f ->
          match
            rpc t ~src ~dst ~attempts:t.rpc_attempts ~rng:jitter_rng (fun () -> f rep)
          with
          | Ok v -> v
          | Error e ->
              (* Anti-entropy is exactly the maintenance work the admission
                 controller sheds first: an overloaded (or crashed, or
                 silent) peer fails the session cleanly, and a later round
                 retries. *)
              raise
                (Repdir_sync.Sync.Unreachable
                   (Format.asprintf "%s: %a" (Rep.name rep) Transport.pp_error e)));
    }
  in
  Repdir_sync.Sync.create ?config ~seed
    ~mark_senior:(fun txn high ->
      Repdir_lock.Lock_manager.set_senior t.lock_group ~txn high)
    ~peers:(Array.init (Array.length slots) peer)
    ~txns:t.txns ()

(* --- fault injection --------------------------------------------------------------- *)

let set_clock_skew t ~g i ~offset ~rate =
  if rate <= 0.0 then invalid_arg "Shard_world.set_clock_skew: rate must be positive";
  t.clock_offset.(rep_node t g i) <- offset;
  t.clock_rate.(rep_node t g i) <- rate

let crash_rep ?wal_fault t ~g i =
  Option.iter (Rep.inject_storage_fault t.reps.(g).(i)) wal_fault;
  let node = rep_node t g i in
  Net.crash t.net node;
  Rep.crash t.reps.(g).(i);
  (* The dedup cache is volatile server memory: it dies with the node. *)
  Rpc.reset_server t.servers.(node)

let recover_rep t ~g i =
  Rep.recover t.reps.(g).(i);
  Net.recover t.net (rep_node t g i)
