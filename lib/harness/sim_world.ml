open Repdir_sim
open Repdir_rep
open Repdir_quorum
open Repdir_core
open Repdir_txn

type t = {
  sim : Sim.t;
  net : Net.t;
  reps : Rep.t array;
  servers : Rpc.server array;
  txns : Txn.Manager.t;
  config : Config.t;
  rpc_timeout : float;
  rpc_attempts : int;
  rpc_backoff : float;
  seed : int64;
  n_clients : int;
  parallel_rpc : bool;
  coordinators : Coordinator.t array;
  two_phase : bool;
  lock_group : Repdir_lock.Lock_manager.group;
  (* Per-representative virtual-clock skew: representative [i] reads
     [offset.(i) + rate.(i) * Sim.now] and schedules a delay [d] as
     [d / rate.(i)] of simulated time. Defaults (0, 1) reproduce the shared
     clock bit-for-bit, so pre-existing event streams are unchanged. *)
  clock_offset : float array;
  clock_rate : float array;
}

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

(* First-success-wins race between a primary call and a hedge that starts
   only after a delay ({!Transport.race}). Both branches run as simulator
   processes; the caller suspends until one succeeds or every started branch
   has failed. The losing branch runs to completion in the background — its
   result and exceptions are discarded, as a real hedged RPC's late reply
   would be. *)
let parallel_race sim =
  let run : 'r. (unit -> 'r) -> after:float -> (unit -> 'r) -> 'r =
   fun primary ~after backup ->
    let result = ref None in
    let primary_error = ref None in
    let primary_done = ref false in
    let backup_started = ref false in
    let backup_done = ref false in
    let wake = ref ignore in
    let settled () = Option.is_some !result in
    Sim.spawn sim (fun () ->
        (match primary () with
        | r -> if not (settled ()) then result := Some r
        | exception e -> primary_error := Some e);
        primary_done := true;
        !wake ());
    Sim.at sim
      (Sim.now sim +. after)
      (fun () ->
        if not (!primary_done || settled ()) then begin
          backup_started := true;
          Sim.spawn sim (fun () ->
              (match backup () with
              | r -> if not (settled ()) then result := Some r
              | exception _ -> ());
              backup_done := true;
              !wake ())
        end);
    let finished () =
      settled () || (!primary_done && ((not !backup_started) || !backup_done))
    in
    while not (finished ()) do
      Sim.suspend sim (fun w -> wake := w)
    done;
    (* A branch still running must not resume the caller again after the
       race is decided: neutralize the stored continuation. *)
    wake := ignore;
    match !result with
    | Some r -> r
    | None -> (
        match !primary_error with Some e -> raise e | None -> assert false)
  in
  { Transport.run }

(* Termination queries from an in-doubt representative [r]: ask the
   coordinator for its decision; if it is unreachable, ask the peer
   representatives what they know. Runs inside a simulator process (it
   blocks on RPC). Peer answers are final — see {!Rep.outcome_of}. *)
let resolver_for t r ~coord txn =
  let n = Config.n_reps t.config in
  let from_coordinator =
    if coord >= n && coord < n + t.n_clients then
      match
        Rpc.call t.net ~src:r ~dst:coord ~timeout:t.rpc_timeout (fun () ->
            Coordinator.resolve t.coordinators.(coord - n) txn)
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
        if p >= n then None
        else if p = r then ask (p + 1)
        else
          match
            Rpc.call t.net ~src:r ~dst:p ~timeout:t.rpc_timeout (fun () ->
                Rep.outcome_of t.reps.(p) txn)
          with
          | Ok `Committed -> Some (`Committed, Rep.By_peer)
          | Ok `Aborted -> Some (`Aborted, Rep.By_peer)
          | Ok `Unknown | Error Rpc.Timeout -> ask (p + 1)
          | exception Rep.Crashed _ -> ask (p + 1)
      in
      ask 0

let create ?(seed = 1L) ?latency ?(rpc_timeout = 50.0) ?(rpc_attempts = 1)
    ?(rpc_backoff = 5.0) ?(n_clients = 1) ?(parallel_rpc = true) ?(two_phase = false)
    ?lease ?group_commit ?admission ~config () =
  if rpc_attempts < 1 then invalid_arg "Sim_world: need at least one RPC attempt";
  let sim = Sim.create ~seed () in
  let n = Config.n_reps config in
  (* One extra node for the anti-entropy actor, allocated after the clients
     so client node ids (and with them every pre-existing experiment's event
     stream) are unchanged; the node is silent unless [make_sync] is used. *)
  let net = Net.create sim ~n_nodes:(n + n_clients + 1) ?latency () in
  let waiter register = Sim.suspend sim register in
  let lock_group = Repdir_lock.Lock_manager.new_group () in
  let clock_offset = Array.make n 0.0 in
  let clock_rate = Array.make n 1.0 in
  (* Timer callbacks must run as full simulator processes ([Sim.spawn], not
     [Sim.at]): lease expiry and termination queries block on locks and
     RPC. Each representative reads the virtual clock through its own skew
     parameters — a node with a fast clock sees leases run out early, a slow
     one holds them too long — which is exactly the fault family the
     clock-skew nemesis plan injects. *)
  let timers_for i =
    {
      Rep.now = (fun () -> clock_offset.(i) +. (clock_rate.(i) *. Sim.now sim));
      after =
        (fun d k -> Sim.spawn sim ~at:(Sim.now sim +. (d /. clock_rate.(i))) k);
    }
  in
  let reps =
    Array.init n (fun i ->
        Rep.create ~waiter ~lock_group ~timers:(timers_for i) ?lease ?group_commit
          ?admission ~name:(Printf.sprintf "rep%d" i) ())
  in
  let t =
    {
      sim;
      net;
      reps;
      servers = Array.init n (fun _ -> Rpc.server ());
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
      coordinators = Array.init n_clients (fun i -> Coordinator.create ~id:(n + i) ());
      two_phase;
      lock_group;
      clock_offset;
      clock_rate;
    }
  in
  (* The resolver is always installed — in-doubt transactions can arise from
     any crash between prepare and decision, lease or no lease, and blocking
     them forever would wedge their key ranges. *)
  Array.iteri (fun r rep -> Rep.set_resolver rep (resolver_for t r)) reps;
  t

let sim t = t.sim
let net t = t.net
let config t = t.config
let txns t = t.txns
let reps t = t.reps

let client_node t i =
  if i < 0 || i >= t.n_clients then invalid_arg "Sim_world: no such client";
  Config.n_reps t.config + i

let client_transport ?health t i =
  let src = client_node t i in
  (* Backoff jitter draws only happen on retries, so the stream (and with it
     every pre-existing single-attempt experiment) is untouched unless
     messages are actually lost. *)
  let jitter_rng = Repdir_util.Rng.create (Int64.add t.seed (Int64.of_int (0x5e7 + src))) in
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
        Transport.n_reps = Config.n_reps t.config;
        is_up = (fun r -> Net.up t.net r);
        incarnation = (fun r -> Rep.incarnation t.reps.(r));
        call =
          (fun r f ->
            let t0 = Sim.now t.sim in
            match
              Rpc.call_at_most_once t.net ~src ~dst:r ~server:t.servers.(r)
                ~timeout:t.rpc_timeout ~attempts:t.rpc_attempts ~backoff:t.rpc_backoff
                ~rng:jitter_rng
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
                (fun () -> f t.reps.(r))
            with
            | Ok v ->
                observe r t0 true;
                Ok v
            | Error Rpc.Timeout ->
                observe r t0 false;
                Error Transport.Timeout
            | exception Rep.Crashed name ->
                observe r t0 false;
                Error (Transport.Down name)
            | exception Rep.Overloaded name ->
                observe r t0 false;
                Error (Transport.Overloaded name)
            | exception e ->
                observe r t0 true;
                raise e);
        fanout =
          (if t.parallel_rpc then parallel_fanout t.sim else Transport.sequential_fanout);
        race = (if t.parallel_rpc then Some (parallel_race t.sim) else None);
        rpc_count = 0;
        retry_count = 0;
        msg_count = 0;
        bytes_count = 0;
      }
  in
  Lazy.force transport

let coordinator t i =
  if i < 0 || i >= t.n_clients then invalid_arg "Sim_world: no such client";
  t.coordinators.(i)

let suite_for_client ?seed ?batching ?recorder ?membership ?health ?cache t i =
  let timers =
    {
      Rep.now = (fun () -> Sim.now t.sim);
      after = (fun d k -> Sim.spawn t.sim ~at:(Sim.now t.sim +. d) k);
    }
  in
  (* A health table arms the client-side robustness stack as one unit: the
     picker that avoids suspected-gray members (and with it hedged reads)
     and a per-operation deadline budget. *)
  let picker, op_deadline =
    match health with Some h -> (Some (Picker.Healthy h), Some 30.0) | None -> (None, None)
  in
  Suite.create ?picker ?seed ?batching ?recorder ?membership ?op_deadline ?cache ~timers
    ~two_phase:t.two_phase ~coordinator:t.coordinators.(i) ~config:t.config
    ~transport:(client_transport ?health t i) ~txns:t.txns ()

let recorder_for_client ?cap t i =
  ignore (client_node t i);
  Repdir_audit.History.recorder ?cap ~client:i ~now:(fun () -> Sim.now t.sim) ()

(* --- anti-entropy -------------------------------------------------------------- *)

let syncer_node t = Config.n_reps t.config + t.n_clients

let make_sync ?config ?(seed = 0xa11_075eedL) t =
  let src = syncer_node t in
  let jitter_rng = Repdir_util.Rng.create (Int64.add t.seed (Int64.of_int (0x5e7 + src))) in
  let peer r =
    {
      Repdir_sync.Sync.p_index = r;
      p_name = Rep.name t.reps.(r);
      p_incarnation = (fun () -> Rep.incarnation t.reps.(r));
      p_call =
        (fun f ->
          match
            Rpc.call_at_most_once t.net ~src ~dst:r ~server:t.servers.(r)
              ~timeout:t.rpc_timeout ~attempts:t.rpc_attempts ~backoff:t.rpc_backoff
              ~rng:jitter_rng
              (fun () -> f t.reps.(r))
          with
          | Ok v -> v
          | Error Rpc.Timeout ->
              raise
                (Repdir_sync.Sync.Unreachable (Printf.sprintf "rep%d: rpc timeout" r))
          | exception Rep.Overloaded name ->
              (* Anti-entropy is exactly the maintenance work the admission
                 controller sheds first; the session fails cleanly and a
                 later round retries when the pressure is off. *)
              raise (Repdir_sync.Sync.Unreachable (name ^ ": overloaded")));
    }
  in
  Repdir_sync.Sync.create ?config ~seed
    ~mark_senior:(fun txn high ->
      Repdir_lock.Lock_manager.set_senior t.lock_group ~txn high)
    ~peers:(Array.init (Config.n_reps t.config) peer)
    ~txns:t.txns ()

let start_sync ?config ?seed ?until t =
  let s = make_sync ?config ?seed t in
  Repdir_sync.Sync.run ?until s t.sim;
  s

let set_clock_skew t i ~offset ~rate =
  if rate <= 0.0 then invalid_arg "Sim_world.set_clock_skew: rate must be positive";
  t.clock_offset.(i) <- offset;
  t.clock_rate.(i) <- rate

let clock_skew t i = (t.clock_offset.(i), t.clock_rate.(i))
let set_io_fault t i fault = Rep.set_io_fault t.reps.(i) fault

let crash_rep ?wal_fault t i =
  Option.iter (Rep.inject_storage_fault t.reps.(i)) wal_fault;
  Net.crash t.net i;
  Rep.crash t.reps.(i);
  (* The dedup cache is volatile server memory: it dies with the node. *)
  Rpc.reset_server t.servers.(i)

let recover_rep t i =
  Rep.recover t.reps.(i);
  Net.recover t.net i
