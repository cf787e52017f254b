open Repdir_util

type error = Timeout

(* The server-side dedup cache maps request ids to either a marker that the
   request is currently executing (a duplicate arriving meanwhile is simply
   discarded: the execution in flight will answer) or a closure that resends
   the finished reply. The cache is volatile: it must be reset when the node
   crashes, which re-opens the (harmless, because representative operations
   are idempotent) re-execution window — exactly the at-most-once story real
   RPC systems tell.

   Finished entries cannot live forever: every call adds one, so an unbounded
   table grows linearly with server lifetime. Completion order is recorded in
   a FIFO; arriving requests opportunistically expire entries older than [ttl]
   sim-time (any retransmission of those requests is long since abandoned —
   the client's whole retry schedule fits well inside the TTL) and enforce the
   [cap] backstop. Evicting early only re-opens the idempotent re-execution
   window, the same degradation a crash-reset causes, so a conservative
   TTL/cap trades a sliver of duplicate work for bounded memory. Eviction
   piggybacks on request arrival: no timers, no RNG draws, so pre-existing
   event traces are unchanged. *)

type server_entry = In_flight | Done of (unit -> unit)

type server = {
  tbl : (int, server_entry) Hashtbl.t;
  completed : (int * float) Queue.t;
      (* (request id, completion sim-time); sim time is monotone, so the queue
         is expiry-ordered and each id appears at most once per incarnation *)
  cap : int;
  ttl : float;
}

let server ?(cap = 512) ?(ttl = 300.0) () : server =
  if cap < 1 then invalid_arg "Rpc.server: cap must be positive";
  if ttl <= 0.0 then invalid_arg "Rpc.server: ttl must be positive";
  { tbl = Hashtbl.create 64; completed = Queue.create (); cap; ttl }

let reset_server (s : server) =
  Hashtbl.reset s.tbl;
  Queue.clear s.completed

let server_entries (s : server) = Hashtbl.length s.tbl

(* TTL expiry is bounded per arrival: a retry storm hitting a server whose
   cache sat idle past its TTL would otherwise make the first arrival drain
   the whole stale backlog in one scan — an O(cap) stall on the storm's
   critical path, exactly when the server can least afford it. A few pops
   per arrival drain the same backlog across the storm instead. The cap
   backstop stays unconditional (memory safety cannot be amortized), but it
   pops at most one entry per arrival in steady state, since each arrival
   enqueues at most one. *)
let max_ttl_evictions_per_arrival = 8

let evict (s : server) ~now =
  let drop () =
    let id, _ = Queue.pop s.completed in
    (* Queue ids always map to [Done] entries: an id is enqueued exactly when
       its entry turns [Done], and a crash reset clears both structures. *)
    Hashtbl.remove s.tbl id
  in
  while Queue.length s.completed > s.cap do
    drop ()
  done;
  let stale () =
    let _, finished = Queue.peek s.completed in
    finished +. s.ttl <= now
  in
  let pops = ref 0 in
  while
    !pops < max_ttl_evictions_per_arrival && (not (Queue.is_empty s.completed)) && stale ()
  do
    incr pops;
    drop ()
  done

let call_at_most_once net ~src ~dst ~server ~timeout ?(attempts = 1) ?(backoff = 1.0) ?rng
    ?(on_retry = fun () -> ()) f =
  if timeout <= 0.0 then invalid_arg "Rpc.call_at_most_once: timeout must be positive";
  if attempts < 1 then invalid_arg "Rpc.call_at_most_once: need at least one attempt";
  if backoff <= 0.0 then invalid_arg "Rpc.call_at_most_once: backoff must be positive";
  let sim = Net.sim net in
  let id = Net.fresh_rpc_id net in
  (* One outcome cell shared by every attempt: whichever request or reply
     copy survives the network first fills it; later copies are ignored. *)
  let outcome = ref None in
  let wake = ref (fun () -> ()) in
  let handler () =
    evict server ~now:(Sim.now sim);
    match Hashtbl.find_opt server.tbl id with
    | Some In_flight -> ()
    | Some (Done resend) -> resend ()
    | None ->
        Hashtbl.replace server.tbl id In_flight;
        let result = try Ok (f ()) with e -> Error e in
        let resend () =
          Net.send net ~src:dst ~dst:src (fun () ->
              if !outcome = None then begin
                outcome := Some result;
                !wake ()
              end)
        in
        Hashtbl.replace server.tbl id (Done resend);
        Queue.push (id, Sim.now sim) server.completed;
        resend ()
  in
  let rec attempt k =
    Net.send net ~src ~dst handler;
    Sim.suspend sim (fun resume ->
        wake := resume;
        Sim.at sim
          (Sim.now sim +. timeout)
          (fun () -> if !outcome = None then resume ()));
    if !outcome = None && k + 1 < attempts then begin
      on_retry ();
      (* Exponential backoff with jitter in [0.5, 1.5) of the nominal pause;
         no [rng] means no jitter (and no generator perturbation). *)
      let jitter = match rng with Some r -> 0.5 +. Rng.float r 1.0 | None -> 1.0 in
      Sim.sleep sim (backoff *. (2.0 ** float_of_int k) *. jitter);
      (* A straggler reply may have landed during the pause. *)
      if !outcome = None then attempt (k + 1)
    end
  in
  attempt 0;
  match !outcome with
  | Some (Ok r) -> Ok r
  | Some (Error e) -> raise e
  | None -> Error Timeout
