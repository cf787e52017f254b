open Repdir_key

type txn_id = int

type granted = { g_txn : txn_id; g_mode : Mode.t; g_range : Bound.Interval.t }

type waiter = {
  w_txn : txn_id;
  w_mode : Mode.t;
  w_range : Bound.Interval.t;
  w_on_grant : unit -> unit;
  w_on_drop : unit -> unit;
}

type group = {
  mutable members : t list; (* all managers sharing deadlock detection *)
  mutable senior : txn_id list; (* wound-wait winners, normally empty *)
}

and t = {
  mutable granted : granted list; (* most recent first *)
  mutable queue : waiter list; (* FIFO order *)
  group : group;
}

type outcome = Granted | Waiting | Deadlock of txn_id list

let new_group () : group = { members = []; senior = [] }

let create ?group () =
  let group = match group with Some g -> g | None -> new_group () in
  let t = { granted = []; queue = []; group } in
  group.members <- t :: group.members;
  t

let detach t = t.group.members <- List.filter (fun m -> m != t) t.group.members

let set_senior (group : group) ~txn high =
  let without = List.filter (fun id -> id <> txn) group.senior in
  group.senior <- (if high then txn :: without else without)

let conflicts_granted ~txn mode range g =
  g.g_txn <> txn
  && Bound.Interval.intersects range g.g_range
  && not (Mode.compatible mode g.g_mode)

let conflicts_waiter ~txn mode range w =
  w.w_txn <> txn
  && Bound.Interval.intersects range w.w_range
  && not (Mode.compatible mode w.w_mode)

(* A request can be granted when it is compatible with every granted lock of
   other transactions and does not jump ahead of a conflicting earlier
   waiter (FIFO fairness). *)
let can_grant t ~txn mode range ~queue_prefix =
  (not (List.exists (conflicts_granted ~txn mode range) t.granted))
  && not (List.exists (conflicts_waiter ~txn mode range) queue_prefix)

let would_block t ~txn mode range = not (can_grant t ~txn mode range ~queue_prefix:t.queue)

(* Transactions the given request would wait for: holders of conflicting
   granted locks plus conflicting earlier waiters. *)
let blockers t ~txn mode range ~queue_prefix =
  let from_granted =
    List.filter_map
      (fun g -> if conflicts_granted ~txn mode range g then Some g.g_txn else None)
      t.granted
  in
  let from_queue =
    List.filter_map
      (fun w -> if conflicts_waiter ~txn mode range w then Some w.w_txn else None)
      queue_prefix
  in
  List.sort_uniq compare (from_granted @ from_queue)

(* Transactions a given waiting transaction is blocked by at one manager,
   derived from the current granted/queue state. *)
let local_edges_of t waiting_txn =
  let rec scan prefix = function
    | [] -> []
    | w :: rest ->
        if w.w_txn = waiting_txn then
          blockers t ~txn:waiting_txn w.w_mode w.w_range ~queue_prefix:(List.rev prefix)
          @ scan (w :: prefix) rest
        else scan (w :: prefix) rest
  in
  scan [] t.queue

(* Waits-for cycle search: does adding edge [txn -> each of seeds] close a
   cycle back to [txn]? Edges are gathered across every manager in the
   group, catching deadlocks whose cycle spans representatives. *)
let find_cycle t ~txn seeds =
  let edges_of waiting_txn =
    List.concat_map (fun m -> local_edges_of m waiting_txn) t.group.members
  in
  let rec dfs path visited node =
    if node = txn then Some (List.rev (node :: path))
    else if List.mem node visited then None
    else
      let next = edges_of node in
      let rec try_all = function
        | [] -> None
        | n :: rest -> (
            match dfs (node :: path) (node :: visited) n with
            | Some c -> Some c
            | None -> try_all rest)
      in
      try_all next
  in
  let rec try_seeds = function
    | [] -> None
    | s :: rest -> ( match dfs [ txn ] [] s with Some c -> Some c | None -> try_seeds rest)
  in
  try_seeds seeds

(* Grant queued requests that have become compatible, preserving FIFO order:
   a waiter is granted only if it does not conflict with granted locks nor
   with any waiter still queued ahead of it. *)
let drain_queue t =
  let rec go kept = function
    | [] -> List.rev kept
    | w :: rest ->
        if can_grant t ~txn:w.w_txn w.w_mode w.w_range ~queue_prefix:(List.rev kept) then begin
          t.granted <- { g_txn = w.w_txn; g_mode = w.w_mode; g_range = w.w_range } :: t.granted;
          w.w_on_grant ();
          go kept rest
        end
        else go (w :: kept) rest
  in
  t.queue <- go [] t.queue

(* Wound a junior deadlock victim: cancel its waiting requests at every
   manager in the group. Its [on_drop] callbacks fire — the same path a
   lease expiry takes — so the victim's process unwinds as an abort and its
   granted locks are released by the ordinary abort machinery shortly
   after. The waits-for edges through the victim are gone immediately,
   which is what breaks the cycle. *)
let cancel_waits (group : group) victim =
  List.iter
    (fun m ->
      let dropped, kept = List.partition (fun w -> w.w_txn = victim) m.queue in
      if dropped <> [] then begin
        m.queue <- kept;
        drain_queue m;
        List.iter (fun w -> w.w_on_drop ()) dropped
      end)
    group.members

let acquire t ~txn ?(on_drop = ignore) mode range ~on_grant =
  let enqueue () =
    t.queue <-
      t.queue
      @ [
          {
            w_txn = txn;
            w_mode = mode;
            w_range = range;
            w_on_grant = on_grant;
            w_on_drop = on_drop;
          };
        ];
    Waiting
  in
  if can_grant t ~txn mode range ~queue_prefix:t.queue then begin
    t.granted <- { g_txn = txn; g_mode = mode; g_range = range } :: t.granted;
    Granted
  end
  else if not (List.mem txn t.group.senior) then begin
    let seeds = blockers t ~txn mode range ~queue_prefix:t.queue in
    match find_cycle t ~txn seeds with
    | Some cycle -> Deadlock cycle
    | None -> enqueue ()
  end
  else
    (* A senior requester wounds its way through: every cycle its request
       would close loses a junior member instead of the senior. Wounding
       can unblock other waiters (drain) or reveal another cycle, so loop
       until the request is grantable, queueable, or only seniors remain. *)
    let rec resolve () =
      if can_grant t ~txn mode range ~queue_prefix:t.queue then begin
        t.granted <- { g_txn = txn; g_mode = mode; g_range = range } :: t.granted;
        Granted
      end
      else
        let seeds = blockers t ~txn mode range ~queue_prefix:t.queue in
        match find_cycle t ~txn seeds with
        | None -> enqueue ()
        | Some cycle -> (
            match
              List.filter
                (fun id -> id <> txn && not (List.mem id t.group.senior))
                cycle
            with
            | [] -> Deadlock cycle
            | victim :: _ ->
                cancel_waits t.group victim;
                resolve ())
    in
    resolve ()

(* Recovery-time force grant: re-hold a restored in-doubt transaction's lock
   without queueing or deadlock detection. Sound only on a freshly rebuilt
   manager where every holder is another restored in-doubt transaction —
   they all held their locks concurrently before the crash, so they are
   mutually compatible by construction. *)
let reacquire t ~txn mode range =
  t.granted <- { g_txn = txn; g_mode = mode; g_range = range } :: t.granted

let release_all t ~txn =
  t.granted <- List.filter (fun g -> g.g_txn <> txn) t.granted;
  let dropped, kept = List.partition (fun w -> w.w_txn = txn) t.queue in
  t.queue <- kept;
  drain_queue t;
  (* Wake the dropped waiters last: a transaction terminated from outside
     (lease expiry, in-doubt resolution) can have operations suspended in
     this queue, and their processes must learn the wait was cancelled
     rather than sleep forever. By this point the grant state is settled,
     so the woken process observes the release completely. *)
  List.iter (fun w -> w.w_on_drop ()) dropped

let holds t ~txn =
  List.filter_map
    (fun g -> if g.g_txn = txn then Some (g.g_mode, g.g_range) else None)
    t.granted

let granted_count t = List.length t.granted
let waiting_count t = List.length t.queue
