open Repdir_key
open Repdir_lock
open Repdir_txn
module Btree = Repdir_gapmap.Btree
module Undo_apply = Undo.Apply (Btree)
module Wal_replay = Wal.Replay (Btree)
module Gm = Repdir_gapmap.Gapmap_intf

exception Crashed of string

exception Overloaded of string

exception Deadline_exceeded of string

type fence = Wal.fence = Membership | Shard_map

exception Stale_epoch of { rep : string; fence : fence; epoch : int; record : string }

type waiter = ((unit -> unit) -> unit) -> unit

type timers = { now : unit -> float; after : float -> (unit -> unit) -> unit }

(* Admission control: a sliding arrival window standing in for the request
   queue of a real server. [cap] is the hard admission bound (everything
   past it is pushed back [Overloaded]); [shed_at] is the breaker threshold
   at which non-quorum-critical work (anti-entropy, keepalives) is shed
   first, keeping headroom for the operations quorums depend on. *)
type admission = { window : float; cap : int; shed_at : int }

let default_admission = { window = 10.0; cap = 96; shed_at = 64 }

type work_class = [ `Critical | `Maintenance ]

type resolution_source = By_coordinator | By_peer

type resolver = coord:int -> Txn.id -> ([ `Committed | `Aborted ] * resolution_source) option

type counters = {
  mutable lookups : int;
  mutable predecessors : int;
  mutable successors : int;
  mutable inserts : int;
  mutable coalesces : int;
  mutable lock_waits : int;
  mutable digests : int;
  mutable pulls : int;
  mutable sync_applies : int;
  mutable leases_expired : int;
  mutable unilateral_aborts : int;
  mutable indoubt_by_coordinator : int;
  mutable indoubt_by_peer : int;
  mutable indoubt_recovered : int;
  mutable batches : int;
  mutable batch_ops : int;
  mutable notices_applied : int;
  mutable readonly_finishes : int;
  mutable overload_rejects : int;
  mutable shed_rejects : int;
  mutable expired_rejects : int;
  mutable validates : int;
  mutable checkpoints : int;
}

(* A transaction's state here. [t.txns] keeps the live ones: [Active] and
   [Prepared] carry the lease deadline (infinity without a lease), [Prepared]
   and [In_doubt] the coordinator a binding yes vote went to, and [In_doubt]
   whether recovery restored it with its effects withheld. An ended
   transaction's verdict lives in the dense [outcomes] table; a transaction
   in neither is [Fresh]. *)
type state =
  | Fresh
  | Active of { mutable deadline : float }
  | Prepared of { mutable deadline : float; coord : int }
  | In_doubt of { coord : int; recovered : bool }
  | Ended of [ `Committed | `Aborted ]

type t = {
  name : string;
  waiter : waiter;
  lock_group : Lock_manager.group;
  timers : timers option;
  lease : float option;
  mutable resolver : resolver option;
  mutable map : Btree.t;
  mutable locks : Lock_manager.t;
  mutable undo : Undo.t;
  wal : Wal.t;
  txns : (Txn.id, state) Hashtbl.t;
  (* The one armed lease sweep: its target on the local clock (infinity
     when none is armed) and its stamp; only the newest sweep acts. *)
  mutable sweep_at : float;
  mutable sweep_gen : int;
  outcomes : Txn.Verdicts.t;
  mutable crashed : bool;
  mutable incarnation : int;
  (* Epoch fences, indexed by [slot]: volatile caches of the newest durably
     installed [Wal.Epoch] record of each fence. (0, "") until the first
     installation. *)
  fences : (int * string) array;
  mutable wal_records_repaired : int;
  group_window : float option;
  group : Wal.Group.group;
  admission : admission option;
  arrivals : float Queue.t;  (* admission window: admit times of recent work *)
  counters : counters;
}

let no_waiter _register =
  failwith "Rep: lock wait in sequential mode (no waiter installed)"

let create ?(waiter = no_waiter) ?(lock_group = Lock_manager.new_group ()) ?timers ?lease
    ?group_commit ?admission ~name () =
  {
    name;
    waiter;
    lock_group;
    timers;
    lease;
    resolver = None;
    map = Btree.create ();
    locks = Lock_manager.create ~group:lock_group ();
    undo = Undo.create ();
    wal = Wal.create ();
    txns = Hashtbl.create 16;
    sweep_at = infinity;
    sweep_gen = 0;
    outcomes = Txn.Verdicts.create ();
    crashed = false;
    incarnation = 0;
    fences = Array.make 2 (0, "");
    wal_records_repaired = 0;
    group_window = group_commit;
    group = Wal.Group.create ();
    admission;
    arrivals = Queue.create ();
    counters =
      {
        lookups = 0;
        predecessors = 0;
        successors = 0;
        inserts = 0;
        coalesces = 0;
        lock_waits = 0;
        digests = 0;
        pulls = 0;
        sync_applies = 0;
        leases_expired = 0;
        unilateral_aborts = 0;
        indoubt_by_coordinator = 0;
        indoubt_by_peer = 0;
        indoubt_recovered = 0;
        batches = 0;
        batch_ops = 0;
        notices_applied = 0;
        readonly_finishes = 0;
        overload_rejects = 0;
        shed_rejects = 0;
        expired_rejects = 0;
        validates = 0;
        checkpoints = 0;
      };
  }

let name t = t.name
let counters t = t.counters
let size t = Btree.size t.map
let check_alive t = if t.crashed then raise (Crashed t.name)
let set_resolver t r = t.resolver <- Some r
let wal_group_forces t = Wal.Group.forces t.group
let wal_group_absorbed t = Wal.Group.absorbed t.group

let state t txn =
  match Hashtbl.find_opt t.txns txn with
  | Some s -> s
  | None -> ( match Txn.Verdicts.find_opt t.outcomes txn with Some v -> Ended v | None -> Fresh)

(* --- group commit ------------------------------------------------------------- *)

(* Whether a transaction other than [txn] has logged writes here and not
   yet voted: its prepare is a force that could still join a group. *)
let unvoted_writer ?txn t =
  Undo.exists t.undo (fun id ->
      (match txn with Some me -> me <> id | None -> true)
      && match state t id with Fresh | Active _ -> true | _ -> false)

(* Force the log for [txn] (none for an epoch installation), coalescing
   concurrent forces into one sync when a group window is configured (and a
   clock is available to hold it open). The first forcer leads. It holds
   the window open only while an unvoted writer could join (PostgreSQL's
   [commit_siblings] rule), since a wait with no one to join buys nothing.
   It then syncs once and wakes every follower that asked meanwhile: their
   records were appended before they blocked, so the leader's sync covers
   them. The window must be well below any transaction lease: a forcer
   blocks here while prepared (or about to acknowledge), and a window
   approaching the lease would push healthy transactions into the
   termination protocol. *)
let force_wal ?txn t =
  match (t.group_window, t.timers) with
  | Some window, Some timers when window > 0. ->
      let g = t.group in
      let ticket = Wal.length t.wal in
      if Wal.synced_length t.wal >= ticket then ()
      else if Wal.Group.armed g then begin
        (* Follower: ride on the leader's sync. *)
        let inc = t.incarnation in
        let wake = ref ignore in
        let settled = ref None in
        Wal.Group.enqueue g (fun outcome ->
            settled := Some outcome;
            !wake ());
        if !settled = None then t.waiter (fun w -> wake := w);
        if t.crashed || t.incarnation <> inc then raise (Crashed t.name);
        (* Covered unless the group was cancelled from under us. *)
        if Wal.synced_length t.wal < ticket then begin
          Wal.sync t.wal;
          Wal.Group.count_force g
        end
      end
      else begin
        (* Leader: hold the window open while company can come, then sync
           for everyone. *)
        Wal.Group.lead g;
        if unvoted_writer ?txn t then begin
          let inc = t.incarnation in
          let wake = ref ignore in
          let fired = ref false in
          timers.after window (fun () ->
              fired := true;
              !wake ());
          if not !fired then t.waiter (fun w -> wake := w);
          if t.crashed || t.incarnation <> inc then raise (Crashed t.name)
        end;
        Wal.sync t.wal;
        Wal.Group.settle g Wal.Group.Forced
      end
  | _ ->
      Wal.sync t.wal;
      Wal.Group.count_force t.group

(* Append a record on a representative write path, translating an injected
   storage failure (disk full, io error) into a clean transaction abort: the
   exception unwinds to the transaction boundary, the client aborts or
   retries, and the representative itself stays up and keeps serving other
   transactions — degrade, don't wedge. *)
let wal_append_or_abort t r =
  match Wal.try_append t.wal r with
  | Ok () -> ()
  | Error f ->
      raise
        (Txn.Abort
           (Txn.Unavailable
              (Format.asprintf "%s: wal append failed (%a)" t.name Wal.pp_io_fault f)))

(* --- epoch fencing ---------------------------------------------------------------- *)

let all_fences = [ Membership; Shard_map ]
let slot = function Membership -> 0 | Shard_map -> 1
let fence_view t fence = t.fences.(slot fence)
let epoch t = fst (fence_view t Membership)

(* The fence proper: a request stamped with an older epoch is rejected, and
   the rejection carries this representative's newer record so the sender
   refetches the membership record (or re-routes by the shard map) in the
   same round trip. Requests from a *newer* epoch are accepted — the
   sender's record is current even if this representative has not been
   told yet; it learns by explicit installation. Only new work is fenced:
   termination traffic (commit, abort, outcome queries) and anti-entropy
   must keep flowing across a change, or prepared transactions could never
   settle and zero-vote joiners could never catch up. *)
let fence_check t fence ~epoch =
  check_alive t;
  let current, record = fence_view t fence in
  if epoch < current then
    raise (Stale_epoch { rep = t.name; fence; epoch = current; record })

let install_epoch t fence ~epoch ~record =
  check_alive t;
  (* Monotone: an epoch no newer than the installed one is already covered. *)
  if epoch <= fst (fence_view t fence) then true
  else
    match Wal.try_append t.wal (Wal.Epoch (fence, epoch, record)) with
    | Error _ -> false
    | Ok () ->
        (* Force before acknowledging: a crash after the caller counts this
           representative toward fence coverage must not lose the fence. *)
        force_wal t;
        t.fences.(slot fence) <- (epoch, record);
        true

(* --- checkpoints ------------------------------------------------------------------ *)

(* No transaction holds anything here: no live state, undo or granted
   lock. Every record a checkpoint replaces then belongs to a decided
   transaction or to one a crash already destroyed, and the checkpoint
   carries both kinds forward. *)
let quiescent t =
  Hashtbl.length t.txns = 0
  && Lock_manager.granted_count t.locks = 0
  && Undo.active_txns t.undo = []

let checkpoint t =
  check_alive t;
  if not (quiescent t) then invalid_arg "Rep.checkpoint: transactions are active";
  (* One pass over the B+tree leaves yields each entry with its gap-after
     version. *)
  Wal.checkpoint t.wal
    ~entries:(Btree.entries_between t.map ~lo:Bound.Low ~hi:Bound.High)
    ~low_gap:(Btree.successor t.map Bound.Low).gap_version;
  t.counters.checkpoints <- t.counters.checkpoints + 1;
  (* Truncation dropped any pre-checkpoint [Epoch] record; the fences must
     survive the next crash, so re-log them. *)
  List.iter
    (fun f ->
      let epoch, record = fence_view t f in
      if epoch > 0 then begin
        Wal.append t.wal (Wal.Epoch (f, epoch, record));
        Wal.sync t.wal
      end)
    all_fences

let checkpoint_floor = 64

(* Run whenever a transaction leaves. Checkpointing only once the log has
   outgrown the live map by the floor keeps the snapshot's cost amortised
   O(1) per record appended. Only a fully forced log qualifies, so a
   checkpoint never changes what a crash-time storage fault can reach; an
   armed io fault would refuse the record, so it defers too. *)
let maybe_checkpoint t =
  if
    Wal.length t.wal > Btree.size t.map + checkpoint_floor && Wal.settled t.wal && quiescent t
  then checkpoint t

(* --- transaction termination -------------------------------------------------- *)

(* Retry period for termination queries when no lease interval is configured
   (in-doubt transactions can still arise from crash recovery). *)
let default_resolve_retry = 30.0

let retry_period t = match t.lease with Some l -> l | None -> default_resolve_retry

(* The one transition to [Ended verdict], from any other state. The
   verdict's record is logged first. A refused commit record raises
   [Txn.Abort] and changes nothing: a prepared vote stays binding, and a
   retry or the resolution loop commits once storage heals. Under presumed
   abort a transaction with no commit record never replays, so a refused
   abort record is skipped. The verdict is recorded before the commit record
   is forced, so a duplicate arriving during the force finds the transaction
   ended; the force still precedes any release. Commit keeps the effects and
   abort rolls them back, except for a transaction recovery restored in
   doubt: its effects were withheld at replay, so commit re-applies its redo
   records (sound, as its write ranges stayed locked) and abort drops them. *)
let terminate t ~txn verdict =
  let recovered = match state t txn with In_doubt { recovered; _ } -> recovered | _ -> false in
  (match verdict with
  | `Committed -> wal_append_or_abort t (Wal.Commit txn)
  | `Aborted -> ignore (Wal.try_append t.wal (Wal.Abort txn) : (unit, Wal.io_fault) result));
  Hashtbl.remove t.txns txn;
  Txn.Verdicts.replace t.outcomes txn verdict;
  (match verdict with
  | `Committed ->
      force_wal ~txn t;
      if recovered then Wal_replay.redo t.wal txn t.map else Undo.forget t.undo ~txn
  | `Aborted -> if not recovered then Undo_apply.rollback t.undo ~txn t.map);
  Lock_manager.release_all t.locks ~txn;
  maybe_checkpoint t

(* A known-final verdict for an in-doubt transaction; anything else is a
   duplicate decision (a coordinator retry racing a peer answer) and does
   nothing. A refused commit record leaves it in doubt. *)
let resolve_in_doubt t ~txn verdict =
  match state t txn with
  | In_doubt _ -> ( try terminate t ~txn verdict with Txn.Abort _ -> ())
  | Fresh | Active _ | Prepared _ | Ended _ -> ()

(* Infinity for a transaction no lease sweep can expire. *)
let lease_deadline = function
  | Active { deadline } | Prepared { deadline; _ } -> deadline
  | Fresh | In_doubt _ | Ended _ -> infinity

(* Lease bookkeeping and the termination protocol proper. One sweep per
   representative watches the earliest lease deadline in [txns]: it expires
   every lease due by then, in (deadline, txn) order, and re-arms at the
   next finite deadline. A renewal only ever arms a sweep earlier than the
   armed one (after a backward clock jump), so expiry is observed at each
   lease's local deadline. Sweeps and the resolution loop carry the
   incarnation at which they were started so a crash orphans them
   harmlessly. *)
let rec arm_sweep t timers ~at =
  t.sweep_at <- at;
  t.sweep_gen <- t.sweep_gen + 1;
  let gen = t.sweep_gen and inc = t.incarnation in
  timers.after
    (Float.max 0. (at -. timers.now ()))
    (fun () -> if (not t.crashed) && t.incarnation = inc && t.sweep_gen = gen then sweep t timers)

and sweep t timers =
  t.sweep_at <- infinity;
  let now = timers.now () in
  Hashtbl.fold
    (fun txn s due ->
      let deadline = lease_deadline s in
      if now >= deadline -. 1e-9 then (deadline, txn) :: due else due)
    t.txns []
  |> List.sort compare
  |> List.iter (fun (_, txn) -> expire t ~txn);
  let next = Hashtbl.fold (fun _ s m -> Float.min (lease_deadline s) m) t.txns infinity in
  if next < infinity then arm_sweep t timers ~at:next

and expire t ~txn =
  match state t txn with
  | Active _ ->
      (* Unprepared: presumed abort lets the participant abort unilaterally
         and release its locks. The coordinator can never commit this
         transaction afterwards, because any later prepare here is
         refused. *)
      t.counters.leases_expired <- t.counters.leases_expired + 1;
      t.counters.unilateral_aborts <- t.counters.unilateral_aborts + 1;
      terminate t ~txn `Aborted
  | Prepared { coord; _ } ->
      (* A prepared vote is binding: the participant must not decide alone.
         It enters the in-doubt state — only writers to the transaction's
         ranges block, the rest of the representative stays available — and
         queries the coordinator (then peers) until someone knows. *)
      t.counters.leases_expired <- t.counters.leases_expired + 1;
      start_resolution t ~txn ~coord ~recovered:false
  | Fresh | In_doubt _ | Ended _ -> ()

(* Hold the transaction in doubt and, given a clock, ask the resolver until
   a verdict ends it. Without timers it ends only by an explicit commit,
   abort or [resolve_in_doubt]. *)
and start_resolution t ~txn ~coord ~recovered =
  Hashtbl.replace t.txns txn (In_doubt { coord; recovered });
  match t.timers with
  | None -> ()
  | Some timers ->
      let inc = t.incarnation in
      let in_doubt () =
        (not t.crashed) && t.incarnation = inc
        && match state t txn with In_doubt _ -> true | _ -> false
      in
      let rec step () =
        if in_doubt () then begin
          let answer =
            match t.resolver with
            | None -> None
            | Some resolve -> ( try resolve ~coord txn with _ -> None)
          in
          (* The query blocked; re-check that nothing terminated the
             transaction (or crashed the rep) while it was in flight. *)
          if in_doubt () then begin
            (match answer with
            | Some (verdict, source) ->
                (match source with
                | By_coordinator ->
                    t.counters.indoubt_by_coordinator <- t.counters.indoubt_by_coordinator + 1
                | By_peer -> t.counters.indoubt_by_peer <- t.counters.indoubt_by_peer + 1);
                if recovered then
                  t.counters.indoubt_recovered <- t.counters.indoubt_recovered + 1;
                resolve_in_doubt t ~txn verdict
            | None -> ());
            (* Still in doubt: nobody knew yet, or the commit record could
               not be written (injected disk fault); ask again once storage
               may have healed. *)
            if in_doubt () then timers.after (retry_period t) step
          end
        end
      in
      timers.after 0. step

(* The lease deadline a renewal sets now: infinity without a lease. *)
let renewal t =
  match (t.timers, t.lease) with
  | Some timers, Some lease -> timers.now () +. lease
  | _ -> infinity

let arm t deadline =
  match t.timers with
  | Some timers when deadline < t.sweep_at -> arm_sweep t timers ~at:deadline
  | _ -> ()

(* Renew the lease of a transaction in state [s], making it [Active] on
   first contact. *)
let touch t ~txn s =
  let deadline = renewal t in
  if deadline < infinity then begin
    (match s with
    | Active a -> a.deadline <- deadline
    | Prepared p -> p.deadline <- deadline
    | Fresh | In_doubt _ | Ended _ -> Hashtbl.replace t.txns txn (Active { deadline }));
    arm t deadline
  end

(* Admission control, charged once per operation. The sliding window of
   recent admit times models the request queue of a server whose service is
   instantaneous in the simulation: its length is the backlog an arrival
   would join. At [cap] everything is pushed back ([Overloaded] — the client
   excludes this representative and re-collects its quorum elsewhere);
   from [shed_at] up, the breaker sheds [`Maintenance] work (anti-entropy
   transfers, keepalives) while still admitting quorum-critical operations.
   Termination traffic (prepare/commit/abort/outcome queries, notices) is
   never charged: shedding it would strand locks and in-doubt transactions,
   making the overload worse. Off (and free) unless both an [admission]
   policy and [timers] were configured. *)
let admission_charge t ~cls =
  match (t.admission, t.timers) with
  | Some adm, Some timers ->
      let now = timers.now () in
      while
        (not (Queue.is_empty t.arrivals)) && Queue.peek t.arrivals +. adm.window <= now
      do
        ignore (Queue.pop t.arrivals)
      done;
      let depth = Queue.length t.arrivals in
      if depth >= adm.cap then begin
        t.counters.overload_rejects <- t.counters.overload_rejects + 1;
        raise (Overloaded t.name)
      end;
      (match cls with
      | `Maintenance when depth >= adm.shed_at ->
          t.counters.shed_rejects <- t.counters.shed_rejects + 1;
          raise (Overloaded t.name)
      | `Maintenance | `Critical -> ());
      Queue.push now t.arrivals
  | _ -> ()

(* Deadline propagation's receiving end: work whose client-stamped absolute
   deadline has already passed is refused instead of executed — under
   overload the backlog's oldest (expired) requests are the ones dropped,
   which is what LIFO draining buys a real server. Needs a clock; without
   timers the stamp is ignored. *)
let reject_expired t ~deadline =
  check_alive t;
  match t.timers with
  | Some timers when timers.now () > deadline ->
      t.counters.expired_rejects <- t.counters.expired_rejects + 1;
      raise
        (Deadline_exceeded
           (Printf.sprintf "%s: deadline exceeded by %.1f" t.name (timers.now () -. deadline)))
  | _ -> ()

(* Every operation runs under this guard: a transaction the termination
   protocol has already decided (or holds in doubt) must not execute new
   operations — its retry/duplicate RPCs surface as aborts at the client. *)
let check_txn_open ?(cls = `Critical) t ~txn =
  check_alive t;
  admission_charge t ~cls;
  match state t txn with
  | In_doubt _ -> raise (Txn.Abort (Txn.Unavailable (t.name ^ ": transaction is in doubt")))
  | Ended _ -> raise (Txn.Abort (Txn.Unavailable (t.name ^ ": transaction already terminated")))
  | (Fresh | Active _ | Prepared _) as s -> touch t ~txn s

(* Acquire a lock, blocking through the waiter if needed; a would-be deadlock
   unwinds as a transaction abort before anything is queued. The simulation
   is single-threaded and non-preemptive, so the grant callback cannot fire
   between [acquire] returning [Waiting] and the waiter installing the real
   wake-up function. A wait cancelled from outside (lease expiry terminating
   this very transaction) resumes through [on_drop] and unwinds as an abort.
   So does a granted wait whose transaction left the states that run
   operations between the grant and the resumption (a lease expiring at the
   instant of the grant): an ended transaction's termination already
   released the lock, and the operation must not run. *)
let lock_blocking t ~txn mode range =
  let wake = ref ignore in
  let dropped = ref false in
  match
    Lock_manager.acquire t.locks ~txn
      ~on_drop:(fun () ->
        dropped := true;
        !wake ())
      mode range
      ~on_grant:(fun () -> !wake ())
  with
  | Lock_manager.Granted -> ()
  | Lock_manager.Deadlock cycle -> raise (Txn.Abort (Txn.Deadlock cycle))
  | Lock_manager.Waiting ->
      t.counters.lock_waits <- t.counters.lock_waits + 1;
      t.waiter (fun w -> wake := w);
      match state t txn with
      | (Fresh | Active _ | Prepared _) when not !dropped -> ()
      | _ -> raise (Txn.Abort (Txn.Unavailable (t.name ^ ": transaction terminated while waiting")))

(* --- Figure 6 operations --------------------------------------------------- *)

let point_lookup t ~txn bound =
  lock_blocking t ~txn Mode.Rep_lookup (Bound.Interval.point bound);
  Btree.lookup t.map bound

let lookup t ~txn bound =
  check_txn_open t ~txn;
  t.counters.lookups <- t.counters.lookups + 1;
  point_lookup t ~txn bound

(* Version-only reads, for validating a client cache (a weak representative):
   same lock, same serialization point as [lookup] — only the reply sheds its
   payload. The version tag of a key is its entry's version when present, or
   its containing gap's version when absent, so a tag fully determines
   whether a cached entry (or cached absence) is still current. *)
type version_tag = Tag_entry of Version.t | Tag_gap of Version.t

let tag_version = function Tag_entry v | Tag_gap v -> v

let tag_of = function
  | Gm.Present { version; _ } -> Tag_entry version
  | Gm.Absent { gap_version } -> Tag_gap gap_version

let validated_lookup t ~txn bound =
  check_txn_open t ~txn;
  t.counters.validates <- t.counters.validates + 1;
  let l = point_lookup t ~txn bound in
  (l, tag_of l)

(* DirRepPredecessor locks RepLookup(y, x) where y is the key returned — but
   y is only known after reading. We read, lock [y, x], and re-read; if a
   concurrent transaction changed the neighbours before our lock was granted,
   retry with the wider knowledge. Under strict 2PL the loop terminates: each
   iteration's lock is kept, monotonically freezing a wider range of the key
   space. A walk of [depth] > 1 is the §4 batching: it reads a chain of
   successive neighbours (nearest first, ending early at LOW or HIGH), locks
   the whole span, and re-reads, so a chain is validated exactly like a single
   step. DirRepSuccessor is the mirror image. *)
type direction = Down | Up

let walk t ~txn dir bound ~depth =
  let step, stop =
    match dir with Down -> (Btree.predecessor, Bound.Low) | Up -> (Btree.successor, Bound.High)
  in
  if depth <= 0 then invalid_arg "Rep.walk: depth must be positive";
  if Bound.equal bound stop then invalid_arg ("Rep.walk: " ^ Bound.to_string stop);
  check_txn_open t ~txn;
  let c = t.counters in
  (match dir with
  | Down -> c.predecessors <- c.predecessors + 1
  | Up -> c.successors <- c.successors + 1);
  let read () =
    let rec go acc k remaining =
      if remaining = 0 || Bound.equal k stop then List.rev acc
      else
        let (n : Gm.neighbor) = step t.map k in
        go (n :: acc) n.key (remaining - 1)
    in
    go [] bound depth
  in
  let keys chain = List.map (fun (n : Gm.neighbor) -> n.key) chain in
  let rec stabilize () =
    let chain = read () in
    let far = List.fold_left (fun _ (n : Gm.neighbor) -> n.key) bound chain in
    let span =
      match dir with
      | Down -> Bound.Interval.make far bound
      | Up -> Bound.Interval.make bound far
    in
    lock_blocking t ~txn Mode.Rep_lookup span;
    let now = read () in
    if List.equal Bound.equal (keys now) (keys chain) then now else stabilize ()
  in
  (* The span lock covers every neighbour, so each value is read under it. *)
  List.map
    (fun (n : Gm.neighbor) ->
      match Btree.lookup t.map n.key with
      | Gm.Present { value; _ } -> (n, value)
      | Gm.Absent _ -> assert false)
    (stabilize ())

let modify_point t ~txn key =
  check_txn_open t ~txn;
  lock_blocking t ~txn Mode.Rep_modify (Bound.Interval.point (Bound.Key key));
  Btree.lookup t.map (Bound.Key key)

(* Write an entry over [old], the key's state under the RepModify lock. *)
let put_entry t ~txn key version value old =
  t.counters.inserts <- t.counters.inserts + 1;
  (* Log first: a refused append (injected disk fault) must abort before
     the undo log or the map record any trace of this operation. *)
  wal_append_or_abort t (Wal.Insert (txn, key, version, value));
  Undo.record t.undo ~txn
    (match old with
    | Gm.Present { version = old_version; value = old_value } ->
        Undo.Restore_entry (key, old_version, old_value)
    | Gm.Absent _ -> Undo.Remove_entry key);
  Btree.insert t.map key version value

(* RepModify(x, x). With [if_absent] a key already present is left alone
   (only the lock is taken) and the result is [false]: DirSuiteDelete repairs
   a quorum member by copying the real neighbour in only when the member lacks
   it, and batching fuses that existence check with the copy so the whole
   repair fits in one message. *)
let write_entry t ~txn ~if_absent key version value =
  match modify_point t ~txn key with
  | Gm.Present _ when if_absent -> false
  | old ->
      put_entry t ~txn key version value old;
      true

let insert t ~txn key version value =
  ignore (write_entry t ~txn ~if_absent:false key version value : bool)

let gap_after t bound =
  (* Version of the gap immediately following an entry or LOW. *)
  (Btree.successor t.map bound).gap_version

let endpoint_exists t = function
  | Bound.Low | Bound.High -> true
  | Bound.Key _ as b -> (
      match Btree.lookup t.map b with
      | Repdir_gapmap.Gapmap_intf.Present _ -> true
      | Repdir_gapmap.Gapmap_intf.Absent _ -> false)

let coalesce t ~txn ~lo ~hi version =
  check_txn_open t ~txn;
  t.counters.coalesces <- t.counters.coalesces + 1;
  lock_blocking t ~txn Mode.Rep_modify (Bound.Interval.make lo hi);
  (* Validate the endpoints before logging anything: a failed coalesce must
     leave both the undo log and the write-ahead log untouched. *)
  if not (endpoint_exists t lo) then raise (Repdir_gapmap.Gapmap_intf.Missing_endpoint lo);
  if not (endpoint_exists t hi) then raise (Repdir_gapmap.Gapmap_intf.Missing_endpoint hi);
  wal_append_or_abort t (Wal.Coalesce (txn, lo, hi, version));
  (* Record the inverse before destroying anything. Application order on
     rollback (most-recent-first) must be: re-insert every removed entry,
     then restore every gap version (including lo's). So record gap
     restorations first, newest-last entry re-insertions after. *)
  let doomed = Btree.entries_between t.map ~lo ~hi in
  let old_lo_gap = gap_after t lo in
  Undo.record t.undo ~txn (Undo.Restore_gap (lo, old_lo_gap));
  List.iter
    (fun (k, _, _, g) -> Undo.record t.undo ~txn (Undo.Restore_gap (Bound.Key k, g)))
    doomed;
  List.iter
    (fun (k, v, value, _) -> Undo.record t.undo ~txn (Undo.Restore_entry (k, v, value)))
    doomed;
  Btree.coalesce t.map ~lo ~hi version

(* --- anti-entropy endpoints -------------------------------------------------- *)

(* The prologue every maintenance read shares: admit the request as
   maintenance, [bump] its counter, read-lock the range, then [read] the
   map. *)
let maintenance_read t ~txn ~lo ~hi bump read =
  check_txn_open ~cls:`Maintenance t ~txn;
  bump t.counters;
  lock_blocking t ~txn Mode.Rep_lookup (Bound.Interval.make lo hi);
  read t.map ~lo ~hi

let count_digest c = c.digests <- c.digests + 1

let digest_range t ~txn ~lo ~hi =
  maintenance_read t ~txn ~lo ~hi count_digest Btree.digest_range

let digest_interior_range t ~txn ~lo ~hi =
  maintenance_read t ~txn ~lo ~hi count_digest Btree.digest_interior_range

let split_range t ~txn ~lo ~hi ~arity =
  maintenance_read t ~txn ~lo ~hi ignore (Btree.split_range ~arity)

let pull_range t ~txn ~lo ~hi =
  maintenance_read t ~txn ~lo ~hi (fun c -> c.pulls <- c.pulls + 1) Btree.pull_range

let apply_range t ~txn (tr : Gm.transfer) =
  check_txn_open ~cls:`Maintenance t ~txn;
  t.counters.sync_applies <- t.counters.sync_applies + 1;
  lock_blocking t ~txn Mode.Rep_modify (Bound.Interval.make tr.t_lo tr.t_hi);
  let plan = Btree.plan_transfer t.map tr in
  if plan.ops = [] then { Gm.empty_applied with ghosts_kept = plan.ghosts_kept }
  else begin
    (* One redo record for the whole plan; it replays by re-running the ops
       in order, so it must be logged before any of them mutates the map. *)
    wal_append_or_abort t (Wal.Sync_apply (txn, plan.ops));
    let applied = ref { Gm.empty_applied with ghosts_kept = plan.ghosts_kept } in
    List.iter
      (fun op ->
        (* Record each op's inverse against the map as it stands right now;
           rollback applies inverses most-recent-first, so each one meets
           exactly the state its op produced. *)
        (match op with
        | Gm.Sync_put (k, _, _) -> (
            match Btree.lookup t.map (Bound.Key k) with
            | Present { version; value } ->
                applied := { !applied with updated = !applied.updated + 1 };
                Undo.record t.undo ~txn (Undo.Restore_entry (k, version, value))
            | Absent _ ->
                applied := { !applied with installed = !applied.installed + 1 };
                Undo.record t.undo ~txn (Undo.Remove_entry k))
        | Gm.Sync_gap (b, _) ->
            applied := { !applied with gaps_raised = !applied.gaps_raised + 1 };
            Undo.record t.undo ~txn (Undo.Restore_gap (b, gap_after t b))
        | Gm.Sync_del k -> (
            applied := { !applied with deleted = !applied.deleted + 1 };
            match Btree.lookup t.map (Bound.Key k) with
            | Present { version; value } ->
                (* Rollback order (LIFO): re-insert the entry, then restore
                   the version of the gap that followed it. *)
                Undo.record t.undo ~txn (Undo.Restore_gap (Bound.Key k, gap_after t (Bound.Key k)));
                Undo.record t.undo ~txn (Undo.Restore_entry (k, version, value))
            | Absent _ -> assert false));
        Btree.apply_sync_op t.map op)
      plan.ops;
    !applied
  end

let root_digest t =
  check_alive t;
  Btree.digest_range t.map ~lo:Bound.Low ~hi:Bound.High

(* A lease heartbeat for long-running sessions: [check_txn_open] touches the
   lease (creating it on first contact) and rejects already-terminated
   transactions, which is exactly the contract. *)
let keepalive t ~txn = check_txn_open ~cls:`Maintenance t ~txn

(* --- transaction boundary --------------------------------------------------- *)

let prepare t ~txn ~coord =
  check_alive t;
  match state t txn with
  | In_doubt _ | Ended `Committed -> () (* duplicate: the yes vote is durable, or committed *)
  | Ended `Aborted ->
      (* Typically a unilateral lease abort beat the coordinator's prepare:
         the no vote is final, the coordinator must decide abort. *)
      raise (Txn.Abort (Txn.Unavailable (t.name ^ " already aborted the transaction")))
  | Fresh | Active _ | Prepared _ -> (
      (* Refuse to vote for a transaction whose effects here predate our
         last crash: the volatile state (including the in-memory results of
         those operations) is gone, so committing would half-apply the
         transaction. *)
      if Wal.ops_before_last_recovery t.wal txn then
        raise (Txn.Abort (Txn.Unavailable (t.name ^ " lost the transaction's effects in a crash")));
      (* A refused append is a no vote: raising here makes the coordinator
         decide abort, which is exactly what a disk-full participant
         wants. *)
      wal_append_or_abort t (Wal.Prepare (txn, coord));
      (* Force the log before voting yes: a prepared transaction's effects
         must survive any crash, since the coordinator may decide to
         commit. *)
      force_wal ~txn t;
      (* The force may have held a group-commit window open for another
         writer, and a lease expiry inside it can have aborted and rolled
         back the transaction: the vote is then no, as if the abort had
         come first. *)
      match state t txn with
      | Ended _ ->
          raise (Txn.Abort (Txn.Unavailable (t.name ^ " aborted the transaction while voting")))
      | In_doubt _ -> () (* a duplicate's binding vote went in doubt meanwhile *)
      | Fresh | Active _ | Prepared _ ->
          (* From here the vote binds: a later lease expiry must turn into
             in-doubt resolution against this coordinator, never a
             unilateral abort. *)
          let deadline = renewal t in
          Hashtbl.replace t.txns txn (Prepared { deadline; coord });
          arm t deadline)

let commit t ~txn =
  check_alive t;
  match state t txn with
  | Ended `Committed -> () (* duplicate delivery: commit is idempotent *)
  | Ended `Aborted ->
      raise (Txn.Abort (Txn.Unavailable (t.name ^ " already aborted the transaction")))
  | In_doubt _ -> resolve_in_doubt t ~txn `Committed
  | Fresh | Active _ | Prepared _ -> terminate t ~txn `Committed

let abort t ~txn =
  check_alive t;
  match state t txn with
  | Ended `Aborted -> () (* duplicate delivery: abort is idempotent *)
  | Ended `Committed ->
      raise (Txn.Abort (Txn.Unavailable (t.name ^ " already committed the transaction")))
  | Fresh | Active _ | Prepared _ | In_doubt _ -> terminate t ~txn `Aborted

(* --- batched execution -------------------------------------------------------- *)

(* Release a transaction that did no work here, without recording an
   outcome. Server-authoritative: the client *believes* the transaction is
   read-only, but only this representative knows (its undo log is empty iff
   no operation wrote here), and a prepared vote or an in-doubt state always
   wins. Refusals return false and the client falls back to the normal
   termination round. No outcome is recorded because this representative's
   vote was never collected: answering a peer's termination query with a
   definite verdict here could contradict the coordinator's decision. *)
let finish_readonly t ~txn =
  check_alive t;
  match state t txn with
  | (Fresh | Active _) when Undo.actions t.undo ~txn = [] ->
      t.counters.readonly_finishes <- t.counters.readonly_finishes + 1;
      Hashtbl.remove t.txns txn;
      Lock_manager.release_all t.locks ~txn;
      maybe_checkpoint t;
      true
  | Fresh | Active _ | Prepared _ | In_doubt _ | Ended _ -> false

(* A batched implicit write's one round: under RepModify(key), write at the
   proposed [version] only when this member's version of the key is below it
   and, unless [expect] is [None], its presence is [expect]; then vote yes
   for [coord]. Otherwise the transaction did nothing here and is released.
   Either way the reply is the key's tag before the write, and whether it
   wrote. A re-execution (a retransmission the dedup cache no longer
   remembers) would read its own first write and answer a tag the client
   must not fold, so a transaction that already wrote here is refused. *)
let write_unless t ~txn key version value ~expect ~coord =
  if Undo.actions t.undo ~txn <> [] then
    raise (Txn.Abort (Txn.Unavailable (t.name ^ ": conditional write re-executed")));
  let old = modify_point t ~txn key in
  let present = match old with Gm.Present _ -> true | Gm.Absent _ -> false in
  let tag = tag_of old in
  let wrote =
    tag_version tag < version && Option.fold ~none:true ~some:(Bool.equal present) expect
  in
  if wrote then begin
    put_entry t ~txn key version value old;
    prepare t ~txn ~coord
  end
  else ignore (finish_readonly t ~txn : bool);
  (tag, wrote)

type batch_op =
  | B_lookup of Bound.t
  | B_validate of Bound.t
  | B_lookup_unless of Bound.t * version_tag
  | B_walk of direction * Bound.t * int
  | B_insert of Key.t * Version.t * Gm.value
  | B_insert_if_absent of Key.t * Version.t * Gm.value
  | B_coalesce of Bound.t * Bound.t * Version.t
  | B_write_unless of Key.t * Version.t * Gm.value * bool option * int
  | B_prepare of int
  | B_finish_readonly

type batch_result =
  | R_lookup of Gm.lookup
  | R_tag of version_tag
  | R_current
  | R_older
  | R_walk of (Gm.neighbor * Gm.value) list
  | R_unit
  | R_inserted of bool
  | R_removed of int
  | R_write of version_tag * bool
  | R_finished of bool

type notice = N_commit of Txn.id | N_abort of Txn.id

(* Deferred termination records for *other* transactions, piggybacked on a
   later message to this representative. Commit and abort are idempotent; a
   conflicting-outcome abort means the termination protocol already settled
   the transaction, so the notice is stale and dropped. *)
let deliver_notice t n =
  t.counters.notices_applied <- t.counters.notices_applied + 1;
  match n with
  | N_commit txn -> ( try commit t ~txn with Txn.Abort _ -> ())
  | N_abort txn -> ( try abort t ~txn with Txn.Abort _ -> ())

let deliver_notices t ns =
  check_alive t;
  List.iter (deliver_notice t) ns

type envelope = {
  notices : notice list;
  deadline : float option;
  shard_epoch : int option;
  member_epoch : int;
}

let run_batch_op t ~txn op =
  t.counters.batch_ops <- t.counters.batch_ops + 1;
  match op with
  | B_lookup b -> R_lookup (lookup t ~txn b)
  | B_validate b -> R_tag (snd (validated_lookup t ~txn b))
  | B_lookup_unless (b, line) ->
      (* A conditional lookup, as HTTP's If-None-Match: the payload travels
         only when this member is newer than the client's line. *)
      let l, mine = validated_lookup t ~txn b in
      if mine = line then R_current
      else if tag_version mine < tag_version line then R_older
      else R_lookup l
  | B_walk (dir, b, depth) -> R_walk (walk t ~txn dir b ~depth)
  | B_insert (k, v, value) ->
      insert t ~txn k v value;
      R_unit
  | B_insert_if_absent (k, v, value) ->
      R_inserted (write_entry t ~txn ~if_absent:true k v value)
  | B_coalesce (lo, hi, v) -> R_removed (coalesce t ~txn ~lo ~hi v)
  | B_write_unless (k, v, value, expect, coord) ->
      let tag, wrote = write_unless t ~txn k v value ~expect ~coord in
      R_write (tag, wrote)
  | B_prepare coord ->
      prepare t ~txn ~coord;
      R_unit
  | B_finish_readonly -> R_finished (finish_readonly t ~txn)

(* One message, many ops. The envelope is checked first, in a fixed order:
   the piggybacked notices are applied whatever the verdict on the rest (they
   settle other transactions, and the locks they release are then free for
   this one); then an expired deadline is refused, then a stale shard-map
   epoch, then a stale membership epoch — all before any op runs. The ops run
   strictly in list order and return per-op results. The first failure
   propagates and abandons the rest; earlier ops keep their effects (covered
   by the transaction's locks) and are cleaned up by the transaction's abort,
   exactly as if each op had been its own RPC. *)
let execute t env ~txn ops =
  deliver_notices t env.notices;
  Option.iter (fun deadline -> reject_expired t ~deadline) env.deadline;
  Option.iter (fun epoch -> fence_check t Shard_map ~epoch) env.shard_epoch;
  fence_check t Membership ~epoch:env.member_epoch;
  t.counters.batches <- t.counters.batches + 1;
  List.rev (List.fold_left (fun acc op -> run_batch_op t ~txn op :: acc) [] ops)

(* What this representative knows about a transaction's fate — the answer it
   gives a peer's termination query. [`Committed] implies the coordinator
   logged a commit decision; [`Aborted] implies either a coordinator abort
   decision or a unilateral abort taken while unprepared, after which this
   rep refuses every prepare, so the coordinator can never commit. Both are
   therefore final. [`Unknown] is always safe — the asker just keeps
   trying. *)
let outcome_of t txn =
  check_alive t;
  match Txn.Verdicts.find_opt t.outcomes txn with
  | Some `Committed -> `Committed
  | Some `Aborted -> `Aborted
  | None -> `Unknown

let in_doubt_txns t =
  Hashtbl.fold (fun id s acc -> match s with In_doubt _ -> id :: acc | _ -> acc) t.txns []
  |> List.sort compare

let in_doubt_count t = List.length (in_doubt_txns t)
let locks_held t = Lock_manager.granted_count t.locks
let lock_waiters t = Lock_manager.waiting_count t.locks
let admission_depth t = Queue.length t.arrivals

(* --- crash and recovery ------------------------------------------------------ *)

(* All volatile transaction state dies with the incarnation, the armed lease
   sweep included; recovery rebuilds outcomes and the in-doubt set from the
   log. *)
let drop_txn_state t =
  Lock_manager.detach t.locks;
  t.locks <- Lock_manager.create ~group:t.lock_group ();
  t.undo <- Undo.create ();
  Hashtbl.reset t.txns;
  t.sweep_at <- infinity;
  Txn.Verdicts.reset t.outcomes

let crash t =
  t.crashed <- true;
  (* Wake anyone blocked in a group-commit window; they re-check the crash
     flag on resume and unwind as [Crashed]. *)
  Wal.Group.settle t.group Wal.Group.Cancelled;
  t.map <- Btree.create ();
  drop_txn_state t;
  Queue.clear t.arrivals;
  (* The epoch caches are volatile too; recovery restores them from the log. *)
  Array.fill t.fences 0 (Array.length t.fences) (0, "")

let is_crashed t = t.crashed
let incarnation t = t.incarnation

let inject_storage_fault t fault = Wal.inject t.wal fault
let set_io_fault t f = Wal.set_io_fault t.wal f

let wal_records_repaired t = t.wal_records_repaired

let recover t =
  (* First scrub stable storage: a crash may have torn or corrupted the log
     tail, and everything from the first bad frame on is unreadable. What
     survives is a prefix of history; committed-only replay below then
     reconstructs exactly the committed prefix. *)
  t.wal_records_repaired <- t.wal_records_repaired + Wal.repair t.wal;
  let restored = Wal.in_doubt t.wal in
  (* Replay the committed state only: a prepared-but-undecided transaction's
     effects are withheld from the map until the termination protocol learns
     its outcome. Deciding it here (say, auto-abort) would be unsound — the
     coordinator may have logged a commit we never saw delivered. *)
  t.map <- Wal_replay.replay t.wal;
  drop_txn_state t;
  Wal.iter_outcomes t.wal (Txn.Verdicts.replace t.outcomes);
  t.crashed <- false;
  t.incarnation <- t.incarnation + 1;
  (* Resume fencing at each fence's newest durably installed epoch. The
     installation forced the log, so repair cannot have dropped it. *)
  List.iter
    (fun f -> t.fences.(slot f) <- Option.value (Wal.last_epoch t.wal f) ~default:(0, ""))
    all_fences;
  (* Restore each in-doubt transaction: re-hold its write locks so the
     withheld effects stay isolated (writers to those ranges block, nothing
     else does), and hand it to the termination protocol. Its redo records
     are applied iff the verdict is commit. *)
  List.iter2
    (fun (txn, coord) (_, ranges) ->
      List.iter (fun range -> Lock_manager.reacquire t.locks ~txn Mode.Rep_modify range) ranges;
      start_resolution t ~txn ~coord ~recovered:true)
    restored
    (Wal.write_ranges t.wal (List.map fst restored));
  Wal.append t.wal Wal.Recovery_marker;
  Wal.sync t.wal

let wal_length t = Wal.length t.wal
let wal_unsynced t = Wal.length t.wal - Wal.synced_length t.wal

(* --- inspection --------------------------------------------------------------- *)

let entries t = Btree.entries t.map
let gaps t = Btree.gaps t.map
let check_invariants t = Btree.check_invariants t.map
let active_txn_count t = Hashtbl.length t.txns - in_doubt_count t

(* Quiesce-time deep self-check, for the replica scrubber: the gap map's
   structural invariants (entries and gaps exactly tile [LOW, HIGH] with the
   B+tree shape intact), and — when no transaction is active or in doubt —
   the live map must equal a fresh committed-only replay of the write-ahead
   log. Replay equality subsumes version monotonicity with respect to the
   WAL: any version the log never justified, or any committed effect the map
   lost, shows up as a divergence. *)
let scrub t =
  check_alive t;
  let problems = ref [] in
  let add fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  (match Btree.check_invariants t.map with
  | Ok () -> ()
  | Error e -> add "%s: gap-map invariant: %s" t.name e);
  if Hashtbl.length t.txns = 0 && Undo.active_txns t.undo = [] then begin
    let replayed = Wal_replay.replay t.wal in
    let live_entries = Btree.entries t.map and wal_entries = Btree.entries replayed in
    if live_entries <> wal_entries then
      add "%s: live entries diverge from WAL replay (%d live, %d replayed)" t.name
        (List.length live_entries) (List.length wal_entries);
    let live_gaps = Btree.gaps t.map and wal_gaps = Btree.gaps replayed in
    if live_gaps <> wal_gaps then
      add "%s: live gap versions diverge from WAL replay" t.name
  end;
  List.rev !problems

let pp ppf t = Format.fprintf ppf "%s: %a" t.name Btree.pp t.map
