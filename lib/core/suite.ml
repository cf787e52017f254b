open Repdir_key
open Repdir_util
open Repdir_quorum
open Repdir_txn
open Repdir_rep
module Gi = Repdir_gapmap.Gapmap_intf
module History = Repdir_audit.History
module Member = Repdir_member.Member
module Cache = Repdir_cache.Cache

type value = string

exception Unavailable of string

exception Deadline_exceeded of string

(* Client-side retry budget: a token bucket shared by all of one client's
   operations. Retries spend a token; successes earn a fraction back. Under
   occasional failures the bucket stays near its cap and every retry is
   granted; under sustained unavailability it drains, and the client fails
   fast instead of joining the retry storm that turns a transient brownout
   into a metastable outage (the goodput-collapse mode: servers spending all
   capacity on retries of work whose clients have given up). *)
module Retry_budget = struct
  type t = { mutable tokens : float; cap : float; earn : float }

  let create ?(cap = 10.0) ?(earn = 0.1) () =
    if cap < 1.0 then invalid_arg "Retry_budget.create: cap must be at least 1.0";
    if earn <= 0.0 then invalid_arg "Retry_budget.create: earn must be positive";
    { tokens = cap; cap; earn }

  let tokens b = b.tokens

  let try_spend b =
    if b.tokens >= 1.0 then begin
      b.tokens <- b.tokens -. 1.0;
      true
    end
    else false

  let earn b = b.tokens <- Float.min b.cap (b.tokens +. b.earn)
end

module Int_set = Set.Make (Int)

(* Per-transaction session: which representatives the transaction has
   operated on, and each one's incarnation number at first contact. A
   participant that restarts mid-transaction has lost the transaction's
   volatile state — locks, undo records, possibly unforced log records — so
   any evidence of a restart (a changed incarnation) must fail the
   transaction rather than let a half-remembered participant vote.
   [prepared] are members whose two-phase-commit vote was already collected
   by a piggybacked [B_prepare]; [finished] are members released by a
   read-only finish, in-round or after an implicit write's error — both are
   skipped by the termination rounds. [written] are members sent a write op,
   which the prepare round never offers a read-only finish. [reads] holds
   what a quorum version read of a key would answer now, as the transaction
   learned it under locks it still holds (DESIGN.md, "Transaction reads").
   [deferred] is a batched explicit transaction's decided insert or update
   (key, version, value), not yet sent: it leaves before the transaction's
   next operation on the suite, or with its vote (DESIGN.md, "Deferred
   writes"). *)
type session = {
  mutable reps : Int_set.t;
  mutable prepared : Int_set.t;
  mutable finished : Int_set.t;
  mutable written : Int_set.t;
  incarnations : (int, int) Hashtbl.t;
  mutable reads : (Bound.t * (bool * Version.t)) list;
  mutable deferred : (Key.t * Version.t * value) option;
}

let participants s = Int_set.diff s.reps s.finished

(* Sharding hook. The multi-group router (lib/shard) attaches one of these
   to each per-group suite; the closures read the router's current shard map
   so this module never depends on the shard library. [shard_epoch] stamps
   every representative call (fenced server-side by [Rep.execute] on
   the [Shard_map] fence, beside the membership fence);
   [shard_label] names the owned range and group in failure messages so a
   sharded campaign's errors are attributable. *)
type shard_info = { shard_label : unit -> string; shard_epoch : unit -> int }

type t = {
  (* The configuration: quorums are collected from the record's view(s),
     every representative call is stamped with the record's epoch (and
     fenced server-side), and a [Rep.Stale_epoch] rejection makes the suite
     adopt the newer record it carries. A static configuration is the
     [Stable] record at epoch 0, which every representative that has
     installed no record accepts. *)
  mutable membership : Member.record;
  (* Sharding: when set, every representative call is additionally stamped
     with the router's shard-map epoch, quorum failures name the shard, and
     the cache epoch folds the shard epoch in. [None] is the seed (and
     single-group) behaviour, byte-identical. *)
  shard : shard_info option;
  picker : Picker.strategy;
  transport : Transport.t;
  txns : Txn.Manager.t;
  rng : Rng.t;
  touched : (Txn.id, session) Hashtbl.t;
  coordinator : Coordinator.t;
  batch_depth : int;
  batching : bool;
  timers : Rep.timers option;
  (* Deferred termination notices, per representative, oldest first. They
     piggyback on any message to that representative sent at the decision
     instant (see [exec]); a flush at that instant carries the rest, and the
     representatives' lease/termination protocol is the backstop if even
     that is lost. *)
  pending : (int, Rep.notice list ref) Hashtbl.t;
  mutable flush_armed : bool;
  recorder : Repdir_audit.History.recorder option;
  (* Deadline propagation: each operation's budget in time units, converted
     to an absolute deadline when the operation starts and stamped on every
     RPC it issues (refused server-side by [Rep.execute]). Armed by the
     [Healthy] picker; None = no stamping, the seed behaviour. Needs
     [timers]. *)
  op_deadline : float option;
  (* Version-validated client cache (a weak representative). When set, a
     read of a cached line sends the line's tag with the lookup and only
     members newer than the line answer with a payload; a write's
     version-only read collects tags. [None] is the seed read path,
     byte-identical. *)
  cache : Cache.t option;
  (* Cache stores staged per transaction and applied only at commit: a line
     learned from a transaction's own uncommitted write must die with an
     abort, or its (aborted) version number could later collide with a
     committed write of the same version and serve the wrong payload. Each
     staged update carries the suite epoch at stage time: a line proven
     current against old-view quorums must not be installed as if learned
     under a view adopted between the operation and the commit. *)
  pending_cache : (Txn.id, (int * cache_update) list ref) Hashtbl.t;
  (* A Lamport clock over versions: the highest version this suite has read
     or written. A one-round write proposes the version after it, or the
     current time in ticks if that is higher ([proposal]). *)
  mutable clock : Version.t;
}

and cache_update =
  | C_store of Bound.t * Cache.line
  | C_invalidate_range of Bound.t * Bound.t

(* How long the flush waits before redelivering notices whose delivery
   failed, and the per-operation deadline budget the [Healthy] picker
   arms. *)
let notice_retry = 5.0
let op_budget = 30.0

(* Versions per unit of [timers] time in a one-round write's proposal. *)
let ticks_per_unit = 1024.0

let create ?(picker = Picker.Random) ?(seed = 1L) ?(two_phase = true)
    ?coordinator ?(batch_depth = 1) ?(batching = false) ?timers ?recorder ?shard
    ?cache ~config ~transport ~txns () =
  let n = transport.Transport.n_reps in
  if Config.n_reps config <> n then
    invalid_arg "Suite.create: config and transport disagree on representative count";
  if batch_depth < 1 then invalid_arg "Suite.create: batch_depth must be at least 1";
  if not two_phase then
    invalid_arg "Suite.create: ~two_phase:false is not supported; every suite commits by 2PC";
  let coordinator =
    match coordinator with Some c -> c | None -> Coordinator.create ()
  in
  {
    membership = Member.initial ~config ~roster:(Array.make n Member.Active);
    shard;
    picker;
    transport;
    txns;
    rng = Rng.create seed;
    touched = Hashtbl.create 16;
    coordinator;
    batch_depth;
    batching;
    timers;
    pending = Hashtbl.create 8;
    flush_armed = false;
    recorder;
    op_deadline = (match picker with Picker.Healthy _ -> Some op_budget | _ -> None);
    cache;
    pending_cache = Hashtbl.create 8;
    clock = Version.lowest;
  }

(* What failure messages append so sharded campaign errors name the range
   and group that failed; empty (message-identical to the seed) when the
   suite is unsharded. *)
let shard_suffix t =
  match t.shard with None -> "" | Some si -> " at " ^ si.shard_label ()

(* A membership change invalidates the whole cache: version tags prove a
   line current only against quorums of the view that produced it, so lines
   learned under an older epoch must not survive into the new one. The same
   argument applies to a shard-map change — a migrated range's lines were
   proven current against the *old owning group's* quorums — so the cache
   epoch folds both counters together: either advancing flushes every line.
   Membership epochs stay far below the shift in practice (each
   reconfiguration adds 2). *)
let cache_epoch t =
  let shard_epoch = match t.shard with None -> 0 | Some si -> si.shard_epoch () in
  Member.epoch_of t.membership lor (shard_epoch lsl 20)

(* Also the router's eager-flush hook when it adopts a newer shard map:
   [find] and [store] would flush lazily anyway (they compare the line
   epoch), but a migrated range must never even *hold* lines cached under
   the old owning group once the router knows about the move. *)
let sync_cache_epoch t =
  match t.cache with
  | None -> ()
  | Some c -> Cache.sync_epoch c ~epoch:(cache_epoch t)

let set_membership t m =
  if Config.n_reps (Member.current m).Member.config <> t.transport.Transport.n_reps then
    invalid_arg "Suite.set_membership: record and transport disagree on slot count";
  t.membership <- m;
  sync_cache_epoch t

(* Adopt the configuration a fencing representative handed back — but only
   forward: a delayed rejection must never roll the suite's view back. *)
let adopt t record =
  match Member.decode record with
  | Ok m when Member.epoch_of m > Member.epoch_of t.membership ->
      t.membership <- m;
      sync_cache_epoch t
  | Ok _ | Error _ -> ()

let transport t = t.transport
let coordinator t = t.coordinator
let txns t = t.txns
let observe t v = t.clock <- Version.max t.clock v

(* A one-round write's version, from a hybrid logical clock (Kulkarni et
   al., "Logical Physical Clocks", 2014): the version after [clock], but
   never behind the current time in ticks, so a client that has not read a
   key lately still proposes above the versions other clients wrote before
   now. Without timers, the version after [clock]. *)
let proposal t =
  let next = Version.next t.clock in
  match t.timers with
  | None -> next
  | Some timers -> Version.max next (int_of_float (timers.Rep.now () *. ticks_per_unit))

(* --- staged cache updates ------------------------------------------------------ *)

let cache_stage t txn upd =
  match t.cache with
  | None -> ()
  | Some _ ->
      let l =
        match Hashtbl.find_opt t.pending_cache txn with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.replace t.pending_cache txn l;
            l
      in
      l := (cache_epoch t, upd) :: !l

(* Apply a committed transaction's staged lines, in operation order. Every
   line describes committed state as of this transaction's serialization
   point: reads were validated (or fetched) under quorum read locks, writes
   are the transaction's own now-committed effects. Stores are applied only
   if the suite still runs the epoch they were staged under — a membership
   adopted mid-transaction (set_membership / adopt) must not inherit lines
   proven current only against the old view's quorums, or they would
   survive the flush sync_epoch guarantees. Invalidations are conservative
   and always safe to apply. *)
let cache_apply t txn =
  match t.cache with
  | None -> ()
  | Some c -> (
      match Hashtbl.find_opt t.pending_cache txn with
      | None -> ()
      | Some l ->
          Hashtbl.remove t.pending_cache txn;
          let now = cache_epoch t in
          List.iter
            (fun (staged_epoch, upd) ->
              match upd with
              | C_store (b, line) ->
                  if staged_epoch = now then Cache.store c ~epoch:now b line
              | C_invalidate_range (lo, hi) -> Cache.invalidate_range c ~lo ~hi)
            (List.rev !l))

let cache_drop t txn = Hashtbl.remove t.pending_cache txn

(* --- deferred termination notices --------------------------------------------- *)

let enqueue_notice t i n =
  let l =
    match Hashtbl.find_opt t.pending i with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace t.pending i l;
        l
  in
  l := !l @ [ n ]

let take_notices t i =
  match Hashtbl.find_opt t.pending i with
  | Some l when !l <> [] ->
      let ns = !l in
      l := [];
      ns
  | _ -> []

let requeue_notices t i ns =
  if ns <> [] then
    match Hashtbl.find_opt t.pending i with
    | Some l -> l := ns @ !l
    | None -> Hashtbl.replace t.pending i (ref ns)

let pending_notice_count t =
  Hashtbl.fold (fun _ l acc -> acc + List.length !l) t.pending 0

(* --- wire-byte accounting ------------------------------------------------------ *)

(* A fixed serialization model charging [Transport.bytes_count] with the
   estimated request and reply bytes of every message the suite puts on the
   wire. The absolute numbers are a model (nothing here really serializes);
   what matters is that the model is applied identically with and without
   the client cache, so the bytes/op delta is what the cache path changes.
   That is more than the cache itself: a batched read with a cache attached
   asks one quorum member for the payload, hit or miss, while the others
   send version tags; a conditional lookup carries the line's tag and is
   answered by a one-byte verdict unless the member is newer; and a write's
   version-only read is answered by tags. *)
module Wire = struct
  let header = 16 (* per-message envelope: src/dst/txn/request id *)
  let ver = 8
  let tag = ver + 1 (* version + presence discriminant *)
  let bound = function
    | Bound.Key k -> String.length k + 2
    | Bound.Low | Bound.High -> 1

  let value v = String.length v + 4

  let lookup_r = function
    | Gi.Present { value = v; _ } -> 1 + ver + value v
    | Gi.Absent _ -> 1 + ver

  let neighbor (n : Gi.neighbor) = bound n.Gi.key + ver + ver

  let op = function
    | Rep.B_lookup b | Rep.B_validate b -> 1 + bound b
    | Rep.B_lookup_unless (b, _) -> 1 + bound b + tag
    | Rep.B_walk (_, b, depth) -> 1 + bound b + if depth > 1 then 4 else 0
    | Rep.B_insert (k, _, v) | Rep.B_insert_if_absent (k, _, v) ->
        1 + bound (Bound.Key k) + ver + value v
    | Rep.B_coalesce (lo, hi, _) -> 1 + bound lo + bound hi + ver
    | Rep.B_write_unless (k, _, v, _, _) -> 1 + bound (Bound.Key k) + ver + value v + 1 + 4
    | Rep.B_prepare _ -> 1 + 4
    | Rep.B_finish_readonly -> 1

  let result = function
    | Rep.R_lookup l -> lookup_r l
    | Rep.R_tag _ -> tag
    | Rep.R_walk ns -> List.fold_left (fun a (n, v) -> a + neighbor n + value v) 0 ns
    | Rep.R_write _ -> tag + 1
    | Rep.R_current | Rep.R_older | Rep.R_unit | Rep.R_inserted _ | Rep.R_finished _ -> 1
    | Rep.R_removed _ -> 4

  let msg body = header + body
  let ops l = List.fold_left (fun a o -> a + op o) 0 l
  let results l = List.fold_left (fun a r -> a + result r) 0 l

  (* Termination and notice traffic: a txn id plus a discriminant. *)
  let control = 9
end

let acct t n = Transport.add_bytes t.transport n

(* A termination-round message ([Transport.send]) and its short ack. *)
let acct_send t body = acct t (Wire.msg body + Wire.msg 1)

(* Deliver every queued notice in a dedicated message per representative,
   all in one fan-out, so no member's notices wait for another member's
   reply or timeouts. Failures re-queue: notices are idempotent (duplicate
   commit/abort delivery is a no-op) and the termination protocol settles
   any transaction whose notice never lands. *)
let flush_notices t =
  List.init t.transport.Transport.n_reps (fun i -> (i, take_notices t i))
  |> List.filter (fun (_, ns) -> ns <> [])
  |> Array.of_list
  |> t.transport.Transport.fanout.Transport.map (fun (i, ns) ->
         acct_send t (Wire.control * List.length ns);
         match Transport.send t.transport i (fun rep -> Rep.deliver_notices rep ns) with
         | Ok () -> ()
         | Error _ | (exception _) -> requeue_notices t i ns)
  |> ignore

(* Schedule a flush [delay] from now unless one is already armed, so the
   commits of one instant share one flush. A failed delivery re-queues, and
   the timer stays alive until the queues drain, retrying [notice_retry]
   later rather than at the same instant. *)
let rec arm_flush t delay =
  match t.timers with
  | Some timers when not t.flush_armed ->
      t.flush_armed <- true;
      timers.Rep.after delay (fun () ->
          t.flush_armed <- false;
          flush_notices t;
          if pending_notice_count t > 0 then arm_flush t notice_retry)
  | _ -> ()

(* The fire-and-forget termination messages: one [Rep] call per
   representative, charged as a termination-round send. Neither a lost
   message nor a [Txn.Abort] reply needs anything further. An abort or a
   commit for a prepared participant that never lands is settled by the
   participant's own termination protocol, which queries this client's
   decision log (a crashed participant re-locks our effects on recovery and
   asks the same). A prepared participant cannot refuse at all unless we
   decided so, and the case is kept total only for duplicate-delivery
   races. *)
let send_each t reps call =
  Int_set.iter
    (fun i ->
      acct_send t Wire.control;
      match Transport.send t.transport i call with
      | Ok () | Error _ | (exception Txn.Abort _) -> ())
    reps

type delete_report = {
  was_present : bool;
  removed_per_rep : (int * int) array;
  repair_inserts : int;
  ghosts_deleted : int;
  pred : Bound.t;
  succ : Bound.t;
}

(* --- per-operation context --------------------------------------------------- *)

(* An operation context carries the transaction and the set of
   representatives found unreachable during this operation; those are
   excluded from quorum re-selection when the operation body is re-run, in
   this transaction or a new one. [final] marks a single-operation implicit
   transaction: the operation's last round is the transaction's last round,
   so the batched suite may piggyback the two-phase-commit prepare (or a
   read-only finish) on it, or write in one round. [abandoned] marks an
   attempt whose transaction is already being aborted: the body re-runs in a
   new one. *)
type ctx = {
  txn : Txn.id;
  excluded : Int_set.t ref;
  suite : t;
  final : bool;
  mutable abandoned : bool;
  (* Absolute deadline for this operation (client clock), stamped on every
     RPC and checked before each body re-run. None = no deadline. *)
  deadline : float option;
  (* The recorder's clock when this attempt was invoked (0 without one). *)
  invoked : float;
}

(* The attached recorder (if any) sees every single-key operation with its
   observed result, stamped at the invocation of the attempt that produced
   it. The invocation precedes every lock the operation takes, and the
   transaction's finish follows every reply it read — a batched finishing
   lookup releases its read locks in the same round, and an errored
   implicit write releases them after the finish — so the [invocation,
   transaction-finish] interval always contains a valid serialization point
   and the checker's real-time precedence stays sound. *)
let record_prim ctx prim =
  match ctx.suite.recorder with
  | None -> ()
  | Some r -> History.record r ~txn:ctx.txn ~at:ctx.invoked prim

let fanout ctx f arr = ctx.suite.transport.Transport.fanout.Transport.map f arr

let restarted i =
  Unavailable (Printf.sprintf "representative %d restarted mid-transaction" i)

let session_of ctx =
  let t = ctx.suite in
  match Hashtbl.find_opt t.touched ctx.txn with
  | Some s -> s
  | None ->
      let s =
        {
          reps = Int_set.empty;
          prepared = Int_set.empty;
          finished = Int_set.empty;
          written = Int_set.empty;
          incarnations = Hashtbl.create 8;
          reads = [];
          deferred = None;
        }
      in
      Hashtbl.replace t.touched ctx.txn s;
      s

(* Whether an op changes the representative's state: a member sent one
   holds writes (or may, after an ambiguous failure), so only a prepare can
   end the transaction there. *)
let writes = function
  | Rep.B_insert _ | Rep.B_insert_if_absent _ | Rep.B_coalesce _ | Rep.B_write_unless _ -> true
  | Rep.B_lookup _ | Rep.B_validate _ | Rep.B_lookup_unless _ | Rep.B_walk _ | Rep.B_prepare _
  | Rep.B_finish_readonly ->
      false

(* One message, many representative ops (the §4 observation that calls
   "batch into few messages"). This is the only way the suite reaches a
   representative with operation work: the unbatched suite sends one op per
   message, which the byte model charges exactly like a direct call. The
   envelope carries the suite's current stamps, which the representative
   checks before any op runs ({!Rep.execute}): the operation's absolute
   deadline (the budget decrements across hops for free, because the deadline
   is absolute while time keeps advancing), the router's shard-map epoch
   (unsharded suites stamp none) and the membership epoch. The termination
   rounds (prepare, commit, abort, outcome queries) use [Transport.send]
   directly and are deliberately unstamped: a prepared transaction must be
   able to settle across a configuration change, however late. *)
let exec ctx i ops =
  let t = ctx.suite in
  acct t (Wire.msg (Wire.ops ops));
  let s = session_of ctx in
  s.reps <- Int_set.add i s.reps;
  if List.exists writes ops then s.written <- Int_set.add i s.written;
  let seen = t.transport.Transport.incarnation i in
  (match Hashtbl.find_opt s.incarnations i with
  | None -> Hashtbl.replace s.incarnations i seen
  | Some first when first <> seen -> raise (restarted i)
  | Some _ -> ());
  let check_same_incarnation () =
    match Hashtbl.find_opt s.incarnations i with
    | Some first when t.transport.Transport.incarnation i <> first -> raise (restarted i)
    | _ -> ()
  in
  (* Any deferred termination notices for this representative ride on the
     message we are sending anyway (commit pipelining). A transport failure
     re-queues them — delivery is idempotent, so over-delivering on an
     ambiguous failure is safe. *)
  let env =
    {
      Rep.notices = take_notices t i;
      deadline = ctx.deadline;
      shard_epoch = Option.map (fun si -> si.shard_epoch ()) t.shard;
      member_epoch = Member.epoch_of t.membership;
    }
  in
  match Transport.call_exn t.transport i (fun rep -> Rep.execute rep env ~txn:ctx.txn ops) with
  | rs ->
      (* The participant may have restarted while the call was in flight: an
         at-most-once retransmission then re-executed against an amnesiac
         incarnation that knows nothing of the transaction's earlier ops. *)
      check_same_incarnation ();
      acct t (Wire.msg (Wire.results rs));
      rs
  | exception (Transport.Rpc_failed _ as e) ->
      requeue_notices t i env.notices;
      check_same_incarnation ();
      raise e
  | exception e ->
      (* Same window: a re-execution against post-recovery state can fail in
         arbitrary ways (missing endpoints, spurious lock conflicts). The
         restart, not the symptom, is the real error. *)
      check_same_incarnation ();
      raise e

let exec1 ctx i op = match exec ctx i [ op ] with [ r ] -> r | _ -> assert false
let lookup_of = function Rep.R_lookup l -> l | _ -> assert false

let walk_of = function Rep.R_walk ns -> ns | _ -> assert false

let mark_prepared ctx i =
  let s = session_of ctx in
  s.prepared <- Int_set.add i s.prepared

let available ctx i =
  ctx.suite.transport.Transport.is_up i && not (Int_set.mem i !(ctx.excluded))

(* Which view failed, for debuggable nemesis logs during a transition: a
   joint record has two views, and "cannot collect a write quorum" alone
   does not say whether the old or the new epoch is starved. [k] indexes
   the targets [collect_quorum] asked for: the read targets, then the write
   targets, one per view. *)
let quorum_failure t kind k =
  let views = Member.views t.membership in
  let n = List.length views in
  let read = match kind with `Read -> true | `Write -> false | `Both -> k < n in
  let v = List.nth views (k mod n) in
  Unavailable
    (Format.asprintf "cannot collect a %s quorum in epoch %d (%a)%s"
       (if read then "read" else "write")
       v.Member.epoch Member.pp_view v (shard_suffix t))

(* One quorum target per governing view, so quorums on either side of a
   transition intersect; [`Both] asks for one set that is a read quorum and
   a write quorum at once. Batched writes prefer members the transaction
   already touched: the piggybacked prepare then covers the whole
   participant set and the read-only members need no termination round of
   their own. A batched round that decides a write or fetches a payload
   names its key and goes to the key's home quorum (DESIGN.md, "Home
   quorums"); the unbatched paper path keeps the uniform draw. *)
let collect_quorum ?key ctx kind =
  let t = ctx.suite in
  let targets read = Member.targets t.membership ~read in
  let prefer =
    match Hashtbl.find_opt t.touched ctx.txn with
    | Some s when t.batching && kind = `Write -> fun i -> Int_set.mem i s.reps
    | Some _ | None -> fun _ -> false
  in
  match
    Picker.collect_joint ~prefer ?key:(if t.batching then key else None) t.picker t.rng
      (match kind with
      | `Read -> targets true
      | `Write -> targets false
      | `Both -> targets true @ targets false)
      ~available:(available ctx)
  with
  | Ok q -> q
  | Error k -> raise (quorum_failure t kind k)

let collect_read_quorum ?key ctx = collect_quorum ?key ctx `Read
let collect_write_quorum ?key ctx = collect_quorum ?key ctx `Write
let key_of = function Bound.Key k -> Some k | Bound.Low | Bound.High -> None

(* --- DirSuiteLookup (Figure 8) ------------------------------------------------ *)

(* One read round: [op i] to every member [i] of the read quorum, one
   message each, answered in quorum order. With [finish] — a batched
   single-operation transaction's last round — the read-only release rides
   in the same message, and the session's finished set follows each reply: a
   member that grants it ([R_finished true]) is done with the transaction, a
   refusal leaves it to the normal termination round (even if an earlier
   round of this transaction had released it). *)
let read_round ctx ~finish quorum op =
  if finish then
    fanout ctx
      (fun i ->
        match exec ctx i [ op i; Rep.B_finish_readonly ] with
        | [ r; Rep.R_finished fin ] ->
            let s = session_of ctx in
            s.finished <- (if fin then Int_set.add else Int_set.remove) i s.finished;
            r
        | _ -> assert false)
      quorum
  else fanout ctx (fun i -> exec1 ctx i (op i)) quorum

let reading_of = function
  | Gi.Present { version; value } -> (true, version, value)
  | Gi.Absent { gap_version } -> (false, gap_version, "")

let is_present = function Gi.Present _ -> true | Gi.Absent _ -> false

(* Believe the highest version number — the first such reply in quorum
   order. A reading is (present, version, value); the version of an absent
   key is its gap's. *)
let best_reading lookups =
  List.fold_left
    (fun ((_, bestv, _) as best) l ->
      let ((_, v, _) as candidate) = reading_of l in
      if v > bestv then candidate else best)
    (false, Version.lowest - 1, "")
    lookups

(* Send DirRepLookup to a read quorum. Works over bounds so the
   real-predecessor walk can look up LOW/HIGH, which every representative
   reports present at the lowest version. *)
let payload_read ctx ~finish bound =
  let quorum = collect_read_quorum ?key:(key_of bound) ctx in
  read_round ctx ~finish quorum (fun _ -> Rep.B_lookup bound)
  |> Array.to_list |> List.map lookup_of |> best_reading

let stage_reading ctx bound ((isin, version, value) as r) =
  let line = if isin then Cache.Entry { version; value } else Cache.Gap { version } in
  cache_stage ctx.suite ctx.txn (C_store (bound, line));
  r

let reading_of_tag = function
  | Rep.Tag_entry version -> Gi.Present { version; value = "" }
  | Rep.Tag_gap gap_version -> Gi.Absent { gap_version }

let version_of l =
  let _, v, _ = reading_of l in
  v

(* Version-validated quorum read (Gifford's weak-representative validation;
   Cassandra's digest reads): one round to a read quorum, the key's home
   quorum on a miss and a random one for a cached line, in which one member
   sends the value and the others their version tags, under the same point
   lock. The payload member, the quorum member first in the key's rendezvous
   order, is sent [B_lookup] on a miss, or for a cached line the conditional
   [B_lookup_unless] (HTTP's If-None-Match): [R_current] when it holds
   exactly the line, [R_older] when its version is lower, its payload only
   when newer. Every other member is sent [B_validate]. A reading stands for
   a payload the client holds when it is the payload member's, the line
   itself ([R_current] or the line's tag) or a gap (absence has no payload).
   Readings older than the line drop out, and the rest fold by the payload
   fold's tie-break, payload member first: the first maximal reading is the
   answer a payload round would give. So a hit and a mismatch alike are one
   round. A payload round decides when nothing survives (the line outlived
   its write, whose commit reached no representative that still has it) or
   when the winner is an entry known only by its tag: the payload member
   missed the key's last write (a failover), or under [finish] it answered
   and released before a concurrent write reached it while a tag member
   answered after that write committed. Under [finish] the payload round's
   locks define the serialization point (sound: a single-operation
   transaction has no earlier reads to stay consistent with). The unbatched
   suite makes every member a payload member, so every reading carries or
   stands for its payload. *)
let validated_read ctx c ~finish bound =
  let t = ctx.suite in
  let cached =
    Option.map
      (function
        | Cache.Entry { version; value } -> (Gi.Present { version; value }, Rep.Tag_entry version)
        | Cache.Gap { version } -> (Gi.Absent { gap_version = version }, Rep.Tag_gap version))
      (Cache.find c ~epoch:(cache_epoch t) bound)
  in
  if cached = None then Cache.note c `Miss;
  let quorum = collect_read_quorum ?key:(if cached = None then key_of bound else None) ctx in
  let payload =
    match key_of bound with
    | Some key when t.batching ->
        let config = (Member.current t.membership).Member.config in
        ( = ) (List.find (fun i -> Array.mem i quorum) (Picker.home_order key config))
    | Some _ | None -> fun _ -> true
  in
  let replies =
    read_round ctx ~finish quorum (fun i ->
        match cached with
        | _ when not (payload i) -> Rep.B_validate bound
        | None -> Rep.B_lookup bound
        | Some (_, tag) -> Rep.B_lookup_unless (bound, tag))
  in
  (* A surviving reading, and whether the client holds its payload. *)
  let reading = function
    | Rep.R_lookup l -> Some (l, true)
    | Rep.R_older -> None
    | Rep.R_current -> Option.map (fun (line, _) -> (line, true)) cached
    | Rep.R_tag tag -> (
        let l = reading_of_tag tag in
        match cached with
        | Some (line, line_tag) when tag = line_tag -> Some (line, true)
        | Some (line, _) when version_of l < version_of line -> None
        | Some _ | None -> Some (l, not (is_present l)))
    | _ -> assert false
  in
  let mine, others =
    List.partition (fun (i, _) -> payload i) (Array.to_list (Array.combine quorum replies))
  in
  let best =
    List.fold_left
      (fun best (_, r) ->
        match (reading r, best) with
        | Some (l, _), Some (b, _) when version_of l <= version_of b -> best
        | Some reading, _ -> Some reading
        | None, _ -> best)
      None (mine @ others)
  in
  let answer () =
    match best with
    | Some (l, true) -> reading_of l
    | Some (_, false) | None -> payload_read ctx ~finish bound
  in
  match (cached, best) with
  | None, _ -> stage_reading ctx bound (answer ())
  | Some (line, _), Some (l, true) when l = line ->
      Cache.note c `Hit;
      reading_of l
  | Some _, _ ->
      Cache.note c `Mismatch;
      stage_reading ctx bound (answer ())

let read ctx ~finish bound =
  let ((_, v, _) as r) =
    match ctx.suite.cache with
    | None -> payload_read ctx ~finish bound
    | Some c -> validated_read ctx c ~finish bound
  in
  observe ctx.suite v;
  r

let tag_reading = function Rep.R_tag tag -> reading_of_tag tag | _ -> assert false

(* Presence and version of a key, for callers that never use its value
   (a write's decision, the unbatched delete's victim). With a cache
   attached this is a tag-only round; the uncached suite keeps the paper's
   DirRepLookup. The winning tag is the payload fold's: the first maximal
   one in quorum order. A key the transaction already read, wrote or
   deleted is answered from its session, with no round. *)
let version_read ctx bound =
  let s = session_of ctx in
  match List.assoc_opt bound s.reads with
  | Some r -> r
  | None ->
      let isin, v, _ =
        match ctx.suite.cache with
        | None -> payload_read ctx ~finish:false bound
        | Some _ ->
            let quorum = collect_read_quorum ?key:(key_of bound) ctx in
            read_round ctx ~finish:false quorum (fun _ -> Rep.B_validate bound)
            |> Array.to_list |> List.map tag_reading |> best_reading
      in
      observe ctx.suite v;
      s.reads <- (bound, (isin, v)) :: s.reads;
      (isin, v)

(* --- RealPredecessor / RealSuccessor (Figure 12) ------------------------------- *)

type dir = Rep.direction = Down | Up

let beyond dir b k =
  let c = Bound.compare b k in
  match dir with Down -> c < 0 | Up -> c > 0

let nearest = function Down -> Bound.max | Up -> Bound.min
let far_end = function Down -> Bound.Low | Up -> Bound.High

(* Walk from [start] through candidate neighbours, skipping ghosts, until a
   key current in the suite is found. Returns the neighbour, its value and
   version, and the largest gap version seen along the walk — which
   dominates every version ever associated with any key in the range,
   because each step consults a full read quorum.

   Each quorum member keeps a cursor: the chain of successive neighbours it
   last sent. At depth 1 (Figure 12 exactly) every member is re-probed at
   every step. At depth > 1 (§4 batching) a member is probed again only when
   its chain has run out: a chain anchored at k0 lists *consecutive* entries
   of that member, so for any later probe k between the anchor and the
   chain's end, the first chain element beyond k is exactly that member's
   neighbour of k, and the element's gap version is the gap between them. *)
let real_neighbor ctx dir start =
  let depth = ctx.suite.batch_depth in
  let cursors = Array.map (fun i -> (i, ref [])) (collect_read_quorum ctx) in
  let maxv = ref Version.lowest in
  let next_of k chain = List.find_opt (fun (n : Gi.neighbor) -> beyond dir n.Gi.key k) chain in
  let rec step k =
    let stale =
      Array.of_list
        (List.filter
           (fun (_, chain) -> depth = 1 || next_of k !chain = None)
           (Array.to_list cursors))
    in
    fanout ctx (fun (i, _) -> List.map fst (walk_of (exec1 ctx i (Rep.B_walk (dir, k, depth)))))
      stale
    |> Array.iter2 (fun (_, chain) fresh -> chain := fresh) stale;
    let candidate =
      Array.fold_left
        (fun acc (_, chain) ->
          let n = Option.get (next_of k !chain) in
          maxv := Version.max n.Gi.gap_version !maxv;
          nearest dir n.Gi.key acc)
        (far_end dir) cursors
    in
    let isin, ver, value = read ctx ~finish:false candidate in
    if isin then (candidate, value, ver, !maxv) else step candidate
  in
  step start

(* --- operation bodies ----------------------------------------------------------- *)

let do_lookup ctx key =
  let isin, v, value = read ctx ~finish:(ctx.suite.batching && ctx.final) (Bound.Key key) in
  if isin then Some (v, value) else None

(* The last work round of an operation, to a fresh write quorum. For a
   batched single-operation transaction, or a deferred write sent with the
   prepare, it carries the prepare as well (last-round optimization), so the
   explicit prepare round disappears; a piggybacked vote that fails raises
   out of the batch and aborts the transaction, exactly as a failed
   explicit prepare would. [ops_for i] are member i's ops, and [f] sees
   each member's results. *)
let write_round ?key ctx ops_for f =
  let t = ctx.suite in
  let quorum = collect_write_quorum ?key ctx in
  let piggyback = t.batching && ctx.final in
  let prepare = if piggyback then [ Rep.B_prepare (Coordinator.id t.coordinator) ] else [] in
  fanout ctx
    (fun i ->
      let rs = exec ctx i (ops_for i @ prepare) in
      if piggyback then mark_prepared ctx i;
      f i rs)
    quorum

(* Figure 9's write round: the decided version to a write quorum. *)
let send_write ctx (key, ver, value) =
  ignore (write_round ~key ctx (fun _ -> [ Rep.B_insert (key, ver, value) ]) (fun _ _ -> ()))

(* Send the transaction's deferred write, if any: before its next operation
   on the suite, or, with [ctx.final], fused with the vote. *)
let send_deferred ctx =
  match Hashtbl.find_opt ctx.suite.touched ctx.txn with
  | Some ({ deferred = Some w; _ } as s) ->
      send_write ctx w;
      s.deferred <- None
  | Some _ | None -> ()

(* Raised by an operation body whose attempt has been abandoned
   ({!abandon}): the operation runs again in a new implicit transaction. *)
exception Restart

(* Abort this attempt's transaction at every participant it has not
   released, without the client waiting for the aborts (a background
   process, or inline without a clock), and mark the attempt abandoned: its
   tentative writes may still stand at members, so nothing may run again in
   its transaction. The commit finds nobody left to terminate. *)
let abandon ctx =
  let t = ctx.suite and txn = ctx.txn in
  let s = session_of ctx in
  let members = participants s in
  s.finished <- Int_set.union s.finished members;
  ctx.abandoned <- true;
  if not (Int_set.is_empty members) then
    let send () = send_each t members (fun rep -> Rep.abort rep ~txn) in
    match t.timers with Some timers -> timers.Rep.after 0.0 send | None -> send ()

let write_error ~must_exist = if must_exist then `Not_present else `Already_present

(* A batched implicit insert or update in one round (DESIGN.md, "One-round
   writes"): one [B_write_unless] at the suite's [proposal], to a set Q that
   is a read quorum and a write quorum at once. A member writes and votes
   only below the proposal (and, on the first attempt, with the presence
   the operation expects), else releases the transaction in-round; the
   tags then decide as a version read would. If every member wrote, the
   proposal exceeds every version a read quorum holds and a write quorum
   has voted for it, so the commit needs no further round. An error needs
   none either: only a stale member can have written, and it is aborted
   without waiting.

   On the first attempt a member that refused on presence alone (its tag
   below the proposal) is stale: it missed the key's last insert or delete.
   Each such member gets one more [B_write_unless] with no presence
   expected, in one fan-out, and the write commits only if every one of
   them writes and reports its round-1 tag again. The writers have held
   RepModify(key) since round 1 and a member's version of a key only rises
   with a committed change, so Q then held exactly what round 1 read at an
   instant when the transaction locks the key at every member of Q: a
   serialization point inside the operation. Any other refusal abandons
   the attempt and restarts the operation, its clock now above every tag
   seen and with no presence expected; a second refusal takes the
   two-round path. A failed round abandons its attempt too, so no re-run
   reads its own tentative write. *)
let write_one_round ctx refusals key value ~must_exist =
  let t = ctx.suite in
  let s = session_of ctx in
  let proposed = proposal t in
  let first = !refusals = 0 in
  (* One fan-out to [members], answered (member, tag before, wrote). A
     member sent a write is a participant until it refuses. *)
  let round members expect =
    let op = Rep.B_write_unless (key, proposed, value, expect, Coordinator.id t.coordinator) in
    s.finished <- Int_set.diff s.finished (Int_set.of_list (Array.to_list members));
    let replies =
      fanout ctx (fun i -> (i, match exec1 ctx i op with r -> Ok r | exception e -> Error e)) members
    in
    Array.iter
      (function
        | i, Ok (Rep.R_write (_, true)) -> mark_prepared ctx i
        | i, Ok _ -> s.finished <- Int_set.add i s.finished
        | _, Error _ -> ())
      replies;
    Option.iter
      (fun e ->
        abandon ctx;
        raise e)
      (Array.find_map (function _, Error e -> Some e | _, Ok _ -> None) replies);
    Array.to_list replies
    |> List.map (function i, Ok (Rep.R_write (tag, wrote)) -> (i, tag, wrote) | _ -> assert false)
  in
  let writes = round (collect_quorum ~key ctx `Both) (if first then Some must_exist else None) in
  let isin, best, _ = best_reading (List.map (fun (_, tag, _) -> reading_of_tag tag) writes) in
  observe t best;
  let stale = List.filter (fun (_, _, wrote) -> not wrote) writes in
  let tag_version (Rep.Tag_entry v | Rep.Tag_gap v) = v in
  let repaired () =
    first
    && List.for_all (fun (_, tag, _) -> tag_version tag < proposed) stale
    &&
    let again = round (Array.of_list (List.map (fun (i, _, _) -> i) stale)) None in
    List.iter (fun (_, tag, _) -> observe t (tag_version tag)) again;
    List.for_all2 (fun (_, tag, _) (_, tag', wrote) -> wrote && tag = tag') stale again
  in
  if isin <> must_exist then begin
    abandon ctx;
    Error (write_error ~must_exist)
  end
  else if stale = [] || repaired () then begin
    observe t proposed;
    cache_stage t ctx.txn (C_store (Bound.Key key, Cache.Entry { version = proposed; value }));
    Ok ()
  end
  else begin
    abandon ctx;
    incr refusals;
    raise Restart
  end

(* DirSuiteInsert / DirSuiteUpdate (Figure 9): a version read, then the
   write round. Inside a batched explicit transaction the write round is
   deferred ([send_deferred]): the version read's locks keep the decision
   valid until it leaves.

   [memo] carries the decision across re-runs of the operation body after a
   transport failure: without it, the re-run's lookup would observe the
   operation's *own* uncommitted write and misreport [`Already_present`]
   (and escalate the version). The memoized version also keeps the re-run's
   representative writes literally identical, i.e. idempotent. *)
let write_two_rounds ctx memo key value ~must_exist =
  let decide () =
    match !memo with
    | Some d -> d
    | None ->
        let isin, ver = version_read ctx (Bound.Key key) in
        let d =
          if isin <> must_exist then Error (write_error ~must_exist) else Ok (Version.next ver)
        in
        memo := Some d;
        d
  in
  match decide () with
  | Error e -> Error e
  | Ok ver' ->
      let s = session_of ctx in
      if ctx.suite.batching && not ctx.final then s.deferred <- Some (key, ver', value)
      else send_write ctx (key, ver', value);
      observe ctx.suite ver';
      s.reads <- (Bound.Key key, (true, ver')) :: List.remove_assoc (Bound.Key key) s.reads;
      cache_stage ctx.suite ctx.txn
        (C_store (Bound.Key key, Cache.Entry { version = ver'; value }));
      Ok ()

let do_write ctx (refusals, memo) key value ~must_exist =
  let t = ctx.suite in
  if t.batching && ctx.final && !refusals < 2 then
    write_one_round ctx refusals key value ~must_exist
  else write_two_rounds ctx memo key value ~must_exist

(* DirSuiteDelete answers whether the victim was present before the
   operation. [memo] keeps the first attempt's answer across body re-runs:
   a re-run after a failed write round would otherwise read the operation's
   own coalesce, already applied at the members that answered. *)
let first_answer memo isin =
  if !memo = None then memo := Some isin;
  Option.get !memo

(* Both deletes end alike. [per_member] holds, for each write-quorum member,
   (representative index, repair copies installed, victim physically
   present, entries its coalesce removed). The coalesce turns the whole open
   interval (pred, succ) into one gap at [Version.next ver]: drop every
   cached line and every session read inside it, and remember the victim's
   new gap version. *)
let delete_report ctx ~x ~isin ~pred ~succ ~ver per_member =
  let t = ctx.suite in
  let s = session_of ctx in
  let inside (b, _) = Bound.compare pred b < 0 && Bound.compare b succ < 0 in
  s.reads <- (x, (false, Version.next ver)) :: List.filter (fun r -> not (inside r)) s.reads;
  observe t (Version.next ver);
  cache_stage t ctx.txn (C_invalidate_range (pred, succ));
  cache_stage t ctx.txn (C_store (x, Cache.Gap { version = Version.next ver }));
  let sum f = Array.fold_left (fun acc m -> acc + f m) 0 per_member in
  {
    was_present = isin;
    removed_per_rep = Array.map (fun (i, _, _, removed) -> (i, removed)) per_member;
    repair_inserts = sum (fun (_, repairs, _, _) -> repairs);
    ghosts_deleted =
      sum (fun (_, _, _, removed) -> removed) - sum (fun (_, _, has_x, _) -> Bool.to_int has_x);
    pred;
    succ;
  }

(* Neighbour walks for the batched delete, resolved from the probe replies.
   Every key has a version at every representative: its entry's, or that of
   the gap holding it. Round 1 sends each read-quorum member both probes of
   [x] and a tag read of [x]. Member m's probe names its nearest entry c_m
   with c_m's version and value and the version of the gap between, and
   locks [x, c_m]. So for the nearest candidate c the replies hold every
   member's version of c under the locks a lookup of c would take: c_m's
   entry version where c_m = c, the gap's elsewhere, and [best_reading] of
   them is what a lookup round of c at this quorum would answer. A ghost
   costs one more round, shared by both sides, re-probing from c only the
   members that returned c: the others' neighbour of c is still c_m, across
   the same gap (the [real_neighbor] cursor rule). Also returned, per
   read-quorum member: whether its final cursor on each side is the
   resolved neighbour, which it then holds under the probe's lock, and
   whether its round-1 tag showed x present. *)
let delete_walk ctx x =
  let quorum = collect_read_quorum ?key:(key_of x) ctx in
  let maxv = ref Version.lowest in
  let probe dir b = Rep.B_walk (dir, b, 1) in
  let entry_of r = List.hd (walk_of r) in
  let first = fanout ctx (fun i -> exec ctx i [ probe Up x; probe Down x; Rep.B_validate x ]) quorum in
  let column j = Array.map (fun rs -> List.nth rs j) first in
  (* Each member's nearest entry, with its value, beyond each side's position. *)
  let ups = Array.map entry_of (column 0) and downs = Array.map entry_of (column 1) in
  let cursors = function Up -> ups | Down -> downs in
  let advance dir =
    let c =
      Array.fold_left (fun acc (n, _) -> nearest dir n.Gi.key acc) (far_end dir) (cursors dir)
    in
    Array.iter (fun (n, _) -> maxv := Version.max n.Gi.gap_version !maxv) (cursors dir);
    let version_of ((n : Gi.neighbor), value) =
      match n.entry_version with
      | Some version when Bound.equal n.key c -> Gi.Present { version; value }
      | Some _ | None -> Gi.Absent { gap_version = n.gap_version }
    in
    match (c, best_reading (List.map version_of (Array.to_list (cursors dir)))) with
    | (Bound.Low | Bound.High), _ -> `Done (c, "", Version.lowest)
    | Bound.Key _, (true, ver, value) -> `Done (c, value, ver)
    | Bound.Key _, (false, _, _) -> `Ghost c
  in
  let past dir side j =
    match side with
    | `Ghost c when Bound.equal (fst (cursors dir).(j)).Gi.key c -> [ (dir, c) ]
    | `Ghost _ | `Done _ -> []
  in
  let again dir = function `Ghost _ -> advance dir | `Done _ as d -> d in
  let rec resolve s p =
    match (s, p) with
    | `Done s, `Done p -> (s, p)
    | _ ->
        List.init (Array.length quorum) (fun j -> (j, past Up s j @ past Down p j))
        |> List.filter (fun (_, steps) -> steps <> [])
        |> Array.of_list
        |> fanout ctx (fun (j, steps) ->
               List.map (fun (dir, c) -> probe dir c) steps
               |> exec ctx quorum.(j)
               |> List.iter2 (fun (dir, _) r -> (cursors dir).(j) <- entry_of r) steps)
        |> ignore;
        resolve (again Up s) (again Down p)
  in
  let s, p = resolve (advance Up) (advance Down) in
  let tags = Array.map tag_reading (column 2) in
  let isin, vx, _ = best_reading (Array.to_list tags) in
  let holds dir (c, _, _) j = Bound.equal (fst (cursors dir).(j)).Gi.key c in
  let shown i =
    Array.find_index (( = ) i) quorum
    |> Option.map (fun j -> (holds Up s j, holds Down p j, is_present tags.(j)))
  in
  (s, p, isin, vx, !maxv, shown)

(* Batched DirSuiteDelete: the walks above computed every input of the final
   round (the neighbours' values came with the probes), so the repair
   copies, the victim-presence tag read, the coalesce, and (for an implicit
   transaction) the prepare collapse into ONE message per write-quorum
   member: two rounds per delete that meets no ghost. A member carries only
   what round 1 did not show: as Figure 13 has it, a copy only of a
   neighbour it lacks, and the tag read of x only outside the read quorum.
   What a read-quorum member showed still holds, under the probe's lock
   over [x, c_m] and the tag read's lock on x, and the coalesce locks
   [pred, succ] anyway. Member-local op order matches the unbatched rounds
   (repairs before coalesce), and members carry no cross-member data
   dependencies, so the interleaving is equivalent. *)
let do_delete_batched ctx memo key =
  let x = Bound.Key key in
  let (succ, svalue, sver), (pred, pvalue, pver), isin, vx, walk_ver, shown = delete_walk ctx x in
  let isin = first_answer memo isin in
  let ver = Version.max walk_ver vx in
  let repair_of held = function
    | Bound.Key k, v, value when not held -> [ Rep.B_insert_if_absent (k, v, value) ]
    | _ -> []
  in
  let ops_for i =
    let holds_succ, holds_pred, validate =
      match shown i with
      | Some (holds_succ, holds_pred, _) -> (holds_succ, holds_pred, [])
      | None -> (false, false, [ Rep.B_validate x ])
    in
    repair_of holds_succ (succ, sver, svalue)
    @ repair_of holds_pred (pred, pver, pvalue)
    @ validate
    @ [ Rep.B_coalesce (pred, succ, Version.next ver) ]
  in
  (* Collected after the walks so the prefer-touched policy can aim the
     write quorum at members the transaction already visited. *)
  let per_member =
    write_round ~key ctx ops_for (fun i rs ->
        let shown_x = match shown i with Some (_, _, has_x) -> has_x | None -> false in
        let repairs, has_x, removed =
          List.fold_left
            (fun (repairs, has_x, removed) r ->
              match r with
              | Rep.R_inserted inserted -> (repairs + Bool.to_int inserted, has_x, removed)
              | Rep.R_tag _ -> (repairs, is_present (tag_reading r), removed)
              | Rep.R_removed n -> (repairs, has_x, n)
              | Rep.R_unit -> (repairs, has_x, removed)
              | _ -> assert false)
            (0, shown_x, 0) rs
        in
        (i, repairs, has_x, removed))
  in
  delete_report ctx ~x ~isin ~pred ~succ ~ver per_member

(* DirSuiteDelete (Figure 13). *)
let do_delete_unbatched ctx memo key =
  let x = Bound.Key key in
  let quorum = collect_write_quorum ctx in
  let succ, svalue, sver, ver1 = real_neighbor ctx Up x in
  let pred, pvalue, pver, ver2 = real_neighbor ctx Down x in
  let isin, vx = version_read ctx x in
  let isin = first_answer memo isin in
  let ver = Version.max (Version.max ver1 ver2) vx in
  let present i b = is_present (lookup_of (exec1 ctx i (Rep.B_lookup b))) in
  (* Make sure the predecessor and successor exist in every quorum member;
     sentinels exist everywhere by construction. *)
  let repair i (b, v, value) =
    match b with
    | Bound.Key k when not (present i b) ->
        ignore (exec1 ctx i (Rep.B_insert (k, v, value)));
        1
    | Bound.Key _ | Bound.Low | Bound.High -> 0
  in
  let checked =
    fanout ctx
      (fun i ->
        let succ_repairs = repair i (succ, sver, svalue) in
        let pred_repairs = repair i (pred, pver, pvalue) in
        (* Not part of Figure 13: observe whether the victim is physically
           present here, to separate ghost deletions in the statistics. *)
        (succ_repairs + pred_repairs, present i x))
      quorum
  in
  (* Coalesce the range in each member with a dominating gap version. *)
  let removed =
    fanout ctx
      (fun i ->
        match exec1 ctx i (Rep.B_coalesce (pred, succ, Version.next ver)) with
        | Rep.R_removed n -> n
        | _ -> assert false)
      quorum
  in
  delete_report ctx ~x ~isin ~pred ~succ ~ver
    (Array.mapi
       (fun j i ->
         let repairs, has_x = checked.(j) in
         (i, repairs, has_x, removed.(j)))
       quorum)

let do_delete ctx memo key =
  if ctx.suite.batching then do_delete_batched ctx memo key
  else do_delete_unbatched ctx memo key

(* --- transaction plumbing --------------------------------------------------------- *)

let abort_touched t txn =
  match Hashtbl.find_opt t.touched txn with
  | None -> ()
  | Some s ->
      send_each t (participants s) (fun rep -> Rep.abort rep ~txn);
      Hashtbl.remove t.touched txn

(* The prepare half of presumed-abort two-phase commit: release read-only
   participants, collect yes votes from the rest, and report whether every
   remaining participant holds a durable vote bound to this client's
   coordinator. Decides nothing — {!commit} owns the decision record, which
   covers the prepare results of every suite the transaction touched. *)
let prepare_round t txn s =
  (* A yes-vote is only valid from the incarnation that executed the
     transaction's operations: a participant that restarted since first
     contact has lost volatile state (and a crash may have destroyed its
     unforced log records), so whatever it would vote is worthless — checked
     both before preparing and after the vote lands, in case the restart
     happens while the prepare call itself is in flight. *)
  let same_incarnation i =
    match Hashtbl.find_opt s.incarnations i with
    | Some first -> t.transport.Transport.incarnation i = first
    | None -> true
  in
  let coord = Coordinator.id t.coordinator in
  (* A deferred write leaves first, each write-quorum member's message
     carrying its vote; any failure of that round is a no vote. *)
  let ctx =
    { txn; excluded = ref Int_set.empty; suite = t; final = true; abandoned = false;
      deadline = None; invoked = 0.0 }
  in
  (match send_deferred ctx with
  | () -> true
  | exception (Transport.Rpc_failed _ | Txn.Abort _ | Rep.Stale_epoch _ | Unavailable _) -> false)
  &&
  (* Members released by a read-only finish are out of the protocol;
     members whose vote was piggybacked on their final work round already
     voted yes (a refused piggybacked vote raised out of the batch and
     aborted the transaction before we got here). *)
  let unprepared = Int_set.diff (participants s) s.prepared in
  (* Batched mode: a participant the transaction only read at can be
     released with a single finish message instead of a prepare+commit
     pair. One it sent a write op would refuse the finish, so it goes
     straight to prepare; so does one that restarted since first contact,
     which knows nothing of the transaction and would grant the finish for
     the writes or read locks it lost — only the incarnation check below
     catches that. For the rest the representative is authoritative — a
     refusal (it holds a binding vote, or lease expiry already aborted the
     transaction there) falls through to the normal prepare below. *)
  let unprepared =
    if not t.batching then unprepared
    else
      Int_set.filter
        (fun i ->
          Int_set.mem i s.written
          || (not (same_incarnation i))
          || begin
               acct_send t Wire.control;
               match Transport.send t.transport i (fun rep -> Rep.finish_readonly rep ~txn) with
               | Ok true ->
                   s.finished <- Int_set.add i s.finished;
                   false
               | Ok false | Error _ -> true
               | exception _ -> true
             end)
        unprepared
  in
  Int_set.for_all
    (fun i ->
      same_incarnation i
      && begin
           acct_send t (Wire.control + 4);
           match Transport.send t.transport i (fun rep -> Rep.prepare rep ~txn ~coord) with
      | Ok () -> same_incarnation i
      | Error _ -> false
      | exception Txn.Abort _ ->
          (* The representative refused the vote (it lost this
             transaction's effects in a crash, or already aborted it
             unilaterally when its lease expired). *)
          false
         end)
    unprepared

(* The commit half: deliver a committed decision to prepared participants.
   Only ever called after the coordinator force-logged [Committed]. *)
let commit_round t txn participants =
  if t.batching then begin
    (* Commit pipelining: every participant holds a durable yes vote
       bound to this coordinator, so the commit notices can ride on
       messages sent at this instant, and a flush at this instant carries
       the rest. Until one lands, the participant's lease expiry resolves
       the transaction through this coordinator's decision log — same
       verdict, just slower. *)
    Int_set.iter (fun i -> enqueue_notice t i (Rep.N_commit txn)) participants;
    arm_flush t 0.0
  end
  else send_each t participants (fun rep -> Rep.commit rep ~txn)

(* Terminate [txn] at every suite it touched. The client runs presumed-abort
   two-phase commit as coordinator: the prepare rounds of every touched
   suite, run concurrently in one fan-out when there are several (each runs
   to the end whatever another votes), then ONE decision in the shared
   coordinator's log — it covers every suite's participants, who all
   recorded that coordinator at prepare time, so in-doubt resolution is the
   same for one group or several — and a commit or abort round per suite. A
   commit decision is forced before anyone hears of it; an abort is recorded
   but never forced, because a participant that finds no decision presumes
   abort anyway. *)
let commit suites txn =
  let touched =
    Array.to_list suites
    |> List.filter_map (fun t -> Option.map (fun s -> (t, s)) (Hashtbl.find_opt t.touched txn))
  in
  let finish t = Hashtbl.remove t.touched txn in
  let all_prepared =
    match touched with
    | [ (t, s) ] -> prepare_round t txn s
    | _ ->
        Array.of_list touched
        |> suites.(0).transport.Transport.fanout.Transport.map (fun (t, s) -> prepare_round t txn s)
        |> Array.for_all Fun.id
  in
  (* Read-only and fully released in-round: nothing to decide and nobody
     who could ever go in doubt, so no forced decision record. *)
  if List.for_all (fun (_, s) -> Int_set.is_empty (participants s)) touched then
    List.iter (fun (t, _) -> finish t) touched
  else
    (* First-writer-wins against the termination protocol: an in-doubt
       participant's resolution query may have already presumed abort, in
       which case our commit decision loses and the transaction aborts. *)
    match
      Coordinator.decide suites.(0).coordinator txn
        (if all_prepared then Coordinator.Committed else Coordinator.Aborted)
    with
    | Coordinator.Committed ->
        List.iter
          (fun (t, s) ->
            let p = participants s in
            if not (Int_set.is_empty p) then commit_round t txn p;
            finish t)
          touched
    | Coordinator.Aborted ->
        List.iter (fun (t, _) -> abort_touched t txn) touched;
        raise
          (Unavailable
             (match suites with
             | [| t |] -> "transaction aborted during two-phase commit" ^ shard_suffix t
             | _ -> "cross-shard transaction aborted during two-phase commit"))

let with_txns suites f =
  let t0 = suites.(0) in
  let txn = Txn.Manager.begin_txn t0.txns in
  let record status = Option.iter (fun r -> History.finish r ~txn status) t0.recorder in
  match f txn with
  | exception e ->
      Array.iter
        (fun t ->
          cache_drop t txn;
          abort_touched t txn)
        suites;
      Txn.Manager.abort t0.txns txn;
      record `Failed;
      raise e
  | result -> (
      match commit suites txn with
      | () ->
          Txn.Manager.commit t0.txns txn;
          (* Only now are the transaction's writes committed facts; applying
             the staged cache lines any earlier would let an aborted write
             poison the cache with a version number a later committed write
             can legitimately reuse. *)
          Array.iter (fun t -> cache_apply t txn) suites;
          record `Ok;
          result
      | exception e ->
          Array.iter (fun t -> cache_drop t txn) suites;
          Txn.Manager.abort t0.txns txn;
          (* The coordinator's own log is authoritative: no decision or an
             abort means presumed abort (no effects anywhere); a commit
             decision whose delivery failed lands through the termination
             protocol at some unknown later time. *)
          record
            (match Coordinator.decision t0.coordinator txn with
            | Some Coordinator.Aborted | None -> `Failed
            | Some Coordinator.Committed -> `Ambiguous);
          raise e)

let with_txn t f = with_txns [| t |] f

(* Bounded client-level retry: transient failures (no quorum right now, a
   deadlock abort) heal with time, so re-running the whole operation — a
   fresh transaction with fresh quorums — after an exponentially backed-off
   pause is the standard recovery. Aborted attempts rolled everything back,
   so a re-run never double-applies.

   Two fail-fast bounds ride alongside the attempt count. [deadline] caps
   the *cumulative* backoff sleep: with exponential growth the attempt count
   alone is a wall-clock hazard (at the default backoff, seven attempts can
   sleep past any lease), so the default deadline of [48 * backoff] bounds
   total waiting at roughly double the default schedule's worst case —
   generous for every existing caller, finite for all of them. [budget] is a
   shared token bucket ({!Retry_budget}): each retry must buy a token and
   each overall success earns a fraction back, so when unavailability is
   sustained across many operations the client's retries dry up and it
   surfaces the failure instead of amplifying the storm. Both bounds
   re-raise the original failure. *)
let with_retries ?(attempts = 5) ?(backoff = 1.0) ?deadline ?budget
    ?(sleep = fun _ -> ()) ?rng f =
  if attempts < 1 then invalid_arg "Suite.with_retries: need at least one attempt";
  let deadline = match deadline with Some d -> d | None -> 48.0 *. backoff in
  if deadline <= 0.0 then invalid_arg "Suite.with_retries: deadline must be positive";
  let slept = ref 0.0 in
  let rec go k =
    match f () with
    | r ->
        (match budget with Some b -> Retry_budget.earn b | None -> ());
        r
    | exception
        ((Unavailable _ | Txn.Abort (Txn.Deadlock _) | Txn.Abort (Txn.Unavailable _)) as e)
      ->
        if k + 1 >= attempts then raise e
        else begin
          (* The jitter draw stays strictly on the will-retry path, keeping
             the RNG stream identical to the pre-deadline implementation for
             every schedule the bounds never cut short. *)
          let jitter = match rng with Some r -> 0.5 +. Rng.float r 1.0 | None -> 1.0 in
          let pause = backoff *. (2.0 ** float_of_int k) *. jitter in
          if !slept +. pause > deadline then raise e;
          (match budget with
          | Some b when not (Retry_budget.try_spend b) -> raise e
          | Some _ | None -> ());
          slept := !slept +. pause;
          sleep pause;
          go (k + 1)
        end
  in
  go 0

(* Run an operation body, re-running with the failed representative excluded
   when the transport fails mid-flight. Representative operations are
   idempotent for fixed arguments, so a re-run only repeats work. A body
   whose attempt was abandoned re-runs in a new implicit transaction
   instead. An earlier operation's deferred write leaves first, inside the
   re-run loop, so a failed send re-collects its quorum. *)
let run_op t ?txn body =
  (* The operation's deadline budget becomes an absolute deadline now, at
     operation start — every hop it crosses from here on (RPC stamps, body
     re-runs, restarts) consumes the one budget. *)
  let deadline =
    match (t.op_deadline, t.timers) with
    | Some budget, Some timers -> Some (timers.Rep.now () +. budget)
    | _ -> None
  in
  let expired () =
    match (deadline, t.timers) with
    | Some d, Some timers -> timers.Rep.now () > d
    | _ -> false
  in
  let excluded = ref Int_set.empty in
  let attempt ~implicit ~final txn =
    let invoked = match t.recorder with Some r -> History.now r | None -> 0.0 in
    let ctx = { txn; excluded; suite = t; final; abandoned = false; deadline; invoked } in
    (* A re-run reads afresh: what the session learned before it may rest
       on a member now excluded or on a superseded view. *)
    let rec rerun () =
      if ctx.abandoned then raise Restart
      else begin
        Option.iter (fun s -> s.reads <- []) (Hashtbl.find_opt t.touched txn);
        go ()
      end
    and go () =
      (* Client-side half of deadline propagation: a body re-run (after a
         transport failure or a fence) starts by checking its own clock, so
         an operation that has burned its budget on timeouts stops here
         rather than collecting another quorum. *)
      if expired () then
        raise (Deadline_exceeded "operation deadline exceeded before retry");
      try
        send_deferred ctx;
        body ctx
      with
      | Rep.Deadline_exceeded msg ->
          (* A representative refused already-expired work; the operation
             unwinds (its transaction aborts at the [with_txn]/[run_op]
             boundary, rolling back any partial effects). Not retried by
             [with_retries]: the point is to fail fast. *)
          raise (Deadline_exceeded msg)
      | Transport.Rpc_failed (i, _) ->
          excluded := Int_set.add i !excluded;
          rerun ()
      | Rep.Stale_epoch { fence = Membership; record; _ } ->
          (* A representative fenced us: adopt the newer configuration it
             handed back. A single-operation implicit transaction simply
             re-runs its body — fresh quorums, fresh reads — under the new
             epoch (locks already taken stay held until termination, which
             is merely conservative). An explicit multi-operation
             transaction may have collected earlier quorums under a view
             that is now more than one fence old, so it aborts and retries
             wholesale. *)
          adopt t record;
          if implicit then rerun ()
          else
            raise
              (Txn.Abort (Txn.Unavailable "membership epoch advanced mid-transaction"))
    in
    go ()
  in
  (* Only an implicit single-operation transaction has a known final round;
     inside an explicit [with_txn] the client may keep operating, so nothing
     can be piggybacked on this operation. *)
  match txn with
  | Some txn -> attempt ~implicit:false ~final:false txn
  | None ->
      let rec fresh () =
        match with_txn t (attempt ~implicit:true ~final:true) with
        | r -> r
        | exception Restart -> fresh ()
      in
      fresh ()

(* --- public operations --------------------------------------------------------------- *)

let lookup ?txn t key =
  run_op t ?txn (fun ctx ->
      let r = do_lookup ctx key in
      record_prim ctx (History.Lookup (key, Option.map snd r));
      r)

let mem ?txn t key = Option.is_some (lookup ?txn t key)

let insert ?txn t key value =
  let memo = (ref 0, ref None) in
  match
    run_op t ?txn (fun ctx ->
        let r = do_write ctx memo key value ~must_exist:false in
        record_prim ctx (History.Insert (key, value, r = Ok ()));
        r)
  with
  | Ok () -> Ok ()
  | Error `Already_present -> Error `Already_present
  | Error `Not_present -> assert false

let update ?txn t key value =
  let memo = (ref 0, ref None) in
  match
    run_op t ?txn (fun ctx ->
        let r = do_write ctx memo key value ~must_exist:true in
        record_prim ctx (History.Update (key, value, r = Ok ()));
        r)
  with
  | Ok () -> Ok ()
  | Error `Not_present -> Error `Not_present
  | Error `Already_present -> assert false

let delete ?txn t key =
  let memo = ref None in
  run_op t ?txn (fun ctx ->
      let r = do_delete ctx memo key in
      record_prim ctx (History.Delete (key, r.was_present));
      r)

(* --- ordered traversal --------------------------------------------------------------- *)

(* The real-neighbour walk already returns the next *current* entry; the
   sentinels map to None. Started from a sentinel it is [first]/[last]: the
   current entry nearest one end, walking from the other end. *)
let step_in ctx dir start =
  match real_neighbor ctx dir start with
  | Bound.Key k, value, ver, _maxv -> Some (k, ver, value)
  | (Bound.High | Bound.Low), _, _, _ -> None

let next ?txn t key = run_op t ?txn (fun ctx -> step_in ctx Up (Bound.Key key))
let prev ?txn t key = run_op t ?txn (fun ctx -> step_in ctx Down (Bound.Key key))
let first ?txn t = run_op t ?txn (fun ctx -> step_in ctx Up Bound.Low)
let last ?txn t = run_op t ?txn (fun ctx -> step_in ctx Down Bound.High)

(* Ascending from [start] while [continue] holds. *)
let fold_up ctx start ~continue ~init ~f =
  let rec go acc = function
    | Some (k, _, value) when continue k -> go (f acc k value) (step_in ctx Up (Bound.Key k))
    | Some _ | None -> acc
  in
  go init start

let fold_range ?txn t ~lo ~hi ~init ~f =
  run_op t ?txn (fun ctx ->
      let start =
        let isin, ver, value = read ctx ~finish:false (Bound.Key lo) in
        if isin then Some (lo, ver, value) else step_in ctx Up (Bound.Key lo)
      in
      fold_up ctx start ~continue:(fun k -> Key.compare k hi <= 0) ~init ~f)

let to_alist ?txn t =
  run_op t ?txn (fun ctx ->
      fold_up ctx (step_in ctx Up Bound.Low) ~continue:(fun _ -> true) ~init:[]
        ~f:(fun acc k v -> (k, v) :: acc)
      |> List.rev)
