open Repdir_key

type record =
  | Begin of Txn.id
  | Insert of Txn.id * Key.t * Version.t * Repdir_gapmap.Gapmap_intf.value
  | Coalesce of Txn.id * Bound.t * Bound.t * Version.t
  | Sync_apply of Txn.id * Repdir_gapmap.Gapmap_intf.sync_op list
  | Prepare of Txn.id * int
  | Commit of Txn.id
  | Abort of Txn.id
  | Recovery_marker
  | Checkpoint of checkpoint
  | Epoch of fence * int * string

and fence = Membership | Shard_map

and checkpoint = {
  entries : (Key.t * Version.t * Repdir_gapmap.Gapmap_intf.value * Version.t) list;
  low_gap : Version.t;
  decided : decided list;
  lost : Txn.id list;
}

and decided = { commits : Txn.id array; aborts : Txn.id array }

(* --- stable-storage framing ------------------------------------------------------ *)

(* A record's persistent image is a frame: the marshalled record plus an
   FNV-1a checksum of those bytes. The image differs from the record only
   after a crash-time storage fault, and faults reach only the unforced tail,
   so the log keeps one copy of each record (the decoded one) and encodes a
   frame only when {!inject} damages it. {!repair} then reads those frames
   back exactly as recovery would read the disk. *)

type frame = { payload : string; crc : int64 }

let fnv1a = Repdir_util.Checksum.fnv1a

let frame_of_record (r : record) =
  let payload = Marshal.to_string r [] in
  { payload; crc = fnv1a payload }

let frame_valid f = Int64.equal (fnv1a f.payload) f.crc

let record_of_frame f : record = Marshal.from_string f.payload 0

(* Injected storage failure modes for the *write* path: while armed, every
   append is refused. Unlike {!storage_fault} (damage discovered at crash
   time), an io fault is observed synchronously by the writer, which must
   turn it into a clean transaction abort rather than wedging. *)
type io_fault = Disk_full | Io_error

let pp_io_fault ppf = function
  | Disk_full -> Format.pp_print_string ppf "disk-full"
  | Io_error -> Format.pp_print_string ppf "io-error"

type t = {
  mutable log : record list; (* newest first *)
  mutable len : int;
  mutable synced : int; (* oldest [synced] records are forced to disk *)
  mutable damaged : (int * frame) list;
      (* Frames damaged by [inject], keyed by log position (0 = oldest);
         every position is in the unforced tail when damaged. *)
  mutable io_fault : io_fault option;
  (* Derived metadata, maintained incrementally so the per-prepare checks
     ([committed], [ops_before_last_recovery]) cost O(1) instead of scanning
     the whole log. [epoch] counts [Recovery_marker]s; [op_epochs] remembers
     the epoch of each transaction's oldest operation record (-1 for the
     lost transactions a checkpoint carries); [committed_set] holds every
     transaction with a [Commit] record. Rebuilt from scratch whenever the
     log itself is rewritten (repair, truncation, lost tail). *)
  mutable epoch : int;
  op_epochs : (Txn.id, int) Hashtbl.t;
  committed_set : (Txn.id, unit) Hashtbl.t;
}

let index_record t = function
  | Recovery_marker -> t.epoch <- t.epoch + 1
  | Insert (id, _, _, _) | Coalesce (id, _, _, _) | Sync_apply (id, _) ->
      if not (Hashtbl.mem t.op_epochs id) then Hashtbl.replace t.op_epochs id t.epoch
  | Commit id -> Hashtbl.replace t.committed_set id ()
  | Checkpoint c ->
      List.iter
        (fun id -> if not (Hashtbl.mem t.op_epochs id) then Hashtbl.replace t.op_epochs id (-1))
        c.lost
  | Begin _ | Prepare _ | Abort _ | Epoch _ -> ()

let rebuild_index t =
  t.epoch <- 0;
  Hashtbl.reset t.op_epochs;
  Hashtbl.reset t.committed_set;
  List.iter (index_record t) (List.rev t.log)

let create () =
  {
    log = [];
    len = 0;
    synced = 0;
    damaged = [];
    io_fault = None;
    epoch = 0;
    op_epochs = Hashtbl.create 64;
    committed_set = Hashtbl.create 64;
  }

let set_io_fault t f = t.io_fault <- f

let try_append t r =
  match t.io_fault with
  | Some f -> Error f
  | None ->
      t.log <- r :: t.log;
      t.len <- t.len + 1;
      index_record t r;
      Ok ()

let append t r =
  (* Callers off the representative write paths (tests, replay fixtures) do
     not expect storage failures; fail loudly rather than drop the record. *)
  match try_append t r with
  | Ok () -> ()
  | Error f -> Format.kasprintf failwith "Wal.append under injected %a" pp_io_fault f

let sync t = t.synced <- t.len
let synced_length t = t.synced

let length t = t.len
let settled t = t.synced = t.len && t.io_fault = None
let records t = List.rev t.log

let committed t id = Hashtbl.mem t.committed_set id

let ops_before_last_recovery t id =
  (* A transaction has pre-crash operation records iff its oldest op record
     was appended before the newest marker, i.e. in an earlier epoch. *)
  match Hashtbl.find_opt t.op_epochs id with
  | Some e when e < t.epoch -> not (committed t id)
  | Some _ | None -> false

let iter_outcomes t f =
  List.iter
    (function
      | Checkpoint c ->
          List.iter
            (fun d ->
              Array.iter (fun id -> f id `Committed) d.commits;
              Array.iter (fun id -> f id `Aborted) d.aborts)
            (List.rev c.decided)
      | Commit id -> f id `Committed
      | Abort id -> f id `Aborted
      | Begin _ | Insert _ | Coalesce _ | Sync_apply _ | Prepare _ | Recovery_marker | Epoch _ ->
          ())
    (records t)

let in_doubt t =
  let prepared = Hashtbl.create 8 in
  List.iter
    (function
      | Prepare (id, coord) ->
          if not (Hashtbl.mem prepared id) then Hashtbl.replace prepared id (Some coord)
      | Commit id | Abort id -> Hashtbl.replace prepared id None
      | Begin _ | Insert _ | Coalesce _ | Sync_apply _ | Recovery_marker | Checkpoint _
      | Epoch _ -> ())
    t.log;
  Hashtbl.fold
    (fun id pending acc -> match pending with Some coord -> (id, coord) :: acc | None -> acc)
    prepared []
  |> List.sort compare

(* Key-space footprint of transactions' redo records, for re-holding their
   locks when recovery restores them as in doubt. One interval per record is
   coarse but safe: it covers at least what the pre-crash RepModify locks
   covered. *)
let write_ranges t txns =
  let ranges = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace ranges id []) txns;
  let span_of_ops ops =
    let bound_of = function
      | Repdir_gapmap.Gapmap_intf.Sync_put (k, _, _) | Repdir_gapmap.Gapmap_intf.Sync_del k ->
          Bound.Key k
      | Repdir_gapmap.Gapmap_intf.Sync_gap (b, _) -> b
    in
    match List.map bound_of ops with
    | [] -> None
    | b :: rest ->
        let lo = List.fold_left Bound.min b rest and hi = List.fold_left Bound.max b rest in
        Some (Bound.Interval.make lo hi)
  in
  let add id range =
    match Hashtbl.find_opt ranges id with
    | Some acc -> Hashtbl.replace ranges id (range :: acc)
    | None -> ()
  in
  (* Newest first, so consing leaves each list oldest first. *)
  List.iter
    (function
      | Insert (id, k, _, _) -> add id (Bound.Interval.point (Bound.Key k))
      | Coalesce (id, lo, hi, _) -> add id (Bound.Interval.make lo hi)
      | Sync_apply (id, ops) when Hashtbl.mem ranges id ->
          Option.iter (add id) (span_of_ops ops)
      | Begin _ | Sync_apply _ | Prepare _ | Commit _ | Abort _ | Recovery_marker
      | Checkpoint _ | Epoch _ -> ())
    t.log;
  List.map (fun id -> (id, Hashtbl.find ranges id)) txns

let last_epoch t fence =
  (* log is newest-first, so the first hit is the highest installed epoch
     (installation is monotone). *)
  List.find_map (function Epoch (f, ep, r) when f = fence -> Some (ep, r) | _ -> None) t.log

let truncate_to_checkpoint t =
  (* log is newest-first: keep up to and including the first Checkpoint. *)
  let rec take acc = function
    | [] -> None
    | (Checkpoint _ as r) :: _ -> Some (List.rev (r :: acc))
    | r :: rest -> take (r :: acc) rest
  in
  match take [] t.log with
  | None -> ()
  | Some kept ->
      let len = List.length kept in
      let dropped = t.len - len in
      t.log <- kept;
      t.len <- len;
      (* Damaged frames keep their place among the surviving records. *)
      t.damaged <-
        List.filter_map
          (fun (p, f) -> if p >= dropped then Some (p - dropped, f) else None)
          t.damaged;
      (* Taking a checkpoint forces the log. *)
      t.synced <- t.len;
      rebuild_index t

let checkpoint t ~entries ~low_gap =
  (* Carry forward what recovery derives from the records about to be
     dropped: every outcome (the chunks the previous checkpoints carried, plus
     one new chunk for this segment's outcome records) and every transaction
     whose op records go without a [Commit]. Those never replay, so a
     prepare must stay refused: their effects died in a crash, or they
     aborted, possibly with the [Abort] record refused by an io fault. A log
     holds at most one outcome record per transaction, so splitting a chunk
     by verdict loses no order. *)
  let carried = ref [] and commits = ref [] and aborts = ref [] in
  List.iter
    (function
      (* Newest first; [[] @ l] is [l], so the usual lone checkpoint copies nothing. *)
      | Checkpoint c -> carried := !carried @ c.decided
      | Commit id -> commits := id :: !commits
      | Abort id -> aborts := id :: !aborts
      | Begin _ | Insert _ | Coalesce _ | Sync_apply _ | Prepare _ | Recovery_marker | Epoch _ ->
          ())
    t.log;
  let decided =
    if !commits = [] && !aborts = [] then !carried
    else
      { commits = Array.of_list (List.rev !commits); aborts = Array.of_list (List.rev !aborts) }
      :: !carried
  in
  let lost =
    Hashtbl.fold (fun id _ acc -> if committed t id then acc else id :: acc) t.op_epochs []
    |> List.sort compare
  in
  append t (Checkpoint { entries; low_gap; decided; lost });
  truncate_to_checkpoint t

(* --- storage fault injection ------------------------------------------------------ *)

type storage_fault =
  | Truncate_tail of int
  | Tear_tail
  | Corrupt_tail

let pp_storage_fault ppf = function
  | Truncate_tail k -> Format.fprintf ppf "truncate-tail(%d)" k
  | Tear_tail -> Format.pp_print_string ppf "torn-tail"
  | Corrupt_tail -> Format.pp_print_string ppf "corrupt-tail"

let rec drop_newest k log = if k <= 0 then log else match log with [] -> [] | _ :: r -> drop_newest (k - 1) r

(* Encode the newest record's frame (once) and damage it. *)
let damage_tail t mutate =
  match t.log with
  | [] -> ()
  | r :: _ ->
      let p = t.len - 1 in
      let f = match List.assoc_opt p t.damaged with Some f -> f | None -> frame_of_record r in
      t.damaged <- (p, mutate f) :: List.remove_assoc p t.damaged

(* A crash can only hurt frames that were never forced to disk: anything at
   or below the [synced] watermark survived the last forced write, so every
   fault clamps to the unsynced suffix. This is the torn-write model of a
   real fsynced log — acknowledged commits are durable by construction. *)
let inject t fault =
  let unsynced = t.len - t.synced in
  match fault with
  | Truncate_tail k ->
      if k < 0 then invalid_arg "Wal.inject: negative truncation";
      let k = min k unsynced in
      t.log <- drop_newest k t.log;
      t.len <- t.len - k;
      t.damaged <- List.filter (fun (p, _) -> p < t.len) t.damaged;
      rebuild_index t
  | Tear_tail when unsynced > 0 ->
      (* A torn write: only a prefix of the frame's bytes reached the disk;
         the checksum (written last) covers the full payload and no longer
         matches. *)
      damage_tail t (fun f ->
          { f with payload = String.sub f.payload 0 (String.length f.payload / 2) })
  | Corrupt_tail when unsynced > 0 ->
      damage_tail t (fun f ->
          let b = Bytes.of_string f.payload in
          let i = Bytes.length b / 2 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
          { f with payload = Bytes.to_string b })
  | Tear_tail | Corrupt_tail -> ()

let repair t =
  (* The first bad checksum ends the readable prefix (everything after a
     torn write is unrecoverable in a real sequential log). Only damaged
     frames can fail; a damaged frame that still verifies is re-decoded from
     its bytes, so the surviving view is exactly what stable storage holds. *)
  match t.damaged with
  | [] -> 0
  | damaged ->
      let readable =
        List.fold_left (fun n (p, f) -> if frame_valid f then n else min n p) t.len damaged
      in
      let dropped = t.len - readable in
      let log = drop_newest dropped t.log in
      t.log <-
        List.mapi
          (fun i r ->
            match List.assoc_opt (readable - 1 - i) damaged with
            | Some f -> record_of_frame f
            | None -> r)
          log;
      t.len <- readable;
      t.damaged <- [];
      if dropped > 0 then begin
        t.synced <- min t.synced readable;
        rebuild_index t
      end;
      dropped

let tail_valid t =
  match List.assoc_opt (t.len - 1) t.damaged with None -> true | Some f -> frame_valid f

(* --- group commit ------------------------------------------------------------- *)

(* Ticket/leader bookkeeping for coalescing concurrent force requests into a
   single [sync]. A "ticket" is simply the log length at request time: a
   record is durable once [synced_length] passes its ticket, so a follower
   never needs its own force — it only waits for the leader's. The timing
   side (the group window, and suspending the calling process) belongs to
   the representative, which owns the clock; this module only tracks who
   leads, who waits, and how many syncs were saved. *)
module Group = struct
  type outcome = Forced | Cancelled

  type group = {
    mutable armed : bool; (* a leader is holding the window open *)
    mutable waiters : (outcome -> unit) list; (* newest first *)
    mutable forces : int;
    mutable absorbed : int;
  }

  let create () = { armed = false; waiters = []; forces = 0; absorbed = 0 }
  let forces g = g.forces
  let absorbed g = g.absorbed
  let armed g = g.armed
  let lead g = g.armed <- true

  let enqueue g k =
    g.absorbed <- g.absorbed + 1;
    g.waiters <- k :: g.waiters

  let count_force g = g.forces <- g.forces + 1

  (* Close the window: wake every waiter in arrival order. [Forced] means the
     leader synced the log (covering every ticket issued so far); [Cancelled]
     means the representative crashed and waiters must re-check for
     themselves. *)
  let settle g outcome =
    g.armed <- false;
    (match outcome with Forced -> count_force g | Cancelled -> ());
    let ws = List.rev g.waiters in
    g.waiters <- [];
    List.iter (fun k -> k outcome) ws
end

module Replay (M : Repdir_gapmap.Gapmap_intf.S) = struct
  let replay ?decided t =
    let map = M.create () in
    let is_committed =
      match decided with
      | None -> committed t
      | Some decided ->
          let prepared = Hashtbl.create 8 in
          List.iter (function Prepare (id, _) -> Hashtbl.replace prepared id () | _ -> ()) t.log;
          fun id -> committed t id || (Hashtbl.mem prepared id && decided id)
    in
    let restore_checkpoint (c : checkpoint) =
      (* Checkpoints replace all prior state. *)
      ignore (M.coalesce map ~lo:Bound.Low ~hi:Bound.High Version.lowest);
      List.iter (fun (k, v, value, _) -> M.insert map k v value) c.entries;
      M.set_gap_after map Bound.Low c.low_gap;
      List.iter (fun (k, _, _, gap_after) -> M.set_gap_after map (Bound.Key k) gap_after) c.entries
    in
    List.iter
      (fun r ->
        match r with
        | Checkpoint c -> restore_checkpoint c
        | Insert (id, k, v, value) when is_committed id -> M.insert map k v value
        | Coalesce (id, lo, hi, v) when is_committed id ->
            ignore (M.coalesce map ~lo ~hi v)
        | Sync_apply (id, ops) when is_committed id ->
            List.iter (M.apply_sync_op map) ops
        | Begin _ | Prepare _ | Commit _ | Abort _ | Insert _ | Coalesce _
        | Sync_apply _ | Recovery_marker | Epoch _ -> ())
      (records t);
    map

  (* Re-apply one transaction's redo records to a live map — the deferred
     commit of a recovery-restored in-doubt transaction. Sound only because
     the transaction's write ranges stayed locked since recovery, so no
     later transaction has touched them. *)
  let redo t txn map =
    List.iter
      (fun r ->
        match r with
        | Insert (id, k, v, value) when id = txn -> M.insert map k v value
        | Coalesce (id, lo, hi, v) when id = txn -> ignore (M.coalesce map ~lo ~hi v)
        | Sync_apply (id, ops) when id = txn -> List.iter (M.apply_sync_op map) ops
        | Begin _ | Prepare _ | Commit _ | Abort _ | Insert _ | Coalesce _ | Sync_apply _
        | Recovery_marker | Checkpoint _ | Epoch _ -> ())
      (records t)
end
