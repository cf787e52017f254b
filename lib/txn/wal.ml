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
}

let pp_record ppf = function
  | Begin id -> Format.fprintf ppf "begin %d" id
  | Insert (id, k, v, _) -> Format.fprintf ppf "insert[%d] %a:%a" id Key.pp k Version.pp v
  | Coalesce (id, lo, hi, v) ->
      Format.fprintf ppf "coalesce[%d] (%a,%a)->%a" id Bound.pp lo Bound.pp hi Version.pp v
  | Sync_apply (id, ops) -> Format.fprintf ppf "sync-apply[%d] (%d ops)" id (List.length ops)
  | Prepare (id, coord) -> Format.fprintf ppf "prepare %d (coord %d)" id coord
  | Recovery_marker -> Format.pp_print_string ppf "recovery-marker"
  | Commit id -> Format.fprintf ppf "commit %d" id
  | Abort id -> Format.fprintf ppf "abort %d" id
  | Checkpoint c -> Format.fprintf ppf "checkpoint (%d entries)" (List.length c.entries)
  | Epoch (Membership, e, _) -> Format.fprintf ppf "member-epoch %d" e
  | Epoch (Shard_map, e, _) -> Format.fprintf ppf "shard-epoch %d" e

(* --- stable-storage framing ------------------------------------------------------ *)

(* Each record is persisted as a frame: the marshalled record plus an FNV-1a
   checksum of those bytes. The frame bytes — not the in-memory record — are
   what survives a crash, so storage faults injected into a frame genuinely
   corrupt what recovery sees. *)

type frame = { payload : string; crc : int64 }

let fnv1a = Repdir_util.Checksum.fnv1a

let frame_of_record (r : record) =
  let payload = Marshal.to_string r [] in
  { payload; crc = fnv1a payload }

let frame_valid f = Int64.equal (fnv1a f.payload) f.crc

let record_of_frame f : record = Marshal.from_string f.payload 0

type entry = { rec_ : record; frame : frame }

(* Injected storage failure modes for the *write* path: while armed, every
   append is refused. Unlike {!storage_fault} (damage discovered at crash
   time), an io fault is observed synchronously by the writer, which must
   turn it into a clean transaction abort rather than wedging. *)
type io_fault = Disk_full | Io_error

let pp_io_fault ppf = function
  | Disk_full -> Format.pp_print_string ppf "disk-full"
  | Io_error -> Format.pp_print_string ppf "io-error"

type t = {
  mutable log : entry list; (* newest first *)
  mutable len : int;
  mutable synced : int; (* oldest [synced] entries are forced to disk *)
  mutable io_fault : io_fault option;
  (* Derived metadata, maintained incrementally so the per-prepare checks
     ([committed], [ops_before_last_recovery]) cost O(1) instead of scanning
     the whole log. [epoch] counts [Recovery_marker]s; [op_epochs] remembers
     the epoch of each transaction's oldest operation record; [committed_set]
     holds every transaction with a [Commit] record. Rebuilt from scratch
     whenever the log itself is rewritten (repair, truncation, lost tail). *)
  mutable epoch : int;
  op_epochs : (Txn.id, int) Hashtbl.t;
  committed_set : (Txn.id, unit) Hashtbl.t;
}

let index_record t = function
  | Recovery_marker -> t.epoch <- t.epoch + 1
  | Insert (id, _, _, _) | Coalesce (id, _, _, _) | Sync_apply (id, _) ->
      if not (Hashtbl.mem t.op_epochs id) then Hashtbl.replace t.op_epochs id t.epoch
  | Commit id -> Hashtbl.replace t.committed_set id ()
  | Begin _ | Prepare _ | Abort _ | Checkpoint _ | Epoch _ -> ()

let rebuild_index t =
  t.epoch <- 0;
  Hashtbl.reset t.op_epochs;
  Hashtbl.reset t.committed_set;
  List.iter (fun e -> index_record t e.rec_) (List.rev t.log)

let create () =
  {
    log = [];
    len = 0;
    synced = 0;
    io_fault = None;
    epoch = 0;
    op_epochs = Hashtbl.create 64;
    committed_set = Hashtbl.create 64;
  }

let set_io_fault t f = t.io_fault <- f
let io_fault t = t.io_fault

let unchecked_append t r =
  t.log <- { rec_ = r; frame = frame_of_record r } :: t.log;
  t.len <- t.len + 1;
  index_record t r

let try_append t r =
  match t.io_fault with
  | Some f -> Error f
  | None ->
      unchecked_append t r;
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
let records t = List.rev_map (fun e -> e.rec_) t.log

let committed t id = Hashtbl.mem t.committed_set id

let ops_before_last_recovery t id =
  (* A transaction has pre-crash operation records iff its oldest op record
     was appended before the newest marker, i.e. in an earlier epoch. *)
  match Hashtbl.find_opt t.op_epochs id with
  | Some e when e < t.epoch -> not (committed t id)
  | Some _ | None -> false

let in_doubt t =
  let prepared = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match e.rec_ with
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

(* Key-space footprint of a transaction's redo records, for re-holding its
   locks when recovery restores it as in doubt. One interval per record is
   coarse but safe: it covers at least what the pre-crash RepModify locks
   covered. *)
let write_ranges t txn =
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
  List.filter_map
    (fun r ->
      match r with
      | Insert (id, k, _, _) when id = txn -> Some (Bound.Interval.point (Bound.Key k))
      | Coalesce (id, lo, hi, _) when id = txn -> Some (Bound.Interval.make lo hi)
      | Sync_apply (id, ops) when id = txn -> span_of_ops ops
      | _ -> None)
    (records t)

let last_epoch t fence =
  (* log is newest-first, so the first hit is the highest installed epoch
     (installation is monotone). *)
  List.find_map
    (fun e -> match e.rec_ with Epoch (f, ep, r) when f = fence -> Some (ep, r) | _ -> None)
    t.log

let checkpoint_of_map entries ~gaps =
  let low_gap =
    match gaps with
    | (Bound.Low, _, v) :: _ -> v
    | _ -> invalid_arg "Wal.checkpoint_of_map: gaps must start at LOW"
  in
  (* Pair each entry with the version of the gap that follows it. *)
  let gap_after k =
    match
      List.find_opt (fun (l, _, _) -> Bound.equal l (Bound.Key k)) gaps
    with
    | Some (_, _, v) -> v
    | None -> invalid_arg "Wal.checkpoint_of_map: entry without following gap"
  in
  {
    entries = List.map (fun (k, v, value) -> (k, v, value, gap_after k)) entries;
    low_gap;
  }

let truncate_to_checkpoint t =
  (* log is newest-first: keep up to and including the first Checkpoint. *)
  let rec take acc = function
    | [] -> None
    | e :: rest -> (
        match e.rec_ with
        | Checkpoint _ -> Some (List.rev (e :: acc))
        | _ -> take (e :: acc) rest)
  in
  match take [] t.log with
  | None -> ()
  | Some kept ->
      (* [take] returns the kept entries newest-first, matching [log]. *)
      t.log <- kept;
      t.len <- List.length kept;
      (* Taking a checkpoint forces the log. *)
      t.synced <- t.len;
      rebuild_index t

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

let damage_tail t mutate =
  match t.log with
  | [] -> ()
  | e :: rest -> t.log <- { e with frame = mutate e.frame } :: rest

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
  (* Scan frames oldest-first; the first bad checksum ends the readable
     prefix (everything after a torn write is unrecoverable in a real
     sequential log). Records are re-decoded from the frame bytes, so the
     surviving view is exactly what stable storage holds. *)
  let rec keep acc n = function
    | [] -> (acc, n, 0)
    | e :: rest ->
        if frame_valid e.frame then
          keep ({ rec_ = record_of_frame e.frame; frame = e.frame } :: acc) (n + 1) rest
        else (acc, n, 1 + List.length rest)
  in
  let kept_newest_first, len, dropped = keep [] 0 (List.rev t.log) in
  if dropped > 0 then begin
    t.log <- kept_newest_first;
    t.len <- len;
    t.synced <- min t.synced len;
    rebuild_index t
  end;
  dropped

let tail_valid t = match t.log with [] -> true | e :: _ -> frame_valid e.frame

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
  let replay ?(decided = fun _ -> false) t =
    let map = M.create () in
    let recs = records t in
    let prepared id =
      List.exists (fun e -> match e.rec_ with Prepare (id', _) -> id' = id | _ -> false) t.log
    in
    let is_committed id = committed t id || (prepared id && decided id) in
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
      recs;
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
