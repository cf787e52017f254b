open Repdir_key

type line =
  | Entry of { version : Version.t; value : string }
  | Gap of { version : Version.t }

type counters = {
  mutable hits : int;
  mutable misses : int;
  mutable mismatches : int;
  mutable stores : int;
  mutable invalidations : int;
  mutable flushes : int;
  mutable evictions : int;
}

(* Intrusive doubly-linked LRU list: [head] is the most recently used node,
   [tail] the eviction candidate. Sentinels keep the unlink arithmetic
   branch-free. *)
type node = {
  key : Bound.t;
  mutable line : line;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  capacity : int;
  table : (Bound.t, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable epoch : int;
  c : counters;
}

let create ?(capacity = 1024) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be positive";
  {
    capacity;
    table = Hashtbl.create (min capacity 64);
    head = None;
    tail = None;
    epoch = 0;
    c =
      {
        hits = 0;
        misses = 0;
        mismatches = 0;
        stores = 0;
        invalidations = 0;
        flushes = 0;
        evictions = 0;
      };
  }

let length t = Hashtbl.length t.table
let counters t = t.c
let epoch t = t.epoch

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.prev <- None;
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  match t.head with
  | Some h when h == n -> ()
  | _ ->
      unlink t n;
      push_front t n

let flush t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None;
  t.c.flushes <- t.c.flushes + 1

let sync_epoch t ~epoch =
  if epoch <> t.epoch then begin
    flush t;
    t.epoch <- epoch
  end

let find t ~epoch key =
  sync_epoch t ~epoch;
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some n ->
      touch t n;
      Some n.line

let evict t =
  match t.tail with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table n.key;
      t.c.evictions <- t.c.evictions + 1

let store t ~epoch key line =
  sync_epoch t ~epoch;
  t.c.stores <- t.c.stores + 1;
  match Hashtbl.find_opt t.table key with
  | Some n ->
      n.line <- line;
      touch t n
  | None ->
      if Hashtbl.length t.table >= t.capacity then evict t;
      let n = { key; line; prev = None; next = None } in
      Hashtbl.replace t.table key n;
      push_front t n

let invalidate t key =
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table key;
      t.c.invalidations <- t.c.invalidations + 1

let invalidate_range t ~lo ~hi =
  (* Lines are unordered in the table; a committed delete's coalesce range is
     narrow (pred, succ) while the cache may be large, so collect-then-drop
     keeps this a single pass without an ordered index. *)
  let doomed =
    Hashtbl.fold
      (fun k _ acc ->
        if Bound.compare lo k < 0 && Bound.compare k hi < 0 then k :: acc else acc)
      t.table []
  in
  List.iter (invalidate t) doomed

let note t = function
  | `Hit -> t.c.hits <- t.c.hits + 1
  | `Miss -> t.c.misses <- t.c.misses + 1
  | `Mismatch -> t.c.mismatches <- t.c.mismatches + 1

let sum_counters cs =
  let z =
    {
      hits = 0;
      misses = 0;
      mismatches = 0;
      stores = 0;
      invalidations = 0;
      flushes = 0;
      evictions = 0;
    }
  in
  List.iter
    (fun c ->
      z.hits <- z.hits + c.hits;
      z.misses <- z.misses + c.misses;
      z.mismatches <- z.mismatches + c.mismatches;
      z.stores <- z.stores + c.stores;
      z.invalidations <- z.invalidations + c.invalidations;
      z.flushes <- z.flushes + c.flushes;
      z.evictions <- z.evictions + c.evictions)
    cs;
  z

let pp_counters ppf c =
  Format.fprintf ppf
    "hits=%d misses=%d mismatches=%d stores=%d invalidations=%d flushes=%d evictions=%d"
    c.hits c.misses c.mismatches c.stores c.invalidations c.flushes c.evictions
