(* Imperative B+tree gap map.

   Entries live in the leaves in key order; internal nodes hold separator
   keys only. As §5 of the paper suggests, each gap's version number is
   stored in a field of its bounding entry: entry [e] carries [gap_after],
   the version of the gap between [e] and the next entry (or HIGH). The gap
   between LOW and the first entry is held at the tree root ([low_gap]).

   Structure invariants (verified by [check_invariants]):
   - separator convention: keys in [kids.(i)] are [< keys.(i)]; keys in
     [kids.(i+1)] are [>= keys.(i)];
   - every leaf except a root leaf holds between [branching/2] and
     [branching] entries; every internal node except the root has between
     [branching/2] and [branching] children; the root has at least 2;
   - all leaves are at the same depth and are doubly linked in key order. *)

open Repdir_key
open Gapmap_intf

type entry = {
  key : Key.t;
  mutable version : Version.t;
  mutable value : value;
  mutable gap_after : Version.t;
}

type node = Leaf of leaf | Inner of inner

and leaf = {
  mutable entries : entry array;
  mutable next : leaf option;
  mutable prev : leaf option;
}

and inner = { mutable keys : Key.t array; mutable kids : node array }

type t = {
  mutable root : node;
  mutable low_gap : Version.t;
  mutable size : int;
  branching : int;
}

let default_branching = 32

let create_with ~branching () =
  if branching < 4 then invalid_arg "Btree.create_with: branching must be >= 4";
  {
    root = Leaf { entries = [||]; next = None; prev = None };
    low_gap = Version.lowest;
    size = 0;
    branching;
  }

let create () = create_with ~branching:default_branching ()
let size t = t.size

(* --- array helpers ------------------------------------------------------ *)

let array_insert arr i x =
  let n = Array.length arr in
  let out = Array.make (n + 1) x in
  Array.blit arr 0 out 0 i;
  Array.blit arr i out (i + 1) (n - i);
  out

let array_remove arr i =
  let n = Array.length arr in
  let out = Array.sub arr 0 (n - 1) in
  Array.blit arr (i + 1) out i (n - 1 - i);
  out

(* First index whose entry key is >= k, and whether k itself is present. *)
let leaf_search entries k =
  let n = Array.length entries in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Key.compare entries.(mid).key k < 0 then go (mid + 1) hi else go lo mid
  in
  let i = go 0 n in
  (i, i < n && Key.equal entries.(i).key k)

(* Index of the child an arbitrary key k belongs to: first separator > k goes
   left of it; equality with a separator routes right. *)
let child_index keys k =
  let n = Array.length keys in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Key.compare keys.(mid) k <= 0 then go (mid + 1) hi else go lo mid
  in
  go 0 n

(* --- descent ------------------------------------------------------------ *)

let rec leaf_for node k =
  match node with
  | Leaf l -> l
  | Inner n -> leaf_for n.kids.(child_index n.keys k) k

let rec leftmost_leaf = function
  | Leaf l -> l
  | Inner n -> leftmost_leaf n.kids.(0)

let rec rightmost_leaf = function
  | Leaf l -> l
  | Inner n -> rightmost_leaf n.kids.(Array.length n.kids - 1)

(* Largest entry strictly below bound [b], if any. *)
let pred_entry t b =
  match b with
  | Bound.Low -> None
  | Bound.High ->
      let l = rightmost_leaf t.root in
      let n = Array.length l.entries in
      if n = 0 then None else Some l.entries.(n - 1)
  | Bound.Key k ->
      let l = leaf_for t.root k in
      let i, _found = leaf_search l.entries k in
      if i > 0 then Some l.entries.(i - 1)
      else (
        match l.prev with
        | None -> None
        | Some p ->
            (* Leaves other than a root leaf are never empty. *)
            Some p.entries.(Array.length p.entries - 1))

(* Largest entry at or below bound [b]. *)
let pred_entry_inclusive t b =
  match b with
  | Bound.Low -> None
  | Bound.High -> pred_entry t Bound.High
  | Bound.Key k -> (
      let l = leaf_for t.root k in
      let i, found = leaf_search l.entries k in
      if found then Some l.entries.(i)
      else if i > 0 then Some l.entries.(i - 1)
      else match l.prev with None -> None | Some p -> Some p.entries.(Array.length p.entries - 1))

(* Smallest entry strictly above bound [b], if any. *)
let succ_entry t b =
  match b with
  | Bound.High -> None
  | Bound.Low ->
      let l = leftmost_leaf t.root in
      if Array.length l.entries = 0 then None else Some l.entries.(0)
  | Bound.Key k -> (
      let l = leaf_for t.root k in
      let i, found = leaf_search l.entries k in
      let j = if found then i + 1 else i in
      if j < Array.length l.entries then Some l.entries.(j)
      else
        match l.next with
        | None -> None
        | Some nx -> Some nx.entries.(0))

(* Version of the gap immediately following bound [b] when [b] is an entry or
   sentinel, or the gap containing [b] otherwise: the gap after the largest
   entry at or below [b]. *)
let gap_at_or_after t b =
  match pred_entry_inclusive t b with None -> t.low_gap | Some e -> e.gap_after

let mem t k =
  let l = leaf_for t.root k in
  snd (leaf_search l.entries k)

(* --- queries ------------------------------------------------------------ *)

let lookup t bound =
  match bound with
  | Bound.Low | Bound.High -> Present { version = Version.lowest; value = "" }
  | Bound.Key k ->
      let l = leaf_for t.root k in
      let i, found = leaf_search l.entries k in
      if found then Present { version = l.entries.(i).version; value = l.entries.(i).value }
      else Absent { gap_version = gap_at_or_after t bound }

let predecessor t bound =
  if Bound.equal bound Bound.Low then invalid_arg "Gapmap.predecessor: LOW";
  match pred_entry t bound with
  | Some e ->
      { key = Bound.Key e.key; entry_version = Some e.version; gap_version = e.gap_after }
  | None -> { key = Bound.Low; entry_version = None; gap_version = t.low_gap }

let successor t bound =
  if Bound.equal bound Bound.High then invalid_arg "Gapmap.successor: HIGH";
  let gap_version = gap_at_or_after t bound in
  match succ_entry t bound with
  | Some e -> { key = Bound.Key e.key; entry_version = Some e.version; gap_version }
  | None -> { key = Bound.High; entry_version = None; gap_version }

(* --- insertion ----------------------------------------------------------- *)

(* Result of inserting below a node: [Some (sep, right)] when the node split,
   with [sep] the smallest key reachable in [right]. *)
let rec insert_node t node k version value =
  match node with
  | Leaf l ->
      let i, found = leaf_search l.entries k in
      if found then begin
        l.entries.(i).version <- version;
        l.entries.(i).value <- value;
        None
      end
      else begin
        (* Splitting the gap: the new entry's gap_after is the version of the
           gap it lands in, i.e. the gap after its predecessor. *)
        let gap_after =
          if i > 0 then l.entries.(i - 1).gap_after
          else
            match l.prev with
            | Some p -> p.entries.(Array.length p.entries - 1).gap_after
            | None -> t.low_gap
        in
        l.entries <- array_insert l.entries i { key = k; version; value; gap_after };
        t.size <- t.size + 1;
        if Array.length l.entries <= t.branching then None
        else begin
          let n = Array.length l.entries in
          let mid = n / 2 in
          let right : leaf =
            { entries = Array.sub l.entries mid (n - mid); next = l.next; prev = Some l }
          in
          l.entries <- Array.sub l.entries 0 mid;
          (match right.next with Some nx -> nx.prev <- Some right | None -> ());
          l.next <- Some right;
          Some (right.entries.(0).key, Leaf right)
        end
      end
  | Inner n -> (
      let i = child_index n.keys k in
      match insert_node t n.kids.(i) k version value with
      | None -> None
      | Some (sep, right) ->
          n.keys <- array_insert n.keys i sep;
          n.kids <- array_insert n.kids (i + 1) right;
          if Array.length n.kids <= t.branching then None
          else begin
            let m = Array.length n.kids in
            let mid = m / 2 in
            (* Left keeps kids [0..mid-1]; separator keys.(mid-1) moves up;
               right takes kids [mid..]. *)
            let up = n.keys.(mid - 1) in
            let right_inner =
              {
                keys = Array.sub n.keys mid (Array.length n.keys - mid);
                kids = Array.sub n.kids mid (m - mid);
              }
            in
            n.keys <- Array.sub n.keys 0 (mid - 1);
            n.kids <- Array.sub n.kids 0 mid;
            Some (up, Inner right_inner)
          end)

let insert t k version value =
  match insert_node t t.root k version value with
  | None -> ()
  | Some (sep, right) -> t.root <- Inner { keys = [| sep |]; kids = [| t.root; right |] }

(* --- deletion ------------------------------------------------------------ *)

let node_weight = function
  | Leaf l -> Array.length l.entries
  | Inner n -> Array.length n.kids

(* Restore occupancy of [n.kids.(i)] after a deletion below it, by borrowing
   from or merging with an adjacent sibling. *)
let fix_child t n i =
  let min_weight = t.branching / 2 in
  let cur = n.kids.(i) in
  if node_weight cur >= min_weight then ()
  else begin
    let left = if i > 0 then Some n.kids.(i - 1) else None in
    let right = if i + 1 < Array.length n.kids then Some n.kids.(i + 1) else None in
    match (cur, left, right) with
    | Leaf c, Some (Leaf lft), _ when Array.length lft.entries > min_weight ->
        (* Borrow the left sibling's last entry. *)
        let n_l = Array.length lft.entries in
        let moved = lft.entries.(n_l - 1) in
        lft.entries <- Array.sub lft.entries 0 (n_l - 1);
        c.entries <- array_insert c.entries 0 moved;
        n.keys.(i - 1) <- moved.key
    | Leaf c, _, Some (Leaf rgt) when Array.length rgt.entries > min_weight ->
        (* Borrow the right sibling's first entry. *)
        let moved = rgt.entries.(0) in
        rgt.entries <- array_remove rgt.entries 0;
        c.entries <- array_insert c.entries (Array.length c.entries) moved;
        n.keys.(i) <- rgt.entries.(0).key
    | Leaf c, Some (Leaf lft), _ ->
        (* Merge into the left sibling. *)
        lft.entries <- Array.append lft.entries c.entries;
        lft.next <- c.next;
        (match c.next with Some nx -> nx.prev <- Some lft | None -> ());
        n.keys <- array_remove n.keys (i - 1);
        n.kids <- array_remove n.kids i
    | Leaf c, None, Some (Leaf rgt) ->
        (* Merge the right sibling into this leaf. *)
        c.entries <- Array.append c.entries rgt.entries;
        c.next <- rgt.next;
        (match rgt.next with Some nx -> nx.prev <- Some c | None -> ());
        n.keys <- array_remove n.keys i;
        n.kids <- array_remove n.kids (i + 1)
    | Inner c, Some (Inner lft), _ when Array.length lft.kids > min_weight ->
        (* Rotate through the parent separator. *)
        let n_l = Array.length lft.kids in
        let moved_kid = lft.kids.(n_l - 1) in
        let moved_key = lft.keys.(n_l - 2) in
        lft.kids <- Array.sub lft.kids 0 (n_l - 1);
        lft.keys <- Array.sub lft.keys 0 (n_l - 2);
        c.kids <- array_insert c.kids 0 moved_kid;
        c.keys <- array_insert c.keys 0 n.keys.(i - 1);
        n.keys.(i - 1) <- moved_key
    | Inner c, _, Some (Inner rgt) when Array.length rgt.kids > min_weight ->
        let moved_kid = rgt.kids.(0) in
        let moved_key = rgt.keys.(0) in
        rgt.kids <- array_remove rgt.kids 0;
        rgt.keys <- array_remove rgt.keys 0;
        c.kids <- array_insert c.kids (Array.length c.kids) moved_kid;
        c.keys <- array_insert c.keys (Array.length c.keys) n.keys.(i);
        n.keys.(i) <- moved_key
    | Inner c, Some (Inner lft), _ ->
        lft.keys <- Array.append lft.keys (array_insert c.keys 0 n.keys.(i - 1));
        lft.kids <- Array.append lft.kids c.kids;
        n.keys <- array_remove n.keys (i - 1);
        n.kids <- array_remove n.kids i
    | Inner c, None, Some (Inner rgt) ->
        c.keys <- Array.append (array_insert c.keys (Array.length c.keys) n.keys.(i)) rgt.keys;
        c.kids <- Array.append c.kids rgt.kids;
        n.keys <- array_remove n.keys i;
        n.kids <- array_remove n.kids (i + 1)
    | _, None, None ->
        (* Only possible at the root, which fix_child is never called on. *)
        assert false
    | Leaf _, Some (Inner _), _ | Leaf _, _, Some (Inner _)
    | Inner _, Some (Leaf _), _ | Inner _, _, Some (Leaf _) ->
        (* Siblings are always at the same level. *)
        assert false
  end

let rec remove_node t node k =
  match node with
  | Leaf l ->
      let i, found = leaf_search l.entries k in
      if found then begin
        l.entries <- array_remove l.entries i;
        t.size <- t.size - 1;
        true
      end
      else false
  | Inner n ->
      let i = child_index n.keys k in
      let removed = remove_node t n.kids.(i) k in
      if removed then fix_child t n i;
      removed

let remove t k =
  let removed = remove_node t t.root k in
  (match t.root with
  | Inner n when Array.length n.kids = 1 -> t.root <- n.kids.(0)
  | Inner _ | Leaf _ -> ());
  removed

(* --- range operations ---------------------------------------------------- *)

(* Fold [f] over the entries strictly between two bounds, in ascending
   order: the one leaf walk every range read shares. *)
let fold_between t ~lo ~hi ~init ~f =
  let rec walk acc l i =
    if i >= Array.length l.entries then
      match l.next with None -> acc | Some nx -> walk acc nx 0
    else
      let e = l.entries.(i) in
      if Bound.compare (Bound.Key e.key) hi < 0 then walk (f acc e) l (i + 1) else acc
  in
  match lo with
  | Bound.Low -> walk init (leftmost_leaf t.root) 0
  | Bound.High -> init
  | Bound.Key k ->
      let l = leaf_for t.root k in
      let i, found = leaf_search l.entries k in
      walk init l (if found then i + 1 else i)

let keys_strictly_between t ~lo ~hi =
  List.rev (fold_between t ~lo ~hi ~init:[] ~f:(fun acc e -> e.key :: acc))

let count_strictly_between t ~lo ~hi = fold_between t ~lo ~hi ~init:0 ~f:(fun n _ -> n + 1)

let entries_between t ~lo ~hi =
  List.rev
    (fold_between t ~lo ~hi ~init:[] ~f:(fun acc e ->
         (e.key, e.version, e.value, e.gap_after) :: acc))

let endpoint_exists t = function
  | Bound.Low | Bound.High -> true
  | Bound.Key k -> mem t k

let coalesce t ~lo ~hi version =
  if Bound.compare lo hi >= 0 then invalid_arg "Gapmap.coalesce: lo >= hi";
  if not (endpoint_exists t lo) then raise (Missing_endpoint lo);
  if not (endpoint_exists t hi) then raise (Missing_endpoint hi);
  let doomed = keys_strictly_between t ~lo ~hi in
  List.iter (fun k -> ignore (remove t k)) doomed;
  (match lo with
  | Bound.Low -> t.low_gap <- version
  | Bound.Key k ->
      (match pred_entry_inclusive t (Bound.Key k) with
      | Some e when Key.equal e.key k -> e.gap_after <- version
      | Some _ | None -> assert false)
  | Bound.High -> assert false);
  List.length doomed

let set_gap_after t b version =
  match b with
  | Bound.High -> invalid_arg "Gapmap.set_gap_after: HIGH"
  | Bound.Low -> t.low_gap <- version
  | Bound.Key k -> (
      match pred_entry_inclusive t (Bound.Key k) with
      | Some e when Key.equal e.key k -> e.gap_after <- version
      | Some _ | None -> raise (Missing_endpoint b))

(* --- iteration ----------------------------------------------------------- *)

let fold_entries t ~init ~f =
  let rec walk acc l i =
    if i >= Array.length l.entries then
      match l.next with None -> acc | Some nx -> walk acc nx 0
    else walk (f acc l.entries.(i)) l (i + 1)
  in
  walk init (leftmost_leaf t.root) 0

let entries t =
  List.rev (fold_entries t ~init:[] ~f:(fun acc e -> (e.key, e.version, e.value) :: acc))

let gaps t =
  let items =
    List.rev (fold_entries t ~init:[] ~f:(fun acc e -> (e.key, e.gap_after) :: acc))
  in
  let rec go left gap_version = function
    | [] -> [ (left, Bound.High, gap_version) ]
    | (k, gap_after) :: rest ->
        (left, Bound.Key k, gap_version) :: go (Bound.Key k) gap_after rest
  in
  go Bound.Low t.low_gap items

(* --- validation ---------------------------------------------------------- *)

let check_invariants t =
  let exception Bad of string in
  let fail fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt in
  let min_weight = t.branching / 2 in
  (* Returns (depth, first_key, last_key) for non-empty subtrees. *)
  let rec check node ~is_root =
    match node with
    | Leaf l ->
        let n = Array.length l.entries in
        if (not is_root) && n < min_weight then fail "leaf underfull (%d < %d)" n min_weight;
        if n > t.branching then fail "leaf overfull (%d)" n;
        for i = 0 to n - 2 do
          if Key.compare l.entries.(i).key l.entries.(i + 1).key >= 0 then
            fail "leaf out of order at %a" Key.pp l.entries.(i).key
        done;
        if n = 0 then (1, None, None)
        else (1, Some l.entries.(0).key, Some l.entries.(n - 1).key)
    | Inner node ->
        let kids = Array.length node.kids in
        if Array.length node.keys <> kids - 1 then fail "separator count mismatch";
        if (not is_root) && kids < min_weight then fail "inner underfull";
        if is_root && kids < 2 then fail "root inner with < 2 children";
        if kids > t.branching then fail "inner overfull";
        let results = Array.map (fun kid -> check kid ~is_root:false) node.kids in
        Array.iteri
          (fun i (_, first, last) ->
            (* Separator correctness: kid i's keys < keys.(i) <= kid (i+1)'s. *)
            (match first with
            | Some f when i > 0 && Key.compare f node.keys.(i - 1) < 0 ->
                fail "separator violated: %a < %a" Key.pp f Key.pp node.keys.(i - 1)
            | Some _ | None -> ());
            match last with
            | Some l when i < Array.length node.keys && Key.compare l node.keys.(i) >= 0 ->
                fail "separator violated: %a >= %a" Key.pp l Key.pp node.keys.(i)
            | Some _ | None -> ())
          results;
        let depth0, _, _ = results.(0) in
        Array.iter
          (fun (d, _, _) -> if d <> depth0 then fail "leaves at different depths")
          results;
        let _, first, _ = results.(0) in
        let _, _, last = results.(kids - 1) in
        (1 + depth0, first, last)
  in
  try
    let _ = check t.root ~is_root:true in
    (* Leaf chain covers exactly the entries, in order, with sane links. *)
    let count = fold_entries t ~init:0 ~f:(fun acc _ -> acc + 1) in
    if count <> t.size then Error (Printf.sprintf "size mismatch: chain %d vs %d" count t.size)
    else Ok ()
  with Bad msg -> Error msg

let pp ppf t =
  Format.fprintf ppf "LOW -%a-" Version.pp t.low_gap;
  fold_entries t ~init:() ~f:(fun () e ->
      Format.fprintf ppf " %a:%a -%a-" Key.pp e.key Version.pp e.version Version.pp e.gap_after);
  Format.fprintf ppf " HIGH"

include Gapmap_intf.Sync_ops (struct
  type nonrec t = t

  let create = create
  let size = size
  let mem = mem
  let lookup = lookup
  let predecessor = predecessor
  let successor = successor
  let insert = insert
  let coalesce = coalesce
  let remove = remove
  let set_gap_after = set_gap_after
  let entries = entries
  let gaps = gaps
  let count_strictly_between = count_strictly_between
  let entries_between = entries_between
  let check_invariants = check_invariants
  let pp = pp
end)
