(** Interface shared by the gap-versioned map implementations.

    A gap map is the state of one directory representative: an ordered set of
    entries [(key, version, value)] bracketed by the LOW and HIGH sentinels,
    with every *gap* between adjacent entries (or between a sentinel and its
    neighbouring entry) carrying its own version number. The dynamic
    partition of §2 of the paper is exactly: each entry is a one-key range
    with its own version; each gap is a range with its own version.

    Two implementations satisfy {!S}: {!module:Reference} (sorted list;
    obviously correct, used as the model in property tests) and
    {!module:Btree} (imperative B+tree with gap versions stored in bounding
    entries, as §5 of the paper envisions).

    Beyond the paper's Figure 6 operations, {!S} includes the anti-entropy
    surface: range digests (a checksum fold of the map's state over a key
    range, so two representatives can cheaply compare ranges), range
    transfers, and a version-monotone merge that applies a peer's newer
    entries and gap versions without ever lowering — or fabricating — a
    version number. The merge logic is shared by both implementations via
    {!Sync_ops}, so it is written (and property-tested) once. *)

open Repdir_key

type value = string

(** Result of looking up a single key. *)
type lookup =
  | Present of { version : Version.t; value : value }
  | Absent of { gap_version : Version.t }
      (** The version of the gap in which the key falls. *)

(** Result of a predecessor/successor query: the neighbouring entry (possibly
    a sentinel) and the version of the gap separating it from the queried
    key. [entry_version] is [None] exactly when [key] is a sentinel. *)
type neighbor = {
  key : Bound.t;
  entry_version : Version.t option;
  gap_version : Version.t;
}

(** Raised by [coalesce] when one of the range endpoints is not an existing
    entry (or sentinel), mirroring the error the paper specifies for
    [DirRepCoalesce]. *)
exception Missing_endpoint of Bound.t

(* --- anti-entropy types -------------------------------------------------- *)

(** Summary of a map's state over a half-open range [(lo, hi]]: an FNV-1a
    fold of every entry (key, version, value, following-gap version) strictly
    inside, the version of the gap just above [lo], and the state at [hi]
    itself. Two maps have equal digests for a range iff they agree pointwise
    on it (up to hash collision). *)
type digest = { hash : int64; n_entries : int }

(** The state of the range endpoint [hi] as seen by the sending map. *)
type hi_state =
  | Hi_sentinel  (** [hi] is HIGH (or by convention LOW): nothing to say *)
  | Hi_entry of Version.t * value  (** [hi] is a stored entry *)
  | Hi_absent of Version.t  (** [hi] falls in a gap with this version *)

(** A versioned range transfer: everything a peer knows about [(t_lo, t_hi]].
    [t_items] are the entries strictly inside, ascending, each with the
    version of the gap that follows it (the last one's gap runs up to
    [t_hi]); [t_low_gap] is the version of the gap just above [t_lo]. *)
type transfer = {
  t_lo : Bound.t;
  t_hi : Bound.t;
  t_low_gap : Version.t;
  t_items : (Key.t * Version.t * value * Version.t) list;
  t_hi_state : hi_state;
}

(** Primitive steps of a merge, in application order. Keeping the plan
    explicit lets the representative undo-log each step's inverse and write
    the whole plan to its WAL as one redo record. *)
type sync_op =
  | Sync_put of Key.t * Version.t * value
      (** Install or overwrite an entry the peer holds at a higher version. *)
  | Sync_del of Key.t
      (** Remove an entry dominated by a peer gap; only planned when both
          adjacent gap versions already equal the dominating version, so the
          merged gap is exact. *)
  | Sync_gap of Bound.t * Version.t
      (** Raise the version of the gap following the bound. *)

type sync_plan = {
  ops : sync_op list;
  ghosts_kept : int;
      (** Entries a peer gap dominates that could not be removed exactly
          (their surrounding gap versions disagree with the dominating
          version); they stay behind as harmless ghosts and are retried on a
          later round. *)
}

(** What a merge actually did, for the sync-traffic counters. *)
type applied = {
  installed : int;  (** fresh entries created *)
  updated : int;  (** entries overwritten in place *)
  deleted : int;  (** dominated entries removed *)
  gaps_raised : int;  (** gap versions raised *)
  ghosts_kept : int;
}

let empty_applied =
  { installed = 0; updated = 0; deleted = 0; gaps_raised = 0; ghosts_kept = 0 }

let pp_digest ppf d = Format.fprintf ppf "%016Lx/%d" d.hash d.n_entries

let pp_sync_op ppf = function
  | Sync_put (k, v, _) -> Format.fprintf ppf "put %a:%a" Key.pp k Version.pp v
  | Sync_del k -> Format.fprintf ppf "del %a" Key.pp k
  | Sync_gap (b, v) -> Format.fprintf ppf "gap %a->%a" Bound.pp b Version.pp v

(** The paper-facing map operations (Figure 6 plus recovery helpers). *)
module type BASE = sig
  type t

  val create : unit -> t
  (** An empty directory: only LOW and HIGH, one gap at version
      {!Version.lowest} between them. *)

  val size : t -> int
  (** Number of real (non-sentinel) entries. *)

  val mem : t -> Key.t -> bool

  val lookup : t -> Bound.t -> lookup
  (** Sentinels are always present with version {!Version.lowest}. *)

  val predecessor : t -> Bound.t -> neighbor
  (** Largest entry strictly below the argument, together with the version of
      the gap between them (the gap following that entry). Raises
      [Invalid_argument] on [Low]. *)

  val successor : t -> Bound.t -> neighbor
  (** Smallest entry strictly above the argument, together with the version
      of the gap between the argument and that entry (the gap preceding it).
      Raises [Invalid_argument] on [High]. *)

  val insert : t -> Key.t -> Version.t -> value -> unit
  (** Create or overwrite the entry for the key. A fresh entry splits the gap
      containing the key; both halves keep the old gap's version (Fig. 4 of
      the paper). *)

  val coalesce : t -> lo:Bound.t -> hi:Bound.t -> Version.t -> int
  (** Delete every entry strictly between [lo] and [hi] and give the
      resulting single gap the supplied version. Returns the number of
      entries deleted. Raises {!Missing_endpoint} if [lo] or [hi] is neither
      a stored entry nor a sentinel, and [Invalid_argument] if [lo >= hi]. *)

  val remove : t -> Key.t -> bool
  (** Low-level removal of a single entry, used by transaction undo. The two
      gaps adjoining the entry merge into one that keeps the *predecessor's*
      gap version (which equals the removed entry's former gap when undoing
      an insert, since insert gave both halves the same version). Returns
      false if the key was absent. Directory deletion must go through
      {!coalesce}; this operation exists for the recovery layer. *)

  val set_gap_after : t -> Bound.t -> Version.t -> unit
  (** [set_gap_after t b v] sets the version of the gap immediately following
      [b], where [b] must be [Low] or an existing entry. Used by transaction
      undo and write-ahead-log replay. Raises {!Missing_endpoint} otherwise
      and [Invalid_argument] on [High]. *)

  val entries : t -> (Key.t * Version.t * value) list
  (** All real entries in ascending key order. *)

  val gaps : t -> (Bound.t * Bound.t * Version.t) list
  (** All gaps, ascending: [(left bound, right bound, gap version)]. There
      are always [size t + 1] gaps. *)

  val count_strictly_between : t -> lo:Bound.t -> hi:Bound.t -> int
  (** Number of entries [e] with [lo < e < hi]; the paper's "entries in
      ranges coalesced" statistic counts these. *)

  val entries_between : t -> lo:Bound.t -> hi:Bound.t -> (Key.t * Version.t * value * Version.t) list
  (** Entries strictly between the bounds, ascending, each with the version
      of the gap that follows it. Used by transaction undo (a coalesce must
      be able to restore exactly what it destroyed). *)

  val check_invariants : t -> (unit, string) result
  (** Structural validation: entry order, gap count, implementation-specific
      shape (B+tree balance, occupancy). *)

  val pp : Format.formatter -> t -> unit
  (** Rendering in the style of the paper's figures:
      [LOW -0- a:1 -0- c:1 -0- HIGH] (gap versions between dashes). *)
end

(** Anti-entropy operations, derived once from {!BASE} so the reference and
    B+tree implementations share the (subtle) merge logic byte for byte. *)
module Sync_ops (M : BASE) = struct
  module C = Repdir_util.Checksum

  let check_range ~what lo hi =
    if Bound.compare lo hi >= 0 then
      invalid_arg (Printf.sprintf "Gapmap.%s: lo >= hi" what)

  (* Version of the gap immediately above [lo]: the gap separating [lo] from
     its successor entry. *)
  let gap_above m lo = (M.successor m lo).gap_version

  let hi_state_of m hi =
    match hi with
    | Bound.Low | Bound.High -> Hi_sentinel
    | Bound.Key _ -> (
        match M.lookup m hi with
        | Present { version; value } -> Hi_entry (version, value)
        | Absent { gap_version } -> Hi_absent gap_version)

  (* The checksum fold over (lo, hi] — every entry with the gap that follows
     it, then [hi]'s own state — started from [seed]. *)
  let digest_fold m ~lo ~hi seed =
    let h = ref seed in
    let n = ref 0 in
    let fold_entry k v value g =
      incr n;
      let ks = Key.to_string k in
      h := C.int !h (String.length ks);
      h := C.string !h ks;
      h := C.int !h (Version.to_int v);
      h := C.int !h (String.length value);
      h := C.string !h value;
      h := C.int !h (Version.to_int g)
    in
    List.iter (fun (k, v, value, g) -> fold_entry k v value g) (M.entries_between m ~lo ~hi);
    (match hi_state_of m hi with
    | Hi_sentinel -> h := C.int !h 0
    | Hi_entry (v, value) ->
        incr n;
        h := C.int !h 1;
        h := C.int !h (Version.to_int v);
        h := C.int !h (String.length value);
        h := C.string !h value
    | Hi_absent g ->
        h := C.int !h 2;
        h := C.int !h (Version.to_int g));
    { hash = !h; n_entries = !n }

  let digest_range m ~lo ~hi =
    check_range ~what:"digest_range" lo hi;
    digest_fold m ~lo ~hi (C.int C.init (Version.to_int (gap_above m lo)))

  (* Like {!digest_range} but without the version of the gap immediately
     above [lo]. That gap can physically extend below [lo] (nothing pins an
     entry at an arbitrary range boundary), so its version is shared with —
     and bumped by — deletions outside [(lo, hi]]. A convergence gate over a
     frozen slice must not depend on it: the slice's entries and its interior
     absence proofs are frozen, the boundary gap's version is not. *)
  let digest_interior_range m ~lo ~hi =
    check_range ~what:"digest_interior_range" lo hi;
    digest_fold m ~lo ~hi C.init

  let split_range m ~lo ~hi ~arity =
    check_range ~what:"split_range" lo hi;
    if arity < 2 then invalid_arg "Gapmap.split_range: arity must be >= 2";
    let keys =
      Array.of_list (List.map (fun (k, _, _, _) -> k) (M.entries_between m ~lo ~hi))
    in
    let n = Array.length keys in
    if n < 2 then []
    else begin
      let picks = ref [] in
      for i = arity - 1 downto 1 do
        let idx = i * n / arity in
        if idx > 0 && idx < n then
          match !picks with
          | Bound.Key k :: _ when Key.equal k keys.(idx) -> ()
          | _ -> picks := Bound.Key keys.(idx) :: !picks
      done;
      !picks
    end

  let pull_range m ~lo ~hi =
    check_range ~what:"pull_range" lo hi;
    {
      t_lo = lo;
      t_hi = hi;
      t_low_gap = gap_above m lo;
      t_items = M.entries_between m ~lo ~hi;
      t_hi_state = hi_state_of m hi;
    }

  (* The merge planner. Pointwise rule: for every point x in (lo, hi], if the
     peer's version at x exceeds ours, adopt the peer's state at x; never
     lower a version, and never raise one beyond what the peer attests.
     Three passes over a read-only snapshot:

     1. puts — peer entries (and the hi-boundary entry) whose version beats
        our version at that key, whether we hold an older entry or a gap;
     2. gap raises — for every gap fragment (delimited by our entries plus
        the entries pass 1 will install) lying wholly inside the range, raise
        to the *minimum* peer version over the fragment if that beats ours.
        The minimum counts rejected (stale) peer entries too, which caps it
        at our own version there — so a fragment never rises above what the
        peer actually attests at every point;
     3. deletes — our entries covered by a strictly newer peer gap, removed
        only when both adjacent fragment versions (after pass 2) equal the
        dominating version, so the post-removal merged gap is exact. The
        rest stay as ghosts and are retried next round.

     The plan is a pure function of (map, transfer); applying [ops] in order
     with {!apply_sync_op} realizes it. *)
  let plan_transfer m (tr : transfer) : sync_plan =
    check_range ~what:"plan_transfer" tr.t_lo tr.t_hi;
    let lo = tr.t_lo and hi = tr.t_hi in
    let local_version_at k =
      match M.lookup m (Bound.Key k) with
      | Present { version; _ } -> version
      | Absent { gap_version } -> gap_version
    in
    (* Pass 1: puts. *)
    let puts =
      List.filter_map
        (fun (k, v, value, _) ->
          if Version.compare v (local_version_at k) > 0 then Some (k, v, value) else None)
        tr.t_items
    in
    let hi_put =
      match (hi, tr.t_hi_state) with
      | Bound.Key k, Hi_entry (v, value) when Version.compare v (local_version_at k) > 0 ->
          Some (k, v, value)
      | _ -> None
    in
    let installed_fresh =
      List.filter
        (fun (k, _, _) ->
          match M.lookup m (Bound.Key k) with Present _ -> false | Absent _ -> true)
        (puts @ Option.to_list hi_put)
      |> List.map (fun (k, _, _) -> k)
    in
    (* Peer pieces over (lo, hi): alternating gaps and entries. A peer gap
       piece (p, q, v) attests every point of (p, q) absent at version v. *)
    let peer_gaps =
      let rec go left gv = function
        | [] -> [ (left, hi, gv) ]
        | (k, _, _, g) :: rest -> (left, Bound.Key k, gv) :: go (Bound.Key k) g rest
      in
      go lo tr.t_low_gap tr.t_items
    in
    let peer_entries = List.map (fun (k, v, _, _) -> (k, v)) tr.t_items in
    (* Effective boundaries: our entries inside the range plus freshly
       installed peer keys; fragments are the open intervals between
       consecutive boundaries (range ends included). *)
    let local_inside = M.entries_between m ~lo ~hi in
    let boundaries =
      List.sort_uniq Key.compare
        (List.map (fun (k, _, _, _) -> k) local_inside @ installed_fresh)
    in
    let cuts = (lo :: List.map (fun k -> Bound.Key k) boundaries) @ [ hi ] in
    let rec fragments = function
      | a :: (b :: _ as rest) -> (a, b) :: fragments rest
      | _ -> []
    in
    let is_local_entry = function
      | Bound.Low | Bound.High -> true
      | Bound.Key k -> M.mem m k
    in
    let installed b =
      match b with
      | Bound.Low | Bound.High -> false
      | Bound.Key k -> List.exists (Key.equal k) installed_fresh
    in
    let anchored b = is_local_entry b || installed b in
    (* Minimum peer-attested version over the open fragment (a, b): peer gap
       pieces that overlap it, plus rejected peer entries strictly inside. *)
    let peer_min (a, b) =
      let acc = ref None in
      let note v = acc := Some (match !acc with None -> v | Some m -> min m v) in
      List.iter
        (fun (p, q, v) -> if Bound.compare p b < 0 && Bound.compare a q < 0 then note v)
        peer_gaps;
      List.iter
        (fun (k, v) ->
          let bk = Bound.Key k in
          if Bound.compare a bk < 0 && Bound.compare bk b < 0 then note v)
        peer_entries;
      !acc
    in
    (* Pass 2: gap raises. [frag_version] records each fragment's version
       after the pass, for the delete pass to consult. *)
    let frag_versions = Hashtbl.create 16 in
    let raises = ref [] in
    List.iter
      (fun (a, b) ->
        let v_loc = (M.successor m a).gap_version in
        let v' =
          if not (anchored a && anchored b) then v_loc
          else
            match peer_min (a, b) with
            | Some pv when Version.compare pv v_loc > 0 ->
                raises := Sync_gap (a, pv) :: !raises;
                pv
            | Some _ | None -> v_loc
        in
        Hashtbl.replace frag_versions a (v', b))
      (fragments cuts);
    let raises = List.rev !raises in
    (* Pass 3: deletes of dominated local entries. *)
    let peer_has k = List.exists (fun (k', _) -> Key.equal k k') peer_entries in
    let dominating_gap k =
      let bk = Bound.Key k in
      List.find_map
        (fun (p, q, v) ->
          if Bound.compare p bk < 0 && Bound.compare bk q < 0 then Some v else None)
        peer_gaps
    in
    let prev_cut k =
      (* Largest cut strictly below k; cuts are ascending. *)
      let bk = Bound.Key k in
      List.fold_left (fun acc c -> if Bound.compare c bk < 0 then c else acc) lo cuts
    in
    let deletes = ref [] and ghosts = ref 0 in
    List.iter
      (fun (k, v, _, _) ->
        if not (peer_has k) then
          match dominating_gap k with
          | Some gv when Version.compare gv v > 0 -> (
              let left = prev_cut k in
              match (Hashtbl.find_opt frag_versions left, Hashtbl.find_opt frag_versions (Bound.Key k)) with
              | Some (lv, _), Some (rv, _) when Version.equal lv gv && Version.equal rv gv ->
                  deletes := Sync_del k :: !deletes
              | _ -> incr ghosts)
          | Some _ | None -> ())
      local_inside;
    let put_ops = List.map (fun (k, v, value) -> Sync_put (k, v, value)) (puts @ Option.to_list hi_put) in
    { ops = put_ops @ raises @ List.rev !deletes; ghosts_kept = !ghosts }

  let apply_sync_op m = function
    | Sync_put (k, v, value) -> M.insert m k v value
    | Sync_del k -> ignore (M.remove m k)
    | Sync_gap (b, v) -> M.set_gap_after m b v

  let apply_transfer m tr =
    let plan = plan_transfer m tr in
    let acc = ref { empty_applied with ghosts_kept = plan.ghosts_kept } in
    List.iter
      (fun op ->
        (match op with
        | Sync_put (k, _, _) -> (
            match M.lookup m (Bound.Key k) with
            | Present _ -> acc := { !acc with updated = !acc.updated + 1 }
            | Absent _ -> acc := { !acc with installed = !acc.installed + 1 })
        | Sync_del _ -> acc := { !acc with deleted = !acc.deleted + 1 }
        | Sync_gap _ -> acc := { !acc with gaps_raised = !acc.gaps_raised + 1 });
        apply_sync_op m op)
      plan.ops;
    !acc
end

module type SYNC = sig
  type t

  val digest_range : t -> lo:Bound.t -> hi:Bound.t -> digest
  (** Digest of the map's state over [(lo, hi]]; O(entries in the range).
      Raises [Invalid_argument] if [lo >= hi]. *)

  val digest_interior_range : t -> lo:Bound.t -> hi:Bound.t -> digest
  (** Like {!digest_range} but excluding the version of the gap immediately
      above [lo], which can be shared with (and concurrently bumped by)
      deletions below [lo]. Used by convergence gates over frozen slices
      whose low boundary falls inside a live gap. *)

  val split_range : t -> lo:Bound.t -> hi:Bound.t -> arity:int -> Bound.t list
  (** Up to [arity - 1] distinct interior entry keys cutting the range into
      roughly entry-equal sub-ranges, ascending; [[]] when the range holds
      fewer than two entries. Raises [Invalid_argument] if [arity < 2]. *)

  val pull_range : t -> lo:Bound.t -> hi:Bound.t -> transfer
  (** Everything this map knows about [(lo, hi]]. *)

  val plan_transfer : t -> transfer -> sync_plan
  (** Read-only: the version-monotone merge of a peer transfer into this
      map, as primitive steps in application order. *)

  val apply_sync_op : t -> sync_op -> unit

  val apply_transfer : t -> transfer -> applied
  (** [plan_transfer] followed by the ops; digests over the transferred
      range converge toward the pointwise-newest of the two maps. *)
end

module type S = sig
  include BASE
  include SYNC with type t := t
end
