open Repdir_key
open Repdir_txn
open Repdir_core
module Rep = Repdir_rep.Rep

(* The client-side shard router: one per client, holding the client's current
   shard map and one suite per replica group. Every operation resolves its
   key through the map, runs on the owning group's suite, and adopts newer
   maps carried by the shard-map fence's [Rep.Stale_epoch] rejections. *)

type t = {
  map : Shard_map.t ref;
  suites : Suite.t array;  (* index = group *)
  refresh : (int -> string option) option;
      (* peek a group's installed shard view — how a router blocked on a
         [Moving] range learns the flip landed without waiting to be fenced *)
}

(* Adopt-and-retry rounds per operation. *)
let retries = 8

let group_label mref g () =
  let m = !mref in
  let owned =
    List.filter_map
      (fun (r, st) ->
        match st with
        | Shard_map.Serving g' when g' = g -> Some (Format.asprintf "%a" Shard_map.pp_range r)
        | Shard_map.Moving { from_g; to_g } when from_g = g || to_g = g ->
            Some (Format.asprintf "%a(moving)" Shard_map.pp_range r)
        | _ -> None)
      (Shard_map.shards m)
  in
  Format.asprintf "group %d %s (shard epoch %d)" g
    (String.concat " " owned) (Shard_map.epoch_of m)

(* [groups] may exceed the initial map's group count: a deployment whose
   later maps split ranges onto fresh groups needs suites provisioned for
   them up front (the suites are lazy about talking to anyone — an unrouted
   group's suite never sends a message). *)
let create ?refresh ?groups ~map ~txns ~make_suite () =
  let groups =
    max (Shard_map.n_groups map) (match groups with None -> 0 | Some g -> g)
  in
  let mref = ref map in
  let suites =
    Array.init groups (fun g ->
        make_suite g
          {
            Suite.shard_label = group_label mref g;
            shard_epoch = (fun () -> Shard_map.epoch_of !mref);
          })
  in
  let coord = Suite.coordinator suites.(0) in
  Array.iter
    (fun s ->
      if Suite.coordinator s != coord || Suite.txns s != txns then
        invalid_arg
          "Router.create: all group suites must share one coordinator and transaction manager")
    suites;
  { map = mref; suites; refresh }

let epoch t = Shard_map.epoch_of !(t.map)
let n_groups t = Array.length t.suites
let suite t g = t.suites.(g)

(* Map adoption is forward-only, like membership adoption; any advance
   re-derives every suite's cache epoch so lines cached under the old
   ownership die immediately. *)
let set_map t m =
  if Shard_map.epoch_of m > Shard_map.epoch_of !(t.map) then begin
    t.map := m;
    Array.iter Suite.sync_cache_epoch t.suites
  end

let adopt t record =
  match Shard_map.decode record with Ok m -> set_map t m | Error _ -> ()

let refresh t g =
  match t.refresh with
  | None -> ()
  | Some peek -> ( match peek g with Some r -> adopt t r | None -> ())

(* --- routing -------------------------------------------------------------------- *)

(* Reads during a migration stay on the source group: the slice is
   write-frozen there (the Moving epoch fences every write quorum), so the
   source remains authoritative until the flip. *)
let read_group m shard =
  match Shard_map.state_of m ~shard with
  | Shard_map.Serving g -> g
  | Shard_map.Moving { from_g; _ } -> from_g

(* Writes to a moving range are refused. Before giving up, peek the source
   group's installed view — the flip lands on the source group first, so a
   blocked writer learns the new map without waiting to be fenced. The key
   is re-resolved against the adopted map: a split may have changed shard
   indices. *)
let write_group t b =
  let m = !(t.map) in
  match Shard_map.state_of m ~shard:(Shard_map.find m b) with
  | Shard_map.Serving g -> g
  | Shard_map.Moving { from_g; _ } -> (
      refresh t from_g;
      let m = !(t.map) in
      let shard = Shard_map.find m b in
      match Shard_map.state_of m ~shard with
      | Shard_map.Serving g -> g
      | Shard_map.Moving _ ->
          raise
            (Suite.Unavailable
               (Format.asprintf "%s is migrating"
                  (Shard_map.shard_label m ~shard))))

(* Adopt-and-retry around a whole operation: a fence rejection aborted the
   attempt's (implicit) transaction and carries the newer map, so
   re-resolving the key against the adopted map and re-running is exactly
   the membership adoption dance, one level up. Only sound when the router
   owns the operation's transaction — an operation inside a caller-supplied
   transaction cannot be re-run in place (its earlier operations ran under
   the stale map), so it propagates and the enclosing {!with_txn} turns the
   rejection into a retryable abort. *)
let rec run_retry t n f =
  try f () with
  | Rep.Stale_epoch { fence = Shard_map; record; _ } when n > 0 ->
      adopt t record;
      run_retry t (n - 1) f

let run ~txn t f =
  match txn with Some _ -> f () | None -> run_retry t retries f

(* --- single-shard operations ------------------------------------------------------ *)

(* Each resolves the key against the *current* map on every attempt and
   delegates to the owning group's suite — on a single-group map this is one
   array lookup and then exactly the seed path. *)

let lookup ?txn t key =
  run ~txn t (fun () ->
      let m = !(t.map) in
      Suite.lookup ?txn t.suites.(read_group m (Shard_map.find m (Bound.key key))) key)

let mem ?txn t key =
  run ~txn t (fun () ->
      let m = !(t.map) in
      Suite.mem ?txn t.suites.(read_group m (Shard_map.find m (Bound.key key))) key)

let insert ?txn t key value =
  run ~txn t (fun () ->
      Suite.insert ?txn t.suites.(write_group t (Bound.key key)) key value)

let update ?txn t key value =
  run ~txn t (fun () ->
      Suite.update ?txn t.suites.(write_group t (Bound.key key)) key value)

let delete ?txn t key =
  run ~txn t (fun () ->
      Suite.delete ?txn t.suites.(write_group t (Bound.key key)) key)

(* --- cross-shard transactions ----------------------------------------------------- *)

(* The suites' one commit driver runs the transaction over every group; a
   group it never touched sends nothing. A mid-transaction fence rejection
   cannot be retried in place — the earlier operations ran under the stale
   map — so adopt and surface a retryable abort, mirroring the membership
   suite's behaviour. *)
let with_txn t f =
  try Suite.with_txns t.suites f
  with Rep.Stale_epoch { fence = Shard_map; record; _ } ->
    adopt t record;
    raise (Txn.Abort (Txn.Unavailable "shard map epoch advanced mid-transaction"))

(* --- cross-shard traversal -------------------------------------------------------- *)

(* A group's directory physically tiles the whole key space (it keeps its
   own LOW/HIGH sentinels and, after a migration, possibly stale residue of
   ranges it no longer owns), so traversal answers are only authoritative
   inside the group's owned ranges: the router clamps every probe result to
   the probed shard's range and walks into the adjacent shard when the
   answer falls outside it. *)

(* The nearest current entry beyond [b] — upward when [up], downward
   otherwise — or at [b] when [inclusive], walking shards from b's owner
   toward that end (the paper's RealSuccessor/RealPredecessor, one level
   up). A sentinel probe is the group's [first]/[last]; an inclusive probe
   is a lookup first, so the history recorder sees it. The step to the
   adjacent shard probes the shared bound: inclusively going up and
   exclusively going down, because the bound belongs to the upper shard. *)
let walk t ~txn ~up ~inclusive b =
  let m = !(t.map) in
  let rec go i b inclusive =
    let r = Shard_map.range_of m ~shard:i in
    let s = t.suites.(read_group m i) in
    let res =
      match b with
      | Bound.Low | Bound.High -> (if up then Suite.first else Suite.last) ~txn s
      | Bound.Key k -> (
          match if inclusive then Suite.lookup ~txn s k else None with
          | Some (ver, v) -> Some (k, ver, v)
          | None -> (if up then Suite.next else Suite.prev) ~txn s k)
    in
    match res with
    | Some (k, _, _) as hit when Shard_map.range_contains r (Bound.key k) -> hit
    | _ ->
        let edge = if up then r.hi else r.lo in
        if Bound.equal edge (if up then Bound.High else Bound.Low) then None
        else go (if up then i + 1 else i - 1) edge up
  in
  go (Shard_map.find m b) b inclusive

(* Traversals span groups, so each runs as one cross-shard transaction for a
   consistent snapshot under strict 2PL — unless the caller supplied its
   own. When the router owns the transaction, a fence rejection (already
   adopted and converted to a retryable abort by [with_txn]) re-runs the
   whole traversal under the new map. *)
let traverse t txn body =
  match txn with
  | Some txn -> body txn
  | None ->
      let rec go n =
        try with_txn t body
        with Txn.Abort (Txn.Unavailable _) when n > 0 -> go (n - 1)
      in
      go retries

let next ?txn t key =
  traverse t txn (fun txn -> walk t ~txn ~up:true ~inclusive:false (Bound.key key))

let prev ?txn t key =
  traverse t txn (fun txn -> walk t ~txn ~up:false ~inclusive:false (Bound.key key))

let first ?txn t = traverse t txn (fun txn -> walk t ~txn ~up:true ~inclusive:true Bound.Low)
let last ?txn t = traverse t txn (fun txn -> walk t ~txn ~up:false ~inclusive:true Bound.High)
