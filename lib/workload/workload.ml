open Repdir_util
open Repdir_key

type op =
  | Lookup of Key.t
  | Insert of Key.t * string
  | Update of Key.t * string
  | Delete of Key.t

let pp_op ppf = function
  | Lookup k -> Format.fprintf ppf "lookup %a" Key.pp k
  | Insert (k, _) -> Format.fprintf ppf "insert %a" Key.pp k
  | Update (k, _) -> Format.fprintf ppf "update %a" Key.pp k
  | Delete k -> Format.fprintf ppf "delete %a" Key.pp k

(* The key mirror: O(1) uniform pick and delete via the swap-with-last
   trick over a dynamic array plus a position table. *)
type t = {
  rng : Rng.t;
  target_size : int;
  update_fraction : float;
  lookup_fraction : float;
  mutable keys : Key.t array;
  mutable count : int;
  positions : (Key.t, int) Hashtbl.t;
  mutable op_counter : int;
}

(* Fresh keys are random strings this long: an effectively unbounded
   universe. *)
let key_len = 12

let create ?(update_fraction = 1.0 /. 3.0) ?(lookup_fraction = 0.0) ~rng ~target_size () =
  if target_size <= 0 then invalid_arg "Workload.create: target_size must be positive";
  if update_fraction < 0.0 || lookup_fraction < 0.0
     || update_fraction +. lookup_fraction > 1.0
  then invalid_arg "Workload.create: bad fractions";
  {
    rng;
    target_size;
    update_fraction;
    lookup_fraction;
    keys = Array.make (max 16 (2 * target_size)) "";
    count = 0;
    positions = Hashtbl.create (2 * target_size);
    op_counter = 0;
  }

let size t = t.count

let add_key t k =
  if t.count = Array.length t.keys then begin
    let bigger = Array.make (2 * Array.length t.keys) "" in
    Array.blit t.keys 0 bigger 0 t.count;
    t.keys <- bigger
  end;
  t.keys.(t.count) <- k;
  Hashtbl.replace t.positions k t.count;
  t.count <- t.count + 1

let remove_key t k =
  match Hashtbl.find_opt t.positions k with
  | None -> invalid_arg "Workload.remove_key: unknown key"
  | Some i ->
      let last = t.keys.(t.count - 1) in
      t.keys.(i) <- last;
      Hashtbl.replace t.positions last i;
      Hashtbl.remove t.positions k;
      t.count <- t.count - 1

let random_existing_key t =
  if t.count = 0 then None else Some t.keys.(Rng.int t.rng t.count)

let fresh_key t =
  let rec draw () =
    let k = Key.random t.rng ~len:key_len in
    if Hashtbl.mem t.positions k then draw () else k
  in
  draw ()

let fresh_value t =
  t.op_counter <- t.op_counter + 1;
  Printf.sprintf "value-%d" t.op_counter

let next t =
  let roll = Rng.float t.rng 1.0 in
  if roll < t.lookup_fraction then
    match random_existing_key t with
    | Some k when Rng.bool t.rng -> Lookup k
    | Some _ | None -> Lookup (Key.random t.rng ~len:key_len)
  else if roll < t.lookup_fraction +. t.update_fraction && t.count > 0 then begin
    match random_existing_key t with
    | Some k -> Update (k, fresh_value t)
    | None -> assert false
  end
  else if t.count < t.target_size then begin
    let k = fresh_key t in
    add_key t k;
    Insert (k, fresh_value t)
  end
  else begin
    match random_existing_key t with
    | Some k ->
        remove_key t k;
        Delete k
    | None -> assert false
  end

let initial_fill t =
  let ops = ref [] in
  while t.count < t.target_size do
    let k = fresh_key t in
    add_key t k;
    ops := Insert (k, fresh_value t) :: !ops
  done;
  List.rev !ops
