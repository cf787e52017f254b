type t = Low | Key of Key.t | High

let compare a b =
  match (a, b) with
  | Low, Low | High, High -> 0
  | Low, _ -> -1
  | _, Low -> 1
  | High, _ -> 1
  | _, High -> -1
  | Key x, Key y -> Key.compare x y

let equal a b = compare a b = 0

let pp ppf = function
  | Low -> Format.pp_print_string ppf "LOW"
  | High -> Format.pp_print_string ppf "HIGH"
  | Key k -> Key.pp ppf k

let to_string b = Format.asprintf "%a" pp b
let key k = Key k

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

module Interval = struct
  type bound = t
  type nonrec t = { lo : bound; hi : bound }

  let make lo hi =
    if compare lo hi > 0 then invalid_arg "Bound.Interval.make: lo > hi";
    { lo; hi }

  let point b = { lo = b; hi = b }
  let full = { lo = Low; hi = High }

  let intersects a b =
    compare a.lo b.hi <= 0 && compare b.lo a.hi <= 0
end
