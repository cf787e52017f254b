type t = Rep_lookup | Rep_modify

let compatible a b =
  match (a, b) with
  | Rep_lookup, Rep_lookup -> true
  | Rep_modify, _ | _, Rep_modify -> false
