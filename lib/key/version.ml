type t = int

let lowest = 0
let next v = v + 1
let compare = Int.compare
let equal = Int.equal
let max = Stdlib.max
let pp = Format.pp_print_int
let to_int v = v
