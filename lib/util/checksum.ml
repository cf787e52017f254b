let init = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* Plain [for] loops over a local [int64] ref: the compiler keeps the running
   hash unboxed, where a closure (as in [String.iter]) would box it once per
   byte. *)
let string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) prime
  done;
  !h

let int h n =
  let h = ref h in
  for shift = 0 to 7 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int ((n lsr (shift * 8)) land 0xff))) prime
  done;
  !h

let fnv1a s = string init s
