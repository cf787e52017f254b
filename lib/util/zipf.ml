type t = { n : int; s : float; cdf : float array }

let create ~n ~s =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if s < 0.0 then invalid_arg "Zipf.create: s must be non-negative";
  let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  cdf.(n - 1) <- 1.0;
  { n; s; cdf }

let sample t rng =
  let u = Rng.float rng 1.0 in
  (* First index whose cumulative probability exceeds u. *)
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.cdf.(mid) <= u then go (mid + 1) hi else go lo mid
  in
  go 0 (t.n - 1)

let probability t i =
  if i < 0 || i >= t.n then invalid_arg "Zipf.probability: out of range";
  if i = 0 then t.cdf.(0) else t.cdf.(i) -. t.cdf.(i - 1)

