type t = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float; (* sum of squared deviations from the running mean *)
  mutable max : float;
  mutable min : float;
  mutable total : float;
}

let create () =
  { count = 0; mean = 0.0; m2 = 0.0; max = neg_infinity; min = infinity; total = 0.0 }

let add t x =
  t.count <- t.count + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x > t.max then t.max <- x;
  if x < t.min then t.min <- x;
  t.total <- t.total +. x

let add_int t x = add t (float_of_int x)

let merge a b =
  if a.count = 0 then { b with count = b.count }
  else if b.count = 0 then { a with count = a.count }
  else begin
    let n = a.count + b.count in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. float_of_int b.count /. float_of_int n) in
    let m2 =
      a.m2 +. b.m2
      +. (delta *. delta *. float_of_int a.count *. float_of_int b.count /. float_of_int n)
    in
    {
      count = n;
      mean;
      m2;
      max = Float.max a.max b.max;
      min = Float.min a.min b.min;
      total = a.total +. b.total;
    }
  end

let count t = t.count
let mean t = if t.count = 0 then 0.0 else t.mean
let max t = t.max
let min t = t.min
let variance t = if t.count < 2 then 0.0 else t.m2 /. float_of_int t.count
let stddev t = sqrt (variance t)
let total t = t.total
