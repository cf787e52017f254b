type 'a entry = { time : float; seq : int; payload : 'a }

(* Slots at and past [len] hold [vacant], never a popped entry, so a payload
   that has run is garbage as soon as the caller drops it. *)
type 'a t = { mutable arr : 'a entry array; mutable len : int; vacant : 'a entry }

let create ~dummy =
  { arr = [||]; len = 0; vacant = { time = infinity; seq = max_int; payload = dummy } }

let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap t i j =
  let tmp = t.arr.(i) in
  t.arr.(i) <- t.arr.(j);
  t.arr.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t.arr.(i) t.arr.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && less t.arr.(l) t.arr.(!smallest) then smallest := l;
  if r < t.len && less t.arr.(r) t.arr.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ~time ~seq payload =
  let entry = { time; seq; payload } in
  if t.len = Array.length t.arr then begin
    let cap = max 16 (2 * Array.length t.arr) in
    let bigger = Array.make cap t.vacant in
    Array.blit t.arr 0 bigger 0 t.len;
    t.arr <- bigger
  end;
  t.arr.(t.len) <- entry;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.arr.(0) in
    t.len <- t.len - 1;
    t.arr.(0) <- t.arr.(t.len);
    t.arr.(t.len) <- t.vacant;
    if t.len > 0 then sift_down t 0;
    Some (top.time, top.seq, top.payload)
  end

let peek_time t = if t.len = 0 then None else Some t.arr.(0).time
