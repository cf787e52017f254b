open Repdir_key

type state = Serving of int | Moving of { from_g : int; to_g : int }

type range = { lo : Bound.t; hi : Bound.t }

type t = { epoch : int; shards : (range * state) array }

let epoch_of t = t.epoch
let n_shards t = Array.length t.shards
let shards t = Array.to_list t.shards

let n_groups t =
  1
  + Array.fold_left
      (fun acc (_, st) ->
        match st with
        | Serving g -> max acc g
        | Moving { from_g; to_g } -> max acc (max from_g to_g))
      0 t.shards

(* Half-open containment: a range owns the bounds b with lo <= b < hi,
   except the last range (hi = High) also owns High itself — so every bound,
   sentinels included, has exactly one owner and whole-directory traversals
   starting from Low or High route somewhere. *)
let range_contains r b =
  Bound.compare r.lo b <= 0
  && (Bound.compare b r.hi < 0 || (r.hi = Bound.High && b = Bound.High))

let find t b =
  let rec go i =
    if i >= Array.length t.shards then
      invalid_arg "Shard_map.find: ranges do not tile the key space"
    else if range_contains (fst t.shards.(i)) b then i
    else go (i + 1)
  in
  go 0

let state_of t ~shard =
  if shard < 0 || shard >= Array.length t.shards then
    invalid_arg "Shard_map.state_of: shard out of range";
  snd t.shards.(shard)

let range_of t ~shard =
  if shard < 0 || shard >= Array.length t.shards then
    invalid_arg "Shard_map.range_of: shard out of range";
  fst t.shards.(shard)

(* --- construction and transitions ----------------------------------------------- *)

let check_tiling shards =
  let n = Array.length shards in
  if n = 0 then Error "no shards"
  else if (fst shards.(0)).lo <> Bound.Low then Error "first range must start at LOW"
  else if (fst shards.(n - 1)).hi <> Bound.High then Error "last range must end at HIGH"
  else
    let rec go i =
      if i >= n then Ok ()
      else
        let r = fst shards.(i) in
        if Bound.compare r.lo r.hi >= 0 then Error "empty or inverted range"
        else if i + 1 < n && not (Bound.equal r.hi (fst shards.(i + 1)).lo) then
          Error "ranges are not contiguous"
        else go (i + 1)
    in
    go 0

let make ~epoch shards =
  if epoch < 0 then Error "negative epoch"
  else
    let shards = Array.of_list shards in
    let bad_group =
      Array.exists
        (fun (_, st) ->
          match st with
          | Serving g -> g < 0
          | Moving { from_g; to_g } -> from_g < 0 || to_g < 0 || from_g = to_g)
        shards
    in
    if bad_group then Error "bad group index"
    else Result.map (fun () -> { epoch; shards }) (check_tiling shards)

let initial ~cuts =
  let rec bounds lo = function
    | [] -> [ { lo; hi = Bound.High } ]
    | k :: rest ->
        let hi = Bound.key k in
        if Bound.compare lo hi >= 0 then
          invalid_arg "Shard_map.initial: cuts must be strictly increasing"
        else { lo; hi } :: bounds hi rest
  in
  let ranges = bounds Bound.Low cuts in
  let shards = List.mapi (fun i r -> (r, Serving i)) ranges in
  match make ~epoch:0 shards with
  | Ok t -> t
  | Error e -> invalid_arg ("Shard_map.initial: " ^ e)

let in_flight t =
  Array.exists (fun (_, st) -> match st with Moving _ -> true | _ -> false) t.shards

(* The preconditions every migration start shares, checked in order: the
   shard's range and its serving group, or the first one violated. *)
let movable t ~shard ~to_g =
  if shard < 0 || shard >= Array.length t.shards then Error "shard out of range"
  else if in_flight t then Error "a migration is already in flight"
  else
    match t.shards.(shard) with
    | _, Moving _ -> Error "shard is already moving"
    | _, Serving from_g when to_g = from_g -> Error "target group already serves this shard"
    | _ when to_g < 0 -> Error "bad group index"
    | r, Serving from_g -> Ok (r, from_g)

let begin_move t ~shard ~to_g =
  Result.map
    (fun (r, from_g) ->
      let shards = Array.copy t.shards in
      shards.(shard) <- (r, Moving { from_g; to_g });
      { epoch = t.epoch + 1; shards })
    (movable t ~shard ~to_g)

(* Split a range at an interior cut: the lower half keeps its group, the
   upper half starts migrating to [to_g]. The upper half becomes shard
   [shard + 1]; later shards shift up by one. *)
let begin_split t ~shard ~at ~to_g =
  Result.bind (movable t ~shard ~to_g) (fun (r, from_g) ->
      let cut = Bound.key at in
      if Bound.compare r.lo cut >= 0 || Bound.compare cut r.hi >= 0 then
        Error "cut is not interior to the shard's range"
      else
        let lower = ({ lo = r.lo; hi = cut }, Serving from_g) in
        let upper = ({ lo = cut; hi = r.hi }, Moving { from_g; to_g }) in
        let shards =
          Array.concat
            [
              Array.sub t.shards 0 shard;
              [| lower; upper |];
              Array.sub t.shards (shard + 1) (Array.length t.shards - shard - 1);
            ]
        in
        Ok { epoch = t.epoch + 1; shards })

let finish_move t ~shard =
  if shard < 0 || shard >= Array.length t.shards then Error "shard out of range"
  else
    match snd t.shards.(shard) with
    | Serving _ -> Error "shard is not moving"
    | Moving { to_g; _ } ->
        let shards = Array.copy t.shards in
        shards.(shard) <- (fst shards.(shard), Serving to_g);
        Ok { epoch = t.epoch + 1; shards }

(* --- serialization --------------------------------------------------------------- *)

(* Like the membership record, the shard map travels inside Stale_epoch
   rejections (on the Shard_map fence) as a string, so its encoding must
   round-trip any key. Interior bounds are hex-encoded ('k'
   prefix); the sentinels are '-' and '+'. *)
let encode_bound = function
  | Bound.Low -> "-"
  | Bound.High -> "+"
  | Bound.Key k ->
      let b = Buffer.create (2 + (2 * String.length k)) in
      Buffer.add_char b 'k';
      String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) k;
      Buffer.contents b

let decode_bound s =
  if s = "-" then Ok Bound.Low
  else if s = "+" then Ok Bound.High
  else if String.length s >= 1 && s.[0] = 'k' && (String.length s - 1) mod 2 = 0 then
    try
      let n = (String.length s - 1) / 2 in
      Ok
        (Bound.key
           (String.init n (fun i ->
                Char.chr (int_of_string ("0x" ^ String.sub s (1 + (2 * i)) 2)))))
    with _ -> Error "malformed key bound"
  else Error "malformed bound"

let encode_state = function
  | Serving g -> string_of_int g
  | Moving { from_g; to_g } -> Printf.sprintf "%d>%d" from_g to_g

let decode_state s =
  match String.index_opt s '>' with
  | None -> (
      match int_of_string_opt s with
      | Some g when g >= 0 -> Ok (Serving g)
      | _ -> Error "malformed shard state")
  | Some i -> (
      match
        ( int_of_string_opt (String.sub s 0 i),
          int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
      with
      | Some from_g, Some to_g when from_g >= 0 && to_g >= 0 && from_g <> to_g ->
          Ok (Moving { from_g; to_g })
      | _ -> Error "malformed shard state")

let encode t =
  (* Contiguity lets each range be encoded by its upper bound alone; the
     lower bound is the previous range's hi (LOW for the first). *)
  Printf.sprintf "M|%d|%s" t.epoch
    (String.concat ";"
       (List.map
          (fun (r, st) -> encode_bound r.hi ^ "," ^ encode_state st)
          (Array.to_list t.shards)))

let decode s =
  match String.split_on_char '|' s with
  | [ "M"; epoch; body ] -> (
      match int_of_string_opt epoch with
      | None -> Error "malformed shard map: bad epoch"
      | Some epoch ->
          let parts = String.split_on_char ';' body in
          let rec go lo acc = function
            | [] -> Ok (List.rev acc)
            | p :: rest -> (
                match String.index_opt p ',' with
                | None -> Error "malformed shard map: missing state"
                | Some i ->
                    Result.bind (decode_bound (String.sub p 0 i)) (fun hi ->
                        Result.bind
                          (decode_state
                             (String.sub p (i + 1) (String.length p - i - 1)))
                          (fun st -> go hi (({ lo; hi }, st) :: acc) rest)))
          in
          Result.bind (go Bound.Low [] parts) (make ~epoch))
  | _ -> Error "malformed shard map"

let equal a b = encode a = encode b

(* --- printing -------------------------------------------------------------------- *)

let pp_state ppf = function
  | Serving g -> Format.fprintf ppf "g%d" g
  | Moving { from_g; to_g } -> Format.fprintf ppf "g%d>g%d" from_g to_g

let pp_range ppf r =
  Format.fprintf ppf "[%a,%a)" Bound.pp r.lo Bound.pp r.hi

let shard_label t ~shard =
  Format.asprintf "shard %a->%a (epoch %d)" pp_range (range_of t ~shard) pp_state
    (state_of t ~shard) t.epoch
