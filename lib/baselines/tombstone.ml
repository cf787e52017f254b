open Repdir_key

type entry = { version : int; value : string option (* None = tombstone *) }

type replica = (Key.t, entry) Hashtbl.t

type t = { set : replica Replica_set.t }

let create ?seed ~config () =
  { set = Replica_set.create ?seed ~config ~make:(fun _ -> Hashtbl.create 64) () }

let read_best t key =
  let members = Replica_set.read_quorum t.set in
  Array.fold_left
    (fun (best_v, best) i ->
      match Hashtbl.find_opt (Replica_set.replica t.set i) key with
      | Some e when e.version > best_v -> (e.version, e.value)
      | Some _ | None -> (best_v, best))
    (-1, None) members

let lookup t key = snd (read_best t key)

let write t key version value =
  let members = Replica_set.write_quorum t.set in
  Array.iter
    (fun i -> Hashtbl.replace (Replica_set.replica t.set i) key { version; value })
    members

let insert t key value =
  let v, current = read_best t key in
  if current <> None then Error `Already_present
  else begin
    write t key (v + 1) (Some value);
    Ok ()
  end

let update t key value =
  let v, current = read_best t key in
  if current = None then Error `Not_present
  else begin
    write t key (v + 1) (Some value);
    Ok ()
  end

let delete t key =
  let v, current = read_best t key in
  if current = None then false
  else begin
    write t key (v + 1) None;
    true
  end

let all_known_keys t =
  let keys = Hashtbl.create 64 in
  for i = 0 to Replica_set.n t.set - 1 do
    if Replica_set.is_up t.set i then
      Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) (Replica_set.peek t.set i)
  done;
  Hashtbl.fold (fun k () acc -> k :: acc) keys []

let size t = List.length (List.filter (fun k -> lookup t k <> None) (all_known_keys t))

let physical_size t =
  let best = ref 0 in
  for i = 0 to Replica_set.n t.set - 1 do
    let n = Hashtbl.length (Replica_set.peek t.set i) in
    if n > !best then best := n
  done;
  !best

