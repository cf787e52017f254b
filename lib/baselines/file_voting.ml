open Repdir_key

module Key_map = Map.Make (Key)

type replica = { mutable version : int; mutable data : string Key_map.t }

type t = { set : replica Replica_set.t; mutable entries_written : int }

let create ?seed ~config () =
  {
    set =
      Replica_set.create ?seed ~config
        ~make:(fun _ -> { version = 0; data = Key_map.empty })
        ();
    entries_written = 0;
  }

(* Read quorum; believe the highest version. *)
let read_current t =
  let members = Replica_set.read_quorum t.set in
  Array.fold_left
    (fun best i ->
      let r = Replica_set.replica t.set i in
      match best with
      | Some b when b.version >= r.version -> best
      | _ -> Some r)
    None members
  |> Option.get

let lookup t key = Key_map.find_opt key (read_current t).data

(* Write the whole directory to a write quorum with version+1. *)
let write_back t new_data ~base_version =
  let members = Replica_set.write_quorum t.set in
  Array.iter
    (fun i ->
      let r = Replica_set.replica t.set i in
      r.version <- base_version + 1;
      r.data <- new_data;
      t.entries_written <- t.entries_written + Key_map.cardinal new_data)
    members

let insert t key value =
  let current = read_current t in
  if Key_map.mem key current.data then Error `Already_present
  else begin
    write_back t (Key_map.add key value current.data) ~base_version:current.version;
    Ok ()
  end

let update t key value =
  let current = read_current t in
  if not (Key_map.mem key current.data) then Error `Not_present
  else begin
    write_back t (Key_map.add key value current.data) ~base_version:current.version;
    Ok ()
  end

let delete t key =
  let current = read_current t in
  if Key_map.mem key current.data then begin
    write_back t (Key_map.remove key current.data) ~base_version:current.version;
    true
  end
  else false

let size t = Key_map.cardinal (read_current t).data
let crash t i = Replica_set.crash t.set i
let recover t i = Replica_set.recover t.set i
let entries_written t = t.entries_written
let version t = (read_current t).version
