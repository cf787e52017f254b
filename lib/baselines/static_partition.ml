open Repdir_key

module Key_map = Map.Make (Key)

type partition = { mutable version : int; mutable entries : string Key_map.t }

type replica = partition array

type t = {
  set : replica Replica_set.t;
  n_partitions : int;
  mutable entries_written : int;
}

let create ?seed ~config ~partitions () =
  if partitions <= 0 then invalid_arg "Static_partition.create: need at least one partition";
  let make _ = Array.init partitions (fun _ -> { version = 0; entries = Key_map.empty }) in
  { set = Replica_set.create ?seed ~config ~make (); n_partitions = partitions; entries_written = 0 }

let partition_of t key = Hashtbl.hash key mod t.n_partitions

(* Highest-versioned copy of the key's partition from a read quorum. *)
let read_partition t key =
  let p = partition_of t key in
  let members = Replica_set.read_quorum t.set in
  Array.fold_left
    (fun best i ->
      let part = (Replica_set.replica t.set i).(p) in
      match best with
      | Some b when b.version >= part.version -> best
      | _ -> Some part)
    None members
  |> Option.get

let lookup t key = Key_map.find_opt key (read_partition t key).entries

(* Write the whole partition to a write quorum at version+1. *)
let write_partition t key new_entries ~base_version =
  let p = partition_of t key in
  let members = Replica_set.write_quorum t.set in
  Array.iter
    (fun i ->
      let part = (Replica_set.replica t.set i).(p) in
      part.version <- base_version + 1;
      part.entries <- new_entries;
      t.entries_written <- t.entries_written + Key_map.cardinal new_entries)
    members

let insert t key value =
  let current = read_partition t key in
  if Key_map.mem key current.entries then Error `Already_present
  else begin
    write_partition t key (Key_map.add key value current.entries)
      ~base_version:current.version;
    Ok ()
  end

let update t key value =
  let current = read_partition t key in
  if not (Key_map.mem key current.entries) then Error `Not_present
  else begin
    write_partition t key (Key_map.add key value current.entries)
      ~base_version:current.version;
    Ok ()
  end

let delete t key =
  let current = read_partition t key in
  if Key_map.mem key current.entries then begin
    write_partition t key (Key_map.remove key current.entries) ~base_version:current.version;
    true
  end
  else false

type scope = Single_key of Key.t | Whole_partition of int

let conflict_scope t = function
  | `Lookup key -> Single_key key
  | `Insert key | `Update key | `Delete key -> Whole_partition (partition_of t key)

let entries_written t = t.entries_written

let size t =
  (* Live entries per a quorum read of each partition: use the highest-
     versioned copy of every partition. *)
  let total = ref 0 in
  for p = 0 to t.n_partitions - 1 do
    let best = ref None in
    for i = 0 to Replica_set.n t.set - 1 do
      if Replica_set.is_up t.set i then begin
        let part = (Replica_set.peek t.set i).(p) in
        match !best with
        | Some (b : partition) when b.version >= part.version -> ()
        | _ -> best := Some part
      end
    done;
    match !best with Some b -> total := !total + Key_map.cardinal b.entries | None -> ()
  done;
  !total

