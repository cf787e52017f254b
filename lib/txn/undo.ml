open Repdir_key

type action =
  | Remove_entry of Key.t
  | Restore_entry of Key.t * Version.t * Repdir_gapmap.Gapmap_intf.value
  | Restore_gap of Bound.t * Version.t

type t = { logs : (Txn.id, action list ref) Hashtbl.t }

let create () = { logs = Hashtbl.create 16 }

let record t ~txn action =
  match Hashtbl.find_opt t.logs txn with
  | Some l -> l := action :: !l
  | None -> Hashtbl.replace t.logs txn (ref [ action ])

let actions t ~txn =
  match Hashtbl.find_opt t.logs txn with Some l -> !l | None -> []

let forget t ~txn = Hashtbl.remove t.logs txn

let active_txns t = Hashtbl.fold (fun id _ acc -> id :: acc) t.logs [] |> List.sort compare

exception Found

let exists t f =
  match Hashtbl.iter (fun id _ -> if f id then raise_notrace Found) t.logs with
  | () -> false
  | exception Found -> true

module Apply (M : Repdir_gapmap.Gapmap_intf.S) = struct
  let action map = function
    | Remove_entry k -> ignore (M.remove map k)
    | Restore_entry (k, v, value) -> M.insert map k v value
    | Restore_gap (b, v) -> M.set_gap_after map b v

  let rollback t ~txn map =
    List.iter (action map) (actions t ~txn);
    forget t ~txn
end
