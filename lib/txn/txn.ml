type id = int
type status = Active | Committed | Aborted

type abort_reason = Deadlock of id list | Unavailable of string | User

exception Abort of abort_reason

module Manager = struct
  type t = { mutable next : id; statuses : (id, status) Hashtbl.t }

  let create () = { next = 1; statuses = Hashtbl.create 64 }

  let begin_txn t =
    let id = t.next in
    t.next <- t.next + 1;
    Hashtbl.replace t.statuses id Active;
    id

  let status t id =
    match Hashtbl.find_opt t.statuses id with
    | Some s -> s
    | None -> invalid_arg (Printf.sprintf "Txn.Manager.status: unknown txn %d" id)

  let transition t id target =
    match status t id with
    | Active -> Hashtbl.replace t.statuses id target
    | Committed | Aborted ->
        invalid_arg (Printf.sprintf "Txn.Manager: txn %d is not active" id)

  let commit t id = transition t id Committed
  let abort t id = transition t id Aborted

  let active t =
    Hashtbl.fold (fun id s acc -> if s = Active then id :: acc else acc) t.statuses []
    |> List.sort compare

end
