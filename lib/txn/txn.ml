type id = int
type status = Active | Committed | Aborted

type abort_reason = Deadlock of id list | Unavailable of string | User

exception Abort of abort_reason

module Verdicts = struct
  (* Two bits per id, four ids to a byte: 0 unknown, 1 committed, 2 aborted. *)
  type t = { mutable bits : Bytes.t }

  let initial = 64
  let create () = { bits = Bytes.make initial '\000' }
  let reset t = t.bits <- Bytes.make initial '\000'

  let check id = if id < 0 then invalid_arg (Printf.sprintf "Txn.Verdicts: negative id %d" id)

  let find_opt t id =
    check id;
    let i = id lsr 2 in
    if i >= Bytes.length t.bits then None
    else
      match (Char.code (Bytes.get t.bits i) lsr (2 * (id land 3))) land 3 with
      | 1 -> Some `Committed
      | 2 -> Some `Aborted
      | _ -> None

  let replace t id verdict =
    check id;
    let i = id lsr 2 and shift = 2 * (id land 3) in
    let len = Bytes.length t.bits in
    if i >= len then begin
      let rec doubled n = if n > i then n else doubled (2 * n) in
      let bits = Bytes.make (doubled (2 * len)) '\000' in
      Bytes.blit t.bits 0 bits 0 len;
      t.bits <- bits
    end;
    let code = match verdict with `Committed -> 1 | `Aborted -> 2 in
    let byte = Char.code (Bytes.get t.bits i) land lnot (3 lsl shift) in
    Bytes.set t.bits i (Char.chr (byte lor (code lsl shift)))
end

module Manager = struct
  (* Only live transactions take a hash-table entry; a finished one is two
     bits in [finished]. *)
  type t = { mutable next : id; live : (id, unit) Hashtbl.t; finished : Verdicts.t }

  let create () = { next = 1; live = Hashtbl.create 64; finished = Verdicts.create () }

  let begin_txn t =
    let id = t.next in
    t.next <- t.next + 1;
    Hashtbl.replace t.live id ();
    id

  let status t id =
    if Hashtbl.mem t.live id then Active
    else
      match Verdicts.find_opt t.finished id with
      | Some `Committed -> Committed
      | Some `Aborted -> Aborted
      | None -> invalid_arg (Printf.sprintf "Txn.Manager.status: unknown txn %d" id)

  let transition t id verdict =
    match status t id with
    | Active ->
        Hashtbl.remove t.live id;
        Verdicts.replace t.finished id verdict
    | Committed | Aborted ->
        invalid_arg (Printf.sprintf "Txn.Manager: txn %d is not active" id)

  let commit t id = transition t id `Committed
  let abort t id = transition t id `Aborted
  let active t = Hashtbl.fold (fun id () acc -> id :: acc) t.live [] |> List.sort compare
end
