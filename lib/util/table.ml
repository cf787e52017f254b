type line = Row of string list | Separator

type t = {
  header : string list;
  mutable lines : line list; (* reversed *)
}

let create ~header () = { header; lines = [] }

let add_row t cells =
  let n = List.length t.header in
  let given = List.length cells in
  if given > n then invalid_arg "Table.add_row: more cells than header columns";
  let padded = cells @ List.init (n - given) (fun _ -> "") in
  t.lines <- Row padded :: t.lines

let add_separator t = t.lines <- Separator :: t.lines

let render t =
  let rows =
    List.rev_map (function Row r -> Some r | Separator -> None) t.lines
  in
  let widths = Array.of_list (List.map String.length t.header) in
  let measure = function
    | Some cells ->
        List.iteri
          (fun i c -> if String.length c > widths.(i) then widths.(i) <- String.length c)
          cells
    | None -> ()
  in
  List.iter measure rows;
  let buf = Buffer.create 256 in
  let pad i cell =
    let w = widths.(i) in
    let len = String.length cell in
    if len >= w then cell
    else
      let fill = String.make (w - len) ' ' in
      if i = 0 then cell ^ fill else fill ^ cell
  in
  let emit_cells cells =
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad i c))
      cells;
    Buffer.add_char buf '\n'
  in
  let rule () =
    Array.iteri
      (fun i w ->
        if i > 0 then Buffer.add_string buf "--";
        Buffer.add_string buf (String.make w '-'))
      widths;
    Buffer.add_char buf '\n'
  in
  emit_cells t.header;
  rule ();
  List.iter (function Some r -> emit_cells r | None -> rule ()) rows;
  Buffer.contents buf

let cell_float f = Printf.sprintf "%.2f" f
let cell_int i = string_of_int i
