open Repdir_rep

type error = Timeout | Down of string | Overloaded of string

let pp_error ppf = function
  | Timeout -> Format.pp_print_string ppf "timeout"
  | Down name -> Format.fprintf ppf "down(%s)" name
  | Overloaded name -> Format.fprintf ppf "overloaded(%s)" name

exception Rpc_failed of int * error

type fanout = { map : 'a 'b. ('a -> 'b) -> 'a array -> 'b array }

let sequential_fanout = { map = (fun f arr -> Array.map f arr) }

type t = {
  n_reps : int;
  is_up : int -> bool;
  incarnation : int -> int;
  call : 'r. int -> (Rep.t -> 'r) -> ('r, error) result;
  fanout : fanout;
  mutable rpc_count : int;
  mutable retry_count : int;
  mutable msg_count : int;
  mutable bytes_count : int;
}

let local reps =
  {
    n_reps = Array.length reps;
    is_up = (fun i -> not (Rep.is_crashed reps.(i)));
    incarnation = (fun i -> Rep.incarnation reps.(i));
    call =
      (fun i f ->
        try Ok (f reps.(i)) with
        | Rep.Crashed name -> Error (Down name)
        | Rep.Overloaded name -> Error (Overloaded name));
    fanout = sequential_fanout;
    rpc_count = 0;
    retry_count = 0;
    msg_count = 0;
    bytes_count = 0;
  }

let add_bytes t n = t.bytes_count <- t.bytes_count + n

let call_exn t i f =
  t.rpc_count <- t.rpc_count + 1;
  t.msg_count <- t.msg_count + 1;
  match t.call i f with Ok r -> r | Error e -> raise (Rpc_failed (i, e))

let send t i f =
  t.msg_count <- t.msg_count + 1;
  t.call i f
