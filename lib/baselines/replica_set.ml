open Repdir_util
open Repdir_quorum

exception Unavailable of string

type 'a t = {
  config : Config.t;
  replicas : 'a array;
  up : bool array;
  rng : Rng.t;
}

let create ?(seed = 1L) ~config ~make () =
  let n = Config.n_reps config in
  {
    config;
    replicas = Array.init n make;
    up = Array.make n true;
    rng = Rng.create seed;
  }

let n t = Array.length t.replicas

let check t i =
  if i < 0 || i >= Array.length t.replicas then invalid_arg "Replica_set: bad index"

let replica t i =
  check t i;
  if not t.up.(i) then raise (Unavailable (Printf.sprintf "replica %d is down" i));
  t.replicas.(i)

let peek t i =
  check t i;
  t.replicas.(i)

let is_up t i =
  check t i;
  t.up.(i)

let crash t i =
  check t i;
  t.up.(i) <- false

let recover t i =
  check t i;
  t.up.(i) <- true

let quorum t target =
  match
    Picker.collect_joint Picker.Random t.rng [ (t.config, target) ] ~available:(fun i ->
        t.up.(i))
  with
  | Ok q -> q
  | Error _ -> raise (Unavailable "quorum not available")

let read_quorum t = quorum t t.config.Config.read_quorum
let write_quorum t = quorum t t.config.Config.write_quorum

let all_up t =
  if Array.exists (fun u -> not u) t.up then raise (Unavailable "a replica is down");
  Array.init (n t) (fun i -> i)

let any_up t =
  let ups = Array.to_list (Array.mapi (fun i u -> (i, u)) t.up) in
  let ups = List.filter_map (fun (i, u) -> if u then Some i else None) ups in
  match ups with
  | [] -> raise (Unavailable "all replicas down")
  | _ -> List.nth ups (Rng.int t.rng (List.length ups))
