open Repdir_key
open Repdir_quorum

type replica = (Key.t, string) Hashtbl.t

type t = { set : replica Replica_set.t }

let create ?seed ~n () =
  (* Quorum sizes are irrelevant here; the config only carries the replica
     count for the shared plumbing. *)
  let config = Config.simple ~n ~r:1 ~w:n in
  { set = Replica_set.create ?seed ~config ~make:(fun _ -> Hashtbl.create 64) () }

let lookup t key =
  let i = Replica_set.any_up t.set in
  Hashtbl.find_opt (Replica_set.replica t.set i) key

let modify_all t f =
  let members = Replica_set.all_up t.set in
  Array.iter (fun i -> f (Replica_set.replica t.set i)) members

let insert t key value =
  if lookup t key <> None then Error `Already_present
  else begin
    modify_all t (fun r -> Hashtbl.replace r key value);
    Ok ()
  end

let update t key value =
  if lookup t key = None then Error `Not_present
  else begin
    modify_all t (fun r -> Hashtbl.replace r key value);
    Ok ()
  end

let delete t key =
  let present = lookup t key <> None in
  if present then modify_all t (fun r -> Hashtbl.remove r key);
  present

let size t = Hashtbl.length (Replica_set.peek t.set 0)
let crash t i = Replica_set.crash t.set i

(* A replica that was down missed updates; unanimous update has no version
   numbers to reconcile with, so recovery must copy the full state from a
   live replica before serving reads again. *)
let recover t i =
  let source = Replica_set.any_up t.set in
  let fresh = Hashtbl.copy (Replica_set.replica t.set source) in
  let target = Replica_set.peek t.set i in
  Hashtbl.reset target;
  Hashtbl.iter (Hashtbl.replace target) fresh;
  Replica_set.recover t.set i

