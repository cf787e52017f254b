open Repdir_key
open Repdir_quorum

type replica = (Key.t, string) Hashtbl.t

type t = {
  set : replica Replica_set.t;
  mutable primary : int;
  mutable queue : (Key.t * string) list; (* newest first; relayed on propagate *)
}

let create ?seed ~n () =
  let config = Config.simple ~n ~r:1 ~w:n in
  {
    set = Replica_set.create ?seed ~config ~make:(fun _ -> Hashtbl.create 64) ();
    primary = 0;
    queue = [];
  }

let primary t = t.primary

let apply replica (k, v) = Hashtbl.replace replica k v

let primary_replica t =
  if not (Replica_set.is_up t.set t.primary) then
    raise (Replica_set.Unavailable "primary is down (failover pending)");
  Replica_set.replica t.set t.primary

let submit t change =
  apply (primary_replica t) change;
  t.queue <- change :: t.queue

let insert t key value =
  if Hashtbl.mem (primary_replica t) key then Error `Already_present
  else begin
    submit t (key, value);
    Ok ()
  end

let update t key value =
  if not (Hashtbl.mem (primary_replica t) key) then Error `Not_present
  else begin
    submit t (key, value);
    Ok ()
  end

let lookup_primary t key = Hashtbl.find_opt (primary_replica t) key

let lookup_any t key =
  let i = Replica_set.any_up t.set in
  Hashtbl.find_opt (Replica_set.replica t.set i) key

let pending_updates t = List.length t.queue

let propagate t =
  let changes = List.rev t.queue in
  for i = 0 to Replica_set.n t.set - 1 do
    if i <> t.primary && Replica_set.is_up t.set i then
      List.iter (apply (Replica_set.replica t.set i)) changes
  done;
  t.queue <- []

let failover t =
  (* Promote the lowest-numbered up replica; whatever the old primary had
     not yet relayed is gone. *)
  let rec find i =
    if i >= Replica_set.n t.set then raise (Replica_set.Unavailable "no replica left")
    else if Replica_set.is_up t.set i then i
    else find (i + 1)
  in
  t.primary <- find 0;
  t.queue <- []

let crash t i =
  Replica_set.crash t.set i;
  if i = t.primary then failover t

let recover t i =
  (* Rejoin by copying the current primary's state. *)
  let source = Hashtbl.copy (primary_replica t) in
  let target = Replica_set.peek t.set i in
  Hashtbl.reset target;
  Hashtbl.iter (Hashtbl.replace target) source;
  Replica_set.recover t.set i

