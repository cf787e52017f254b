open Repdir_key

(* A client-observed primitive directory operation: what was asked and what
   came back. Result flags are the client's observations (a lookup's value,
   whether an insert found the key already present); for an ambiguous
   transaction they bind only on the committed branch. *)
type prim =
  | Lookup of Key.t * string option
  | Insert of Key.t * string * bool  (** value, whether it inserted (false: already present) *)
  | Update of Key.t * string * bool  (** value, whether it updated (false: key absent) *)
  | Delete of Key.t * bool  (** whether the key was present *)

let key_of_prim = function
  | Lookup (k, _) | Insert (k, _, _) | Update (k, _, _) | Delete (k, _) -> k

let prim_is_write = function
  | Lookup _ -> false
  | Insert (_, _, applied) | Update (_, _, applied) | Delete (_, applied) -> applied

let pp_prim ppf = function
  | Lookup (k, None) -> Format.fprintf ppf "lookup %a -> absent" Key.pp k
  | Lookup (k, Some v) -> Format.fprintf ppf "lookup %a -> %s" Key.pp k v
  | Insert (k, v, ok) ->
      Format.fprintf ppf "insert %a=%s -> %s" Key.pp k v (if ok then "ok" else "already-present")
  | Update (k, v, ok) ->
      Format.fprintf ppf "update %a=%s -> %s" Key.pp k v (if ok then "ok" else "not-present")
  | Delete (k, present) ->
      Format.fprintf ppf "delete %a -> %s" Key.pp k (if present then "ok" else "absent")

type status = [ `Ok | `Failed | `Ambiguous ]

let pp_status ppf = function
  | `Ok -> Format.pp_print_string ppf "ok"
  | `Failed -> Format.pp_print_string ppf "failed"
  | `Ambiguous -> Format.pp_print_string ppf "ambiguous"

(* One completed transaction as the client experienced it. [start_] is the
   invocation time of its first primitive, [finish] the real time at which
   the client learned the outcome (for [`Ambiguous]: gave up waiting — the
   transaction's effect, if any, may land later). Prims carry their own
   invocation times, oldest first. *)
type event = {
  client : int;
  txn : Repdir_txn.Txn.id;
  start_ : float;
  finish : float;
  status : status;
  prims : (float * prim) list;
}

let pp_event ppf e =
  Format.fprintf ppf "@[<h>c%d t%d [%.3f, %.3f] %a:" e.client e.txn e.start_ e.finish pp_status
    e.status;
  List.iter (fun (_, p) -> Format.fprintf ppf " {%a}" pp_prim p) e.prims;
  Format.fprintf ppf "@]"

(* --- per-client recorder -------------------------------------------------------- *)

(* Clients are sequential, so a recorder accumulates the prims of exactly one
   open transaction at a time; keying the accumulator by transaction id makes
   a stray out-of-order hook call harmless rather than corrupting. The
   retained window is a bounded ring (oldest events dropped first) so long
   campaigns keep a recent-history dump without unbounded memory; the
   optional [sink] sees every event as it completes, which is how the online
   checker is fed. *)
type recorder = {
  r_client : int;
  r_now : unit -> float;
  open_txns : (Repdir_txn.Txn.id, float * (float * prim) list ref) Hashtbl.t;
  window : event Queue.t;
  mutable dropped : int;
  mutable sink : (event -> unit) option;
}

(* Events retained in the window. *)
let cap = 4096

let recorder ~client ~now () =
  {
    r_client = client;
    r_now = now;
    open_txns = Hashtbl.create 4;
    window = Queue.create ();
    dropped = 0;
    sink = None;
  }

let set_sink r sink = r.sink <- Some sink
let client r = r.r_client
let now r = r.r_now ()

let record r ~txn ~at prim =
  match Hashtbl.find_opt r.open_txns txn with
  | Some (_, prims) -> prims := (at, prim) :: !prims
  | None -> Hashtbl.replace r.open_txns txn (at, ref [ (at, prim) ])

let finish r ~txn status =
  match Hashtbl.find_opt r.open_txns txn with
  | None -> () (* transaction recorded nothing: no constraints to check *)
  | Some (start_, prims) ->
      Hashtbl.remove r.open_txns txn;
      let e =
        {
          client = r.r_client;
          txn;
          start_;
          finish = r.r_now ();
          status;
          prims = List.rev !prims;
        }
      in
      Queue.push e r.window;
      if Queue.length r.window > cap then begin
        ignore (Queue.pop r.window);
        r.dropped <- r.dropped + 1
      end;
      match r.sink with None -> () | Some f -> f e

let events r = List.of_seq (Queue.to_seq r.window)
let dropped r = r.dropped

let dump_to_file ~path ~dropped events =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  Format.fprintf ppf "# history window: %d events (%d more dropped from bounded ring)@."
    (List.length events) dropped;
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_event e) events;
  Format.pp_print_flush ppf ();
  close_out oc
