open Repdir_util

type node_id = int

type faults = {
  drop : float;
  duplicate : float;
  reorder : float;
  reorder_delay : float;
  spike : float;
  spike_factor : float;
}

let no_faults =
  {
    drop = 0.0;
    duplicate = 0.0;
    reorder = 0.0;
    reorder_delay = 0.0;
    spike = 0.0;
    spike_factor = 1.0;
  }

let check_faults f =
  let prob name p =
    if p < 0.0 || p > 1.0 then
      invalid_arg (Printf.sprintf "Net: fault probability %s = %g outside [0,1]" name p)
  in
  prob "drop" f.drop;
  prob "duplicate" f.duplicate;
  prob "reorder" f.reorder;
  prob "spike" f.spike;
  if f.reorder_delay < 0.0 then invalid_arg "Net: negative reorder_delay";
  if f.spike_factor < 1.0 then invalid_arg "Net: spike_factor must be >= 1"

type t = {
  sim : Sim.t;
  n : int;
  up : bool array;
  cut : (node_id * node_id, unit) Hashtbl.t; (* normalized (min, max) pairs *)
  latency : Rng.t -> float;
  lat_rng : Rng.t;
  (* Fault plan: per-link overrides beat the default; [None] everywhere means
     the fault path is never entered and [fault_rng] is never consumed, so
     fault-free runs replay exactly the pre-nemesis event stream. *)
  link_faults : (node_id * node_id, faults) Hashtbl.t;
  mutable default_faults : faults option;
  mutable fault_rng : Rng.t;
  mutable rpc_ids : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
}

let default_latency rng = Rng.exponential rng ~mean:1.0

let create sim ~n_nodes ?(latency = default_latency) () =
  if n_nodes <= 0 then invalid_arg "Net.create: need at least one node";
  {
    sim;
    n = n_nodes;
    up = Array.make n_nodes true;
    cut = Hashtbl.create 8;
    latency;
    lat_rng = Rng.split (Sim.rng sim);
    link_faults = Hashtbl.create 8;
    default_faults = None;
    fault_rng = Rng.create 0x6e656d657369735fL;
    rpc_ids = 0;
    dropped = 0;
    duplicated = 0;
    reordered = 0;
  }

let sim t = t.sim
let n_nodes t = t.n

let fresh_rpc_id t =
  t.rpc_ids <- t.rpc_ids + 1;
  t.rpc_ids

let check_node t i =
  if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Net: no such node %d" i)

let up t i =
  check_node t i;
  t.up.(i)

let crash t i =
  check_node t i;
  t.up.(i) <- false

let recover t i =
  check_node t i;
  t.up.(i) <- true

let norm a b = if a <= b then (a, b) else (b, a)

let set_link t a b connected =
  check_node t a;
  check_node t b;
  if connected then Hashtbl.remove t.cut (norm a b) else Hashtbl.replace t.cut (norm a b) ()

let linked t a b =
  check_node t a;
  check_node t b;
  a = b || not (Hashtbl.mem t.cut (norm a b))

let partition t group_a group_b =
  List.iter (fun a -> List.iter (fun b -> if a <> b then set_link t a b false) group_b) group_a

let heal_partition t = Hashtbl.reset t.cut

(* --- fault plans ---------------------------------------------------------------- *)

let seed_faults t seed = t.fault_rng <- Rng.create seed

let set_default_faults t f =
  check_faults f;
  t.default_faults <- Some f

let set_link_faults t a b f =
  check_node t a;
  check_node t b;
  check_faults f;
  Hashtbl.replace t.link_faults (norm a b) f

let clear_faults t =
  t.default_faults <- None;
  Hashtbl.reset t.link_faults

let faults_for t src dst =
  match Hashtbl.find_opt t.link_faults (norm src dst) with
  | Some f -> Some f
  | None -> t.default_faults

let deliver t ~dst delay handler =
  if delay < 0.0 then invalid_arg "Net: negative latency drawn";
  Sim.at t.sim
    (Sim.now t.sim +. delay)
    (fun () -> if t.up.(dst) then Sim.spawn t.sim handler else t.dropped <- t.dropped + 1)

let send t ~src ~dst handler =
  check_node t src;
  check_node t dst;
  if (not t.up.(src)) || not (linked t src dst) then t.dropped <- t.dropped + 1
  else
    match faults_for t src dst with
    | None -> deliver t ~dst (t.latency t.lat_rng) handler
    | Some f ->
        let rng = t.fault_rng in
        if f.drop > 0.0 && Rng.float rng 1.0 < f.drop then t.dropped <- t.dropped + 1
        else begin
          (* Each copy draws its own transit time; a reordering fault adds a
             delay long enough to leapfrog later traffic, a latency spike
             stretches the base draw without changing its order of
             magnitude. *)
          let one_copy () =
            let delay = t.latency t.lat_rng in
            let delay =
              if f.spike > 0.0 && Rng.float rng 1.0 < f.spike then delay *. f.spike_factor
              else delay
            in
            let delay =
              if f.reorder > 0.0 && Rng.float rng 1.0 < f.reorder then begin
                t.reordered <- t.reordered + 1;
                delay +. Rng.float rng f.reorder_delay
              end
              else delay
            in
            deliver t ~dst delay handler
          in
          one_copy ();
          if f.duplicate > 0.0 && Rng.float rng 1.0 < f.duplicate then begin
            t.duplicated <- t.duplicated + 1;
            one_copy ()
          end
        end

let messages_dropped t = t.dropped
let messages_duplicated t = t.duplicated
let messages_reordered t = t.reordered
