open Repdir_util
open Repdir_key
open Repdir_sim
open Repdir_txn
open Repdir_rep
open Repdir_core

type scheme = Gap | Single_version

let pp_scheme ppf = function
  | Gap -> Format.pp_print_string ppf "gap-versioned"
  | Single_version -> Format.pp_print_string ppf "single-version"

type row = {
  scheme : scheme;
  clients : int;
  committed : int;
  deadlock_aborts : int;
  throughput : float;
  avg_latency : float;
  lock_waits : int;
}

let file_key = "THE-FILE"

(* The key space, and the updates each transaction makes. *)
let n_keys = 64
let ops_per_txn = 2

(* Pre-populate directly at the representatives (synchronous, uncontended). *)
let prepopulate world ~scheme =
  let txn = Txn.Manager.begin_txn (Shard_world.txns world) in
  let reps = Shard_world.group_reps world 0 in
  (match scheme with
  | Gap ->
      for k = 0 to n_keys - 1 do
        Array.iter (fun rep -> Rep.insert rep ~txn (Key.of_int k) 1 "v0") reps
      done
  | Single_version -> Array.iter (fun rep -> Rep.insert rep ~txn file_key 1 "blob0") reps);
  Array.iter (fun rep -> Rep.commit rep ~txn) reps;
  Txn.Manager.commit (Shard_world.txns world) txn

let run ?(seed = 7L) ?(duration = 2000.0) ?zipf_s ~scheme ~clients ~config () =
  let world =
    Shard_world.create ~seed ~rpc_timeout:1.0e9 ~n_clients:clients ~config ~groups:1 ()
  in
  let sim = Shard_world.sim world in
  prepopulate world ~scheme;
  let committed = ref 0 in
  let deadlock_aborts = ref 0 in
  let total_latency = ref 0.0 in
  let client_rng = Rng.split (Sim.rng sim) in
  let zipf = Option.map (fun s -> Zipf.create ~n:n_keys ~s) zipf_s in
  let draw_key rng =
    match zipf with
    | Some z -> Key.of_int (Zipf.sample z rng)
    | None -> Key.of_int (Rng.int rng n_keys)
  in
  for c = 0 to clients - 1 do
    let suite = Shard_world.suite_for_client ~seed:(Rng.int64 client_rng) world c 0 in
    let rng = Rng.split client_rng in
    let body txn =
      for _ = 1 to ops_per_txn do
        let key = match scheme with Gap -> draw_key rng | Single_version -> file_key in
        match Suite.update ~txn suite key (Printf.sprintf "c%d-%f" c (Sim.now sim)) with
        | Ok () -> ()
        | Error `Not_present -> failwith "concurrency: key vanished"
      done
    in
    Sim.spawn sim (fun () ->
        (* Randomized exponential backoff after deadlock aborts, reset on
           commit — without it, high contention livelocks on retry storms. *)
        let backoff = ref 2.0 in
        while Sim.now sim < duration do
          let started = Sim.now sim in
          match Suite.with_txn suite body with
          | () ->
              incr committed;
              backoff := 2.0;
              total_latency := !total_latency +. (Sim.now sim -. started)
          | exception Txn.Abort (Txn.Deadlock _) ->
              incr deadlock_aborts;
              Sim.sleep sim (Rng.exponential rng ~mean:!backoff);
              backoff := Float.min (2.0 *. !backoff) 64.0
        done)
  done;
  Sim.run sim;
  let lock_waits =
    Array.fold_left
      (fun acc rep -> acc + (Rep.counters rep).Rep.lock_waits)
      0 (Shard_world.group_reps world 0)
  in
  {
    scheme;
    clients;
    committed = !committed;
    deadlock_aborts = !deadlock_aborts;
    throughput = float_of_int !committed /. duration;
    avg_latency =
      (if !committed = 0 then nan else !total_latency /. float_of_int !committed);
    lock_waits;
  }

let table ?(seed = 7L) ?(duration = 2000.0) ?(client_counts = [ 1; 2; 4; 8 ]) ~config () =
  let t =
    Table.create
      ~header:
        [
          "Scheme";
          "Clients";
          "Committed";
          "Throughput (txn/t)";
          "Avg latency (t)";
          "Deadlock aborts";
          "Lock waits";
        ]
      ()
  in
  List.iter
    (fun scheme ->
      List.iter
        (fun clients ->
          let r = run ~seed ~duration ~scheme ~clients ~config () in
          Table.add_row t
            [
              Format.asprintf "%a" pp_scheme scheme;
              string_of_int clients;
              string_of_int r.committed;
              Printf.sprintf "%.3f" r.throughput;
              Printf.sprintf "%.2f" r.avg_latency;
              string_of_int r.deadlock_aborts;
              string_of_int r.lock_waits;
            ])
        client_counts;
      Table.add_separator t)
    [ Gap; Single_version ];
  t

let skew_table ?(seed = 7L) ?(duration = 2000.0) ?(clients = 8) ~config () =
  let t =
    Table.create
      ~header:
        [ "Zipf s"; "Committed"; "Throughput (txn/t)"; "Deadlock aborts"; "Lock waits" ]
      ()
  in
  List.iter
    (fun s_exp ->
      let r = run ~seed ~duration ~zipf_s:s_exp ~scheme:Gap ~clients ~config () in
      Table.add_row t
        [
          Printf.sprintf "%.1f" s_exp;
          string_of_int r.committed;
          Printf.sprintf "%.3f" r.throughput;
          string_of_int r.deadlock_aborts;
          string_of_int r.lock_waits;
        ])
    [ 0.0; 0.7; 1.0; 1.5 ];
  t
