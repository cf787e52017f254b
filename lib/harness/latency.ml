open Repdir_util
open Repdir_key
open Repdir_sim
open Repdir_core

type row = { op : string; sequential : float; parallel : float; speedup : float }

(* Mean latency per operation type for one transport mode. *)
let measure ~seed ~ops ~parallel_rpc ~config =
  let world = Shard_world.create ~seed ~rpc_timeout:1.0e6 ~parallel_rpc ~two_phase:false ~config
      ~groups:1 () in
  let sim = Shard_world.sim world in
  let suite = Shard_world.suite_for_client world 0 0 in
  let rng = Rng.create (Int64.add seed 77L) in
  let sums = Hashtbl.create 4 and counts = Hashtbl.create 4 in
  let record kind dt =
    Hashtbl.replace sums kind (dt +. Option.value ~default:0.0 (Hashtbl.find_opt sums kind));
    Hashtbl.replace counts kind (1 + Option.value ~default:0 (Hashtbl.find_opt counts kind))
  in
  let n_keys = 100 in
  Sim.spawn sim (fun () ->
      for i = 0 to n_keys - 1 do
        ignore (Suite.insert suite (Key.of_int i) "v")
      done;
      for step = 1 to ops do
        let key = Key.of_int (Rng.int rng n_keys) in
        let t0 = Sim.now sim in
        let kind =
          match step mod 3 with
          | 0 ->
              ignore (Suite.lookup suite key);
              "lookup"
          | 1 ->
              ignore (Suite.update suite key "v'");
              "update"
          | _ ->
              (* delete + reinsert keeps the directory stable; only the
                 delete is timed. *)
              ignore (Suite.delete suite key);
              let dt = Sim.now sim -. t0 in
              record "delete" dt;
              ignore (Suite.insert suite key "v");
              "-"
        in
        if kind <> "-" then record kind (Sim.now sim -. t0)
      done);
  Sim.run sim;
  List.filter_map
    (fun kind ->
      match (Hashtbl.find_opt sums kind, Hashtbl.find_opt counts kind) with
      | Some s, Some c when c > 0 -> Some (kind, s /. float_of_int c)
      | _ -> None)
    [ "lookup"; "update"; "delete" ]

let run ?(seed = 55L) ?(ops = 1_500) ~config () =
  let seq = measure ~seed ~ops ~parallel_rpc:false ~config in
  let par = measure ~seed ~ops ~parallel_rpc:true ~config in
  List.map
    (fun (op, sequential) ->
      let parallel = List.assoc op par in
      { op; sequential; parallel; speedup = sequential /. parallel })
    seq

let table ?seed ?ops ~config () =
  let rows = run ?seed ?ops ~config () in
  let t =
    Table.create
      ~header:[ "Operation"; "Sequential RPC"; "Parallel RPC"; "Speedup" ]
      ()
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.op;
          Printf.sprintf "%.2f" r.sequential;
          Printf.sprintf "%.2f" r.parallel;
          Printf.sprintf "%.2fx" r.speedup;
        ])
    rows;
  t
