open Repdir_util
open Repdir_quorum

(* For every replication degree: read-one/write-all, the balanced minimal
   write quorum, and read-all with the minimal write quorum. *)
let figure14_configs =
  let per_n n =
    let w_min = (n / 2) + 1 in
    let cands = [ (1, n); (n + 1 - w_min, w_min); (n, w_min) ] in
    List.sort_uniq compare cands
    |> List.map (fun (r, w) -> Config.simple ~n ~r ~w)
  in
  List.concat_map per_n [ 1; 2; 3; 4; 5 ]

let f = Table.cell_float

let figure14 ?(seed = 1983L) ?(ops = 10_000) ?(entries = 100) () =
  let table =
    Table.create
      ~header:
        [
          "Configuration";
          "Entries in ranges coalesced";
          "Deletions while coalescing";
          "Insertions while coalescing";
        ]
      ()
  in
  List.iter
    (fun config ->
      let o = Experiment.run ~seed ~config ~n_entries:entries ~ops () in
      Table.add_row table
        [
          Config.to_string config;
          f (Stats.mean o.stats.entries_coalesced);
          f (Stats.mean o.stats.deletions_while_coalescing);
          f (Stats.mean o.stats.insertions_while_coalescing);
        ])
    figure14_configs;
  table

let figure15 ?(seed = 1983L) ?(ops = 100_000) ?(sizes = [ 100; 1_000; 10_000 ]) () =
  let table =
    Table.create
      ~header:[ "Statistic"; "Entries"; "Avg"; "Max"; "Std Dev" ]
      ()
  in
  let outcomes =
    List.map
      (fun size ->
        (size, Experiment.run ~seed ~config:(Config.simple ~n:3 ~r:2 ~w:2) ~n_entries:size ~ops ()))
      sizes
  in
  let row label pick =
    List.iter
      (fun (size, (o : Experiment.outcome)) ->
        let s : Stats.t = pick o.Experiment.stats in
        Table.add_row table
          [
            label;
            string_of_int size;
            f (Stats.mean s);
            Printf.sprintf "%g" (Stats.max s);
            f (Stats.stddev s);
          ])
      outcomes;
    Table.add_separator table
  in
  row "Entries in ranges coalesced" (fun s -> s.Experiment.entries_coalesced);
  row "Deletions while coalescing" (fun s -> s.Experiment.deletions_while_coalescing);
  row "Insertions while coalescing" (fun s -> s.Experiment.insertions_while_coalescing);
  table

let quorum_stability ?(seed = 1983L) ?(ops = 10_000) ?(entries = 100) () =
  let table =
    Table.create
      ~header:
        [
          "Quorum policy";
          "Entries in ranges coalesced";
          "Deletions while coalescing";
          "Insertions while coalescing";
        ]
      ()
  in
  let config = Config.simple ~n:3 ~r:2 ~w:2 in
  let run label picker =
    let o = Experiment.run ~seed ~picker ~config ~n_entries:entries ~ops () in
    Table.add_row table
      [
        label;
        f (Stats.mean o.stats.entries_coalesced);
        f (Stats.mean o.stats.deletions_while_coalescing);
        f (Stats.mean o.stats.insertions_while_coalescing);
      ]
  in
  run "random (paper §4)" Picker.Random;
  run "stable (fixed order)" (Picker.Fixed [| 0; 1; 2 |]);
  table

let availability ?(p_ups = [ 0.5; 0.9; 0.95; 0.99 ]) () =
  let header =
    "Configuration"
    :: List.concat_map
         (fun p -> [ Printf.sprintf "R avail p=%.2f" p; Printf.sprintf "W avail p=%.2f" p ])
         p_ups
  in
  let table = Table.create ~header () in
  List.iter
    (fun config ->
      let cells =
        List.concat_map
          (fun p_up ->
            [
              Printf.sprintf "%.4f" (Availability.read_availability config ~p_up);
              Printf.sprintf "%.4f" (Availability.write_availability config ~p_up);
            ])
          p_ups
      in
      Table.add_row table (Config.to_string config :: cells))
    figure14_configs;
  table

(* Shared traffic runner: drives the §4 workload mix against one suite and
   reports, per operation kind, the average representative calls and the
   average true wire messages (calls + batch rounds + deferred notices that
   had to travel on their own). Deferred commit notices ride on later
   operations' messages, so with batching the steady-state per-op delta
   already charges each op for the traffic it induces; a final flush clears
   the tail so nothing is left unaccounted. *)
let traffic_run ?(seed = 1983L) ?(ops = 4_000) ?(entries = 100) ?(two_phase = false)
    ?(batching = false) ~config () =
  let open Repdir_core in
  let root = Rng.create seed in
  let workload_rng = Rng.split root in
  let n = Config.n_reps config in
  let reps =
    Array.init n (fun i -> Repdir_rep.Rep.create ~name:(Printf.sprintf "rep%d" i) ())
  in
  let transport = Transport.local reps in
  let txns = Repdir_txn.Txn.Manager.create () in
  let suite =
    Suite.create ~seed:(Rng.int64 root) ~two_phase ~batching ~config ~transport ~txns ()
  in
  let workload =
    Repdir_workload.Workload.create ~lookup_fraction:0.25 ~update_fraction:0.25
      ~rng:workload_rng ~target_size:entries ()
  in
  List.iter
    (fun op ->
      match op with
      | Repdir_workload.Workload.Insert (k, v) -> ignore (Suite.insert suite k v)
      | _ -> assert false)
    (Repdir_workload.Workload.initial_fill workload);
  Suite.flush_notices suite;
  let call_sums = Hashtbl.create 4 in
  let msg_sums = Hashtbl.create 4 in
  let counts = Hashtbl.create 4 in
  let bump tbl kind v =
    Hashtbl.replace tbl kind (v + Option.value ~default:0 (Hashtbl.find_opt tbl kind))
  in
  for _ = 1 to ops do
    let calls_before = transport.Transport.rpc_count in
    let msgs_before = transport.Transport.msg_count in
    let kind =
      match Repdir_workload.Workload.next workload with
      | Repdir_workload.Workload.Lookup k ->
          ignore (Suite.lookup suite k);
          "lookup"
      | Repdir_workload.Workload.Insert (k, v) ->
          ignore (Suite.insert suite k v);
          "insert"
      | Repdir_workload.Workload.Update (k, v) ->
          ignore (Suite.update suite k v);
          "update"
      | Repdir_workload.Workload.Delete k ->
          ignore (Suite.delete suite k);
          "delete"
    in
    bump call_sums kind (transport.Transport.rpc_count - calls_before);
    bump msg_sums kind (transport.Transport.msg_count - msgs_before);
    bump counts kind 1
  done;
  Suite.flush_notices suite;
  let avg tbl kind =
    match (Hashtbl.find_opt tbl kind, Hashtbl.find_opt counts kind) with
    | Some s, Some c when c > 0 -> Some (float_of_int s /. float_of_int c)
    | _ -> None
  in
  List.map
    (fun kind -> (kind, (avg call_sums kind, avg msg_sums kind)))
    [ "lookup"; "insert"; "update"; "delete" ]

let messages_per_op ?ops ?two_phase ?batching ~config () =
  traffic_run ?ops ?two_phase ?batching ~config ()
  |> List.filter_map (fun (kind, (_, msgs)) ->
         Option.map (fun m -> (kind, m)) msgs)

(* Per-operation traffic: representative calls (the paper's unit — quantifies
   "there is no performance penalty ... except on Delete operations", §1
   abstract) next to true wire messages for a two-phase suite, unbatched vs
   batched. *)
let messages ?(seed = 1983L) ?(ops = 4_000) ?(entries = 100) () =
  let table =
    Table.create
      ~header:[ "Configuration"; "Metric"; "Lookup"; "Insert"; "Update"; "Delete" ]
      ()
  in
  let cell = function Some v -> f v | None -> "-" in
  List.iter
    (fun config ->
      let row label pick stats =
        Table.add_row table
          (Config.to_string config :: label
          :: List.map (fun (_, pair) -> cell (pick pair)) stats)
      in
      let calls = traffic_run ~seed ~ops ~entries ~config () in
      row "calls/op (1-phase)" fst calls;
      let unbatched = traffic_run ~seed ~ops ~entries ~two_phase:true ~config () in
      row "msgs/op (2pc)" snd unbatched;
      let batched =
        traffic_run ~seed ~ops ~entries ~two_phase:true ~batching:true ~config ()
      in
      row "msgs/op (2pc, batched)" snd batched;
      Table.add_separator table)
    figure14_configs;
  table

(* Storage and write-traffic across strategies under identical churn. *)
let space_and_traffic ?(seed = 1983L) ?(ops = 3_000) ?(entries = 100) () =
  let open Repdir_baselines in
  let config = Config.simple ~n:3 ~r:2 ~w:2 in
  let table =
    Table.create
      ~header:
        [
          "Strategy";
          "Live entries";
          "Physical entries (max replica)";
          "Entries shipped per modification";
        ]
      ()
  in
  let churn ~insert ~update ~delete =
    (* The §4 mix, shared by every strategy via its own workload mirror. *)
    let w =
      Repdir_workload.Workload.create ~rng:(Rng.create seed) ~target_size:entries ()
    in
    let mods = ref 0 in
    let apply op =
      incr mods;
      match op with
      | Repdir_workload.Workload.Insert (k, v) -> insert k v
      | Repdir_workload.Workload.Update (k, v) -> update k v
      | Repdir_workload.Workload.Delete k -> delete k
      | Repdir_workload.Workload.Lookup _ -> decr mods
    in
    List.iter apply (Repdir_workload.Workload.initial_fill w);
    for _ = 1 to ops do
      apply (Repdir_workload.Workload.next w)
    done;
    !mods
  in
  let row name ~live ~physical ~shipped ~mods =
    Table.add_row table
      [
        name;
        string_of_int live;
        string_of_int physical;
        Table.cell_float (float_of_int shipped /. float_of_int mods);
      ]
  in
  (* The paper's algorithm over real representatives. *)
  let () =
    let open Repdir_rep in
    let open Repdir_core in
    let reps = Array.init 3 (fun i -> Rep.create ~name:(Printf.sprintf "r%d" i) ()) in
    let suite =
      Suite.create ~seed ~config ~transport:(Transport.local reps)
        ~txns:(Repdir_txn.Txn.Manager.create ())
        ()
    in
    let mods =
      churn
        ~insert:(fun k v -> ignore (Suite.insert suite k v))
        ~update:(fun k v -> ignore (Suite.update suite k v))
        ~delete:(fun k -> ignore (Suite.delete suite k))
    in
    let physical = Array.fold_left (fun acc r -> max acc (Rep.size r)) 0 reps in
    let shipped =
      Array.fold_left (fun acc r -> acc + (Rep.counters r).Rep.inserts) 0 reps
    in
    (* Counted by a quorum traversal, like the baselines' own counts. *)
    let live = List.length (Suite.to_alist suite) in
    row "gap-versioned (this paper)" ~live ~physical ~shipped ~mods
  in
  let () =
    let tb = Tombstone.create ~seed ~config () in
    let mods =
      churn
        ~insert:(fun k v -> ignore (Tombstone.insert tb k v))
        ~update:(fun k v -> ignore (Tombstone.update tb k v))
        ~delete:(fun k -> ignore (Tombstone.delete tb k))
    in
    row "tombstones (never reclaimed)" ~live:(Tombstone.size tb)
      ~physical:(Tombstone.physical_size tb)
      ~shipped:(2 * mods) (* one entry to each of W = 2 members *)
      ~mods
  in
  let () =
    let fv = File_voting.create ~seed ~config () in
    let mods =
      churn
        ~insert:(fun k v -> ignore (File_voting.insert fv k v))
        ~update:(fun k v -> ignore (File_voting.update fv k v))
        ~delete:(fun k -> ignore (File_voting.delete fv k))
    in
    row "file voting (whole directory)" ~live:(File_voting.size fv)
      ~physical:(File_voting.size fv)
      ~shipped:(File_voting.entries_written fv) ~mods
  in
  let () =
    let sp = Static_partition.create ~seed ~config ~partitions:8 () in
    let mods =
      churn
        ~insert:(fun k v -> ignore (Static_partition.insert sp k v))
        ~update:(fun k v -> ignore (Static_partition.update sp k v))
        ~delete:(fun k -> ignore (Static_partition.delete sp k))
    in
    row "static partitions (8)" ~live:(Static_partition.size sp)
      ~physical:(Static_partition.size sp)
      ~shipped:(Static_partition.entries_written sp) ~mods
  in
  let () =
    let u = Unanimous.create ~seed ~n:3 () in
    let mods =
      churn
        ~insert:(fun k v -> ignore (Unanimous.insert u k v))
        ~update:(fun k v -> ignore (Unanimous.update u k v))
        ~delete:(fun k -> ignore (Unanimous.delete u k))
    in
    row "unanimous update" ~live:(Unanimous.size u) ~physical:(Unanimous.size u)
      ~shipped:(3 * mods) ~mods
  in
  table

(* §4 batching: representative calls per delete with chained neighbour
   requests of increasing depth. *)
let batching ?(seed = 1983L) ?(ops = 4_000) ?(entries = 100) () =
  let open Repdir_core in
  let table =
    Table.create ~header:[ "Configuration"; "Batch depth"; "Calls per delete" ] ()
  in
  List.iter
    (fun config ->
      List.iter
        (fun depth ->
          let root = Rng.create seed in
          let workload_rng = Rng.split root in
          let n = Config.n_reps config in
          let reps =
            Array.init n (fun i -> Repdir_rep.Rep.create ~name:(Printf.sprintf "rep%d" i) ())
          in
          let transport = Transport.local reps in
          let suite =
            Suite.create ~seed:(Rng.int64 root) ~batch_depth:depth ~config ~transport
              ~txns:(Repdir_txn.Txn.Manager.create ())
              ()
          in
          let workload =
            Repdir_workload.Workload.create ~rng:workload_rng ~target_size:entries ()
          in
          List.iter
            (function
              | Repdir_workload.Workload.Insert (k, v) -> ignore (Suite.insert suite k v)
              | _ -> assert false)
            (Repdir_workload.Workload.initial_fill workload);
          let delete_calls = ref 0 and deletes = ref 0 in
          for _ = 1 to ops do
            match Repdir_workload.Workload.next workload with
            | Repdir_workload.Workload.Delete k ->
                let before = transport.Transport.rpc_count in
                ignore (Suite.delete suite k);
                incr deletes;
                delete_calls := !delete_calls + (transport.Transport.rpc_count - before)
            | Repdir_workload.Workload.Insert (k, v) -> ignore (Suite.insert suite k v)
            | Repdir_workload.Workload.Update (k, v) -> ignore (Suite.update suite k v)
            | Repdir_workload.Workload.Lookup k -> ignore (Suite.lookup suite k)
          done;
          Table.add_row table
            [
              Config.to_string config;
              string_of_int depth;
              f (float_of_int !delete_calls /. float_of_int (max 1 !deletes));
            ])
        [ 1; 3; 5 ];
      Table.add_separator table)
    [ Config.simple ~n:3 ~r:2 ~w:2; Config.simple ~n:5 ~r:3 ~w:3 ];
  table
