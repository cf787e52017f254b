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

(* Per-operation traffic: representative calls (the paper's unit — quantifies
   "there is no performance penalty ... except on Delete operations", §1
   abstract) next to true wire messages, unbatched vs batched, under a mix
   with lookups and updates a quarter each. *)
let messages ?(seed = 1983L) ?(ops = 4_000) ?(entries = 100) () =
  let table =
    Table.create
      ~header:[ "Configuration"; "Metric"; "Lookup"; "Insert"; "Update"; "Delete" ]
      ()
  in
  List.iter
    (fun config ->
      let run batching =
        Experiment.run ~seed ~batching ~mix:(0.25, 0.25) ~config ~n_entries:entries ~ops ()
      in
      let row label (o : Experiment.outcome) pick =
        let cell (_, (t : Experiment.traffic)) =
          if t.count = 0 then "-" else f (float_of_int (pick t) /. float_of_int t.count)
        in
        Table.add_row table (Config.to_string config :: label :: List.map cell o.traffic)
      in
      let unbatched = run false in
      row "calls/op" unbatched (fun t -> t.Experiment.calls);
      row "msgs/op (2pc)" unbatched (fun t -> t.Experiment.msgs);
      row "msgs/op (2pc, batched)" (run true) (fun t -> t.Experiment.msgs);
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
  let table =
    Table.create ~header:[ "Configuration"; "Batch depth"; "Calls per delete" ] ()
  in
  List.iter
    (fun config ->
      List.iter
        (fun batch_depth ->
          let o = Experiment.run ~seed ~batch_depth ~config ~n_entries:entries ~ops () in
          let t = List.assoc "delete" o.traffic in
          Table.add_row table
            [
              Config.to_string config;
              string_of_int batch_depth;
              f (float_of_int t.calls /. float_of_int (max 1 t.count));
            ])
        [ 1; 3; 5 ];
      Table.add_separator table)
    [ Config.simple ~n:3 ~r:2 ~w:2; Config.simple ~n:5 ~r:3 ~w:3 ];
  table
