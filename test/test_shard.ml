(* Tests for horizontal sharding: the epoch-stamped shard map, the client
   router over multi-group worlds (differentially against the single-group
   seed suite), cross-shard two-phase commit, fence adoption, and the
   end-to-end split campaign. *)

open Repdir_key
open Repdir_quorum
open Repdir_shard
open Repdir_harness
module Suite = Repdir_core.Suite
module Transport = Repdir_core.Transport
module Rep = Repdir_rep.Rep
module Sim = Repdir_sim.Sim

let cfg = Config.simple ~n:3 ~r:2 ~w:2

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  scan 0

let get_ok = function Ok m -> m | Error e -> Alcotest.fail e

(* --- the shard map ---------------------------------------------------------------- *)

let test_map_initial_and_find () =
  let m = Shard_map.initial ~cuts:[ Key.of_int 10; Key.of_int 20 ] in
  Alcotest.(check int) "epoch" 0 (Shard_map.epoch_of m);
  Alcotest.(check int) "shards" 3 (Shard_map.n_shards m);
  Alcotest.(check int) "groups" 3 (Shard_map.n_groups m);
  Alcotest.(check int) "low key" 0 (Shard_map.find m (Bound.key (Key.of_int 3)));
  Alcotest.(check int) "cut owns upper" 1 (Shard_map.find m (Bound.key (Key.of_int 10)));
  Alcotest.(check int) "interior" 1 (Shard_map.find m (Bound.key (Key.of_int 19)));
  Alcotest.(check int) "last" 2 (Shard_map.find m (Bound.key (Key.of_int 20)));
  Alcotest.(check int) "LOW" 0 (Shard_map.find m Bound.Low);
  Alcotest.(check int) "HIGH" 2 (Shard_map.find m Bound.High)

let test_map_split_and_land () =
  let m0 = Shard_map.initial ~cuts:[] in
  let m1 = get_ok (Shard_map.begin_split m0 ~shard:0 ~at:(Key.of_int 12) ~to_g:1) in
  Alcotest.(check int) "epoch 1" 1 (Shard_map.epoch_of m1);
  Alcotest.(check bool) "in flight" true (Shard_map.in_flight m1);
  (match Shard_map.begin_move m1 ~shard:0 ~to_g:1 with
  | Ok _ -> Alcotest.fail "second migration accepted while one is in flight"
  | Error _ -> ());
  let m2 = get_ok (Shard_map.finish_move m1 ~shard:1) in
  Alcotest.(check int) "epoch 2" 2 (Shard_map.epoch_of m2);
  Alcotest.(check bool) "landed" false (Shard_map.in_flight m2);
  Alcotest.(check int) "upper serves on group 1" 1
    (match Shard_map.state_of m2 ~shard:1 with Shard_map.Serving g -> g | _ -> -1);
  List.iter
    (fun m ->
      match Shard_map.decode (Shard_map.encode m) with
      | Ok m' -> Alcotest.(check bool) "roundtrip" true (Shard_map.equal m m')
      | Error e -> Alcotest.fail e)
    [ m0; m1; m2 ]

let roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:200
    QCheck.(small_list small_nat)
    (fun ks ->
      let cuts =
        List.sort_uniq compare (List.filter (fun k -> k > 0) ks)
        |> List.map Key.of_int
      in
      let m = Shard_map.initial ~cuts in
      (* walk it through a split and a landing too, when it has room *)
      let ms =
        match Shard_map.begin_split m ~shard:0 ~at:(Key.of_int 0) ~to_g:99 with
        | Error _ -> [ m ]
        | Ok m1 -> (
            match Shard_map.finish_move m1 ~shard:1 with
            | Error _ -> [ m; m1 ]
            | Ok m2 -> [ m; m1; m2 ])
      in
      List.for_all
        (fun m ->
          match Shard_map.decode (Shard_map.encode m) with
          | Ok m' -> Shard_map.equal m m'
          | Error _ -> false)
        ms)

let test_decode_rejects_garbage () =
  List.iter
    (fun s ->
      match Shard_map.decode s with
      | Ok _ -> Alcotest.failf "decoded %S" s
      | Error _ -> ())
    [ ""; "nonsense"; "M|"; "M|x|+:0"; "M|1|"; "M|1|k41,0;k41,1"; "S|0|1,1,1|2|2|AAAA" ]

(* --- differential: sharded router vs the single-group seed suite ------------------- *)

(* The same operation sequence runs against a sharded deployment's router
   and a plain single-group world's suite; every response must agree. Keys
   live in [0, 30); boundary probes around each cut straddle the seams. *)

type op =
  | L of int
  | I of int * string
  | U of int * string
  | D of int
  | N of int
  | P of int
  | F
  | La

let apply ~lookup ~insert ~update ~delete ~next ~prev ~first ~last op =
  let entry = function
    | Some (k, _, v) -> Printf.sprintf "%s=%s" (Key.to_string k) v
    | None -> "none"
  in
  match op with
  | L k -> (
      match lookup (Key.of_int k) with Some (_, v) -> "some " ^ v | None -> "none")
  | I (k, v) -> (
      match insert (Key.of_int k) v with Ok () -> "ok" | Error `Already_present -> "dup")
  | U (k, v) -> (
      match update (Key.of_int k) v with Ok () -> "ok" | Error `Not_present -> "absent")
  | D k -> string_of_bool (delete (Key.of_int k)).Suite.was_present
  | N k -> entry (next (Key.of_int k))
  | P k -> entry (prev (Key.of_int k))
  | F -> entry (first ())
  | La -> entry (last ())

let run_sharded ~cuts ops =
  let groups = List.length cuts + 1 in
  let world = Shard_world.create ~seed:11L ~config:cfg ~groups () in
  let router = Shard_world.router_for_client world 0 ~map:(Shard_map.initial ~cuts) in
  let sim = Shard_world.sim world in
  let out = ref [] in
  Sim.spawn sim (fun () ->
      List.iter
        (fun op ->
          out :=
            apply op ~lookup:(Router.lookup router) ~insert:(Router.insert router)
              ~update:(Router.update router) ~delete:(Router.delete router)
              ~next:(Router.next router) ~prev:(Router.prev router)
              ~first:(fun () -> Router.first router)
              ~last:(fun () -> Router.last router)
            :: !out)
        ops);
  Sim.run sim;
  List.rev !out

let run_seed ops =
  let world = Shard_world.create ~seed:11L ~config:cfg ~groups:1 () in
  let suite = Shard_world.suite_for_client world 0 0 in
  let sim = Shard_world.sim world in
  let out = ref [] in
  Sim.spawn sim (fun () ->
      List.iter
        (fun op ->
          out :=
            apply op ~lookup:(Suite.lookup suite) ~insert:(Suite.insert suite)
              ~update:(Suite.update suite) ~delete:(Suite.delete suite)
              ~next:(Suite.next suite) ~prev:(Suite.prev suite)
              ~first:(fun () -> Suite.first suite)
              ~last:(fun () -> Suite.last suite)
            :: !out)
        ops);
  Sim.run sim;
  List.rev !out

let boundary_probes cuts =
  List.concat_map
    (fun c -> [ N (c - 1); N c; P c; P (c + 1); L c; I (c, "cut"); N (c - 1); D c ])
    cuts
  @ [ F; La ]

let gen_ops =
  QCheck.Gen.(
    let key = int_bound 29 in
    let op =
      frequency
        [
          (3, map (fun k -> L k) key);
          (3, map2 (fun k v -> I (k, "i" ^ string_of_int v)) key small_nat);
          (2, map2 (fun k v -> U (k, "u" ^ string_of_int v)) key small_nat);
          (2, map (fun k -> D k) key);
          (2, map (fun k -> N k) key);
          (2, map (fun k -> P k) key);
          (1, return F);
          (1, return La);
        ]
    in
    list_size (int_range 20 60) op)

let differential name cut_ints =
  let cuts = List.map Key.of_int cut_ints in
  QCheck.Test.make ~name ~count:12 (QCheck.make gen_ops) (fun ops ->
      let ops = ops @ boundary_probes cut_ints in
      run_sharded ~cuts ops = run_seed ops)

let diff_two_shards = differential "2 shards agree with seed" [ 15 ]
let diff_four_shards = differential "4 shards agree with seed" [ 8; 15; 22 ]

(* --- cross-shard transactions ------------------------------------------------------ *)

let test_cross_shard_txn_atomic () =
  let world = Shard_world.create ~seed:5L ~config:cfg ~groups:2 () in
  let router =
    Shard_world.router_for_client world 0 ~map:(Shard_map.initial ~cuts:[ Key.of_int 15 ])
  in
  let sim = Shard_world.sim world in
  Sim.spawn sim (fun () ->
      Router.with_txn router (fun txn ->
          ignore (Router.insert ~txn router (Key.of_int 3) "low" : (unit, _) result);
          ignore (Router.insert ~txn router (Key.of_int 20) "high" : (unit, _) result));
      Alcotest.(check bool) "low landed" true (Router.mem router (Key.of_int 3));
      Alcotest.(check bool) "high landed" true (Router.mem router (Key.of_int 20));
      (try
         Router.with_txn router (fun txn ->
             ignore (Router.insert ~txn router (Key.of_int 4) "low" : (unit, _) result);
             ignore (Router.insert ~txn router (Key.of_int 21) "high" : (unit, _) result);
             failwith "client changed its mind")
       with Failure _ -> ());
      Alcotest.(check bool) "low rolled back" false (Router.mem router (Key.of_int 4));
      Alcotest.(check bool) "high rolled back" false (Router.mem router (Key.of_int 21)));
  Sim.run sim

(* One group's no vote aborts the other group's half: a group-1 participant
   crashes and recovers between the body and the commit, so its vote is
   worthless. The one decision is [Aborted] and the group-0 write, whose
   participants would vote yes, is rolled back too. *)
let test_no_vote_aborts_other_group () =
  let world = Shard_world.create ~seed:5L ~config:cfg ~groups:2 () in
  let router =
    Shard_world.router_for_client world 0 ~map:(Shard_map.initial ~cuts:[ Key.of_int 15 ])
  in
  let sim = Shard_world.sim world in
  let finished = ref false in
  Sim.spawn sim (fun () ->
      let id = ref (-1) in
      (match
         Router.with_txn router (fun txn ->
             id := txn;
             ignore (Router.insert ~txn router (Key.of_int 4) "low" : (unit, _) result);
             ignore (Router.insert ~txn router (Key.of_int 21) "high" : (unit, _) result);
             let reps = Shard_world.group_reps world 1 in
             let i = Option.get (Array.find_index (fun rep -> Rep.locks_held rep > 0) reps) in
             Shard_world.crash_rep world ~g:1 i;
             Shard_world.recover_rep world ~g:1 i)
       with
      | () -> Alcotest.fail "committed despite a no vote"
      | exception Suite.Unavailable _ -> ());
      Alcotest.(check bool) "abort logged" true
        (Repdir_txn.Coordinator.decision (Shard_world.coordinator world 0) !id
        = Some Repdir_txn.Coordinator.Aborted);
      Alcotest.(check bool) "low rolled back" false (Router.mem router (Key.of_int 4));
      Alcotest.(check bool) "high rolled back" false (Router.mem router (Key.of_int 21));
      finished := true);
  Sim.run sim;
  Alcotest.(check bool) "client finished" true !finished

(* --- shard-epoch fencing ------------------------------------------------------------ *)

let test_fence_adopts_newer_map () =
  let world = Shard_world.create ~seed:6L ~config:cfg ~groups:2 () in
  let m0 = Shard_map.initial ~cuts:[ Key.of_int 15 ] in
  let router = Shard_world.router_for_client world 0 ~map:m0 in
  let sim = Shard_world.sim world in
  (* A newer, landed map installed on every representative behind the
     router's back (it re-cuts a range the test never touches): the next
     operation is fenced, adopts the carried record, and retries through to
     success. *)
  let m1 = get_ok (Shard_map.begin_split m0 ~shard:0 ~at:(Key.of_int 8) ~to_g:1) in
  let m2 = get_ok (Shard_map.finish_move m1 ~shard:1) in
  for g = 0 to 1 do
    Array.iter
      (fun rep ->
        Alcotest.(check bool) "installed" true
          (Rep.install_epoch rep Rep.Shard_map ~epoch:(Shard_map.epoch_of m2)
             ~record:(Shard_map.encode m2)))
      (Shard_world.group_reps world g)
  done;
  Sim.spawn sim (fun () ->
      Alcotest.(check int) "router still at epoch 0" 0 (Router.epoch router);
      (match Router.insert router (Key.of_int 3) "v1" with
      | Ok () -> ()
      | Error `Already_present -> Alcotest.fail "fresh key already present");
      Alcotest.(check int) "router adopted epoch 2" 2 (Router.epoch router);
      match Router.lookup router (Key.of_int 3) with
      | Some (_, v) -> Alcotest.(check string) "readable after adoption" "v1" v
      | None -> Alcotest.fail "write lost across adoption");
  Sim.run sim

let test_moving_slice_refuses_writes () =
  let world = Shard_world.create ~seed:8L ~config:cfg ~groups:2 () in
  let sim = Shard_world.sim world in
  let m0 = Shard_map.initial ~cuts:[] in
  let m1 = get_ok (Shard_map.begin_split m0 ~shard:0 ~at:(Key.of_int 15) ~to_g:1) in
  let writer = Shard_world.router_for_client world 0 ~map:m0 in
  let reader = Shard_world.router_for_client world 0 ~map:m1 in
  Sim.spawn sim (fun () ->
      ignore (Router.insert writer (Key.of_int 20) "frozen" : (unit, _) result);
      (* reads of the moving slice keep flowing from the source group *)
      (match Router.lookup reader (Key.of_int 20) with
      | Some (_, v) -> Alcotest.(check string) "read from source" "frozen" v
      | None -> Alcotest.fail "entry invisible during migration");
      (* writes to it are refused until the flip, naming the shard *)
      match Router.insert reader (Key.of_int 21) "x" with
      | Ok () | Error _ -> Alcotest.fail "write to a moving range went through"
      | exception Suite.Unavailable msg ->
          Alcotest.(check bool) ("names migration: " ^ msg) true (contains msg "migrating"));
  Sim.run sim

(* The bound between two shards belongs to the upper one, so a downward walk
   enters the lower shard exclusively at it: the source group's residue at
   the cut must not hide the lower shard's own entries. *)
let test_prev_skips_residue_at_cut () =
  let world = Shard_world.create ~seed:9L ~config:cfg ~groups:2 () in
  let sim = Shard_world.sim world in
  let m0 = Shard_map.initial ~cuts:[] in
  let m1 = get_ok (Shard_map.begin_split m0 ~shard:0 ~at:(Key.of_int 15) ~to_g:1) in
  let landed = get_ok (Shard_map.finish_move m1 ~shard:1) in
  let writer = Shard_world.router_for_client world 0 ~map:m0 in
  let reader = Shard_world.router_for_client world 0 ~map:landed in
  Sim.spawn sim (fun () ->
      List.iter
        (fun k -> ignore (Router.insert writer (Key.of_int k) "v" : (unit, _) result))
        [ 14; 15 ];
      Alcotest.(check (option string)) "prev of 16" (Some (Key.of_int 14))
        (Option.map (fun (k, _, _) -> k) (Router.prev reader (Key.of_int 16))));
  Sim.run sim

let test_unavailable_names_the_shard () =
  let world = Shard_world.create ~seed:7L ~config:cfg ~groups:2 () in
  let router =
    Shard_world.router_for_client world 0 ~map:(Shard_map.initial ~cuts:[ Key.of_int 15 ])
  in
  let sim = Shard_world.sim world in
  for i = 0 to 2 do
    Shard_world.crash_rep world ~g:1 i
  done;
  Sim.spawn sim (fun () ->
      match Router.insert router (Key.of_int 20) "v" with
      | Ok () | Error _ -> Alcotest.fail "no quorum yet the write went through"
      | exception Suite.Unavailable msg ->
          Alcotest.(check bool) ("names group 1: " ^ msg) true (contains msg "group 1"));
  Sim.run sim

(* A transport to any group counts its retransmissions: a call to a crashed
   representative of the second group times out on every attempt, and each
   of the two retransmissions is a retry and a wire message. *)
let test_transport_counts_retries () =
  let world = Shard_world.create ~seed:9L ~rpc_attempts:3 ~config:cfg ~groups:2 () in
  let tr = Shard_world.client_transport world 0 1 in
  Shard_world.crash_rep world ~g:1 0;
  let sim = Shard_world.sim world in
  let result = ref None in
  Sim.spawn sim (fun () -> result := Some (tr.Transport.call 0 (fun _ -> ())));
  Sim.run sim;
  Alcotest.(check bool) "timed out" true (!result = Some (Error Transport.Timeout));
  Alcotest.(check int) "retries" 2 tr.Transport.retry_count;
  Alcotest.(check int) "messages" 2 tr.Transport.msg_count

(* --- the end-to-end campaign ------------------------------------------------------- *)

(* The fault-free variants of the acceptance run: a live split to a fresh
   group under client traffic, audited (two clients) and model-checked (one
   client). The faulted variant is exercised by
   `repdir campaign "sharded split"` in CI (it takes minutes of virtual
   time). *)
(* The catalogue's two-group split plan as campaign seed 1983 builds it. *)
let shard_plan ~clients ~duration =
  let e = Nemesis.find "sharded split" in
  Nemesis.plan_of { e.defaults with clients; duration } e

let check_split_report outcome =
  let report = Option.get outcome.Nemesis.change in
  let split = List.hd report.Nemesis.progress in
  Alcotest.(check bool) "flip completed" true (split.Nemesis.completed_at <> None);
  Alcotest.(check bool) "slice gate held" true split.Nemesis.gate_ok;
  Alcotest.(check int) "final shard epoch" 2 report.Nemesis.final_epoch;
  Alcotest.(check bool) "epoch agreed" true report.Nemesis.epoch_agreed;
  Alcotest.(check int) "no violations" 0 (Nemesis.total_violations outcome);
  Alcotest.(check int) "no orphan locks" 0 outcome.Nemesis.orphan_locks;
  Alcotest.(check int) "no open in-doubt" 0 outcome.Nemesis.indoubt_open

let fault_free_split ~clients ~duration =
  let plan = shard_plan ~clients ~duration in
  { plan with Nemesis.steps = [] }

(* Besides the split's own checks, its cost to bystanders: writes to the
   moving slice are refused while it is frozen, yet clients complete at
   least half as many ops per unit of virtual time during the migration as
   before it (0.64 here). *)
let test_split_campaign_audited () =
  let outcome =
    Nemesis.run_plan ~key_space:24 ~clients:2 
      (fault_free_split ~clients:2 ~duration:1500.0)
  in
  check_split_report outcome;
  let r = Option.get outcome.Nemesis.change in
  let rate ops span = float_of_int ops /. span in
  let ratio = rate r.Nemesis.during_ops r.during_span /. rate r.steady_ops r.steady_span in
  if not (ratio >= 0.5) then
    Alcotest.failf "during-split throughput %.2f of steady < 0.5 (%d ops/%.0fu vs %d ops/%.0fu)"
      ratio r.during_ops r.during_span r.steady_ops r.steady_span

let test_split_campaign_model_checked () =
  check_split_report
    (Nemesis.run_plan ~key_space:24 ~clients:1 (fault_free_split ~clients:1 ~duration:900.0))

(* A split that cannot pass its gate must be safe indefinitely: the whole
   target group is crashed before the split starts and stays down past the
   admin's deadline, so no slice copy ever lands. The map stays [Moving]
   (epoch 1) with reads served by the source group, and the quiesce audit
   must still be clean. *)
let test_split_stuck_target_is_safe () =
  let plan = shard_plan ~clients:2 ~duration:600.0 in
  let steps = List.map (fun i -> { Nemesis.at = 10.0; action = Nemesis.Crash i }) [ 3; 4; 5 ] in
  let outcome = Nemesis.run_plan ~key_space:24 ~clients:2 { plan with steps } in
  let report = Option.get outcome.Nemesis.change in
  let split = List.hd report.Nemesis.progress in
  Alcotest.(check bool) "flip never completed" true (split.Nemesis.completed_at = None);
  Alcotest.(check bool) "slice gate failed" false split.Nemesis.gate_ok;
  Alcotest.(check bool) "map still moving" true report.Nemesis.in_flight;
  Alcotest.(check int) "moving epoch" 1 report.Nemesis.final_epoch;
  Alcotest.(check bool) "epoch agreed" true report.Nemesis.epoch_agreed;
  Alcotest.(check bool) "workload ran" true (outcome.Nemesis.succeeded > 0);
  Alcotest.(check int) "no violations" 0 (Nemesis.total_violations outcome);
  Alcotest.(check int) "no orphan locks" 0 outcome.Nemesis.orphan_locks;
  Alcotest.(check int) "no open in-doubt" 0 outcome.Nemesis.indoubt_open

(* Network faults are world-agnostic: a lossy window on a sharded world
   really drops and duplicates messages, and the split still lands
   cleanly. *)
let test_sharded_world_applies_network_faults () =
  let plan = fault_free_split ~clients:1 ~duration:900.0 in
  let lossy = { Repdir_sim.Net.no_faults with drop = 0.1; duplicate = 0.1 } in
  let steps =
    [ { Nemesis.at = 20.0; action = Nemesis.Flaky lossy }; { at = 200.0; action = Steady } ]
  in
  let outcome = Nemesis.run_plan ~key_space:24 { plan with steps } in
  Alcotest.(check bool) "messages dropped" true (outcome.Nemesis.msgs_dropped > 0);
  Alcotest.(check bool) "messages duplicated" true (outcome.Nemesis.msgs_duplicated > 0);
  check_split_report outcome

(* Clock skew is a per-representative fault like any other: skew windows
   over every representative of both groups make leases expire at the
   skewed replicas, and the audited split campaign stays clean. *)
let test_sharded_world_applies_clock_skew () =
  let duration = 1500.0 in
  let plan = shard_plan ~clients:2 ~duration in
  let skew =
    let e = Nemesis.find "clock skew" in
    e.build ~seed:1992L ~n:6 { e.defaults with duration }
  in
  let steps = plan.Nemesis.steps @ skew.Nemesis.steps in
  let outcome = Nemesis.run_plan ~key_space:24 ~clients:2 { plan with steps } in
  Alcotest.(check int) "no violations" 0 (Nemesis.total_violations outcome);
  Alcotest.(check bool) "leases expired" true (outcome.Nemesis.leases_expired > 0)

(* --- scaling ------------------------------------------------------------------------ *)

(* Goodput (ops per 100 time units after warm-up) of a [groups]-group
   deployment under 24 clients, and the representatives' summed admission
   rejects. Every representative runs a deliberately tight admission cap
   standing in for per-node service capacity, so one group's throughput is
   pinned at its capacity and aggregate throughput can only grow by adding
   groups. Seeds, clients and key space are the same at every group count;
   only the shard map differs. *)
let scaling_run ~groups =
  let module Rng = Repdir_util.Rng in
  let seed = 1983L and duration = 600.0 and warmup = 100.0 in
  let clients = 24 and key_space = 64 in
  let admission = { Rep.window = 10.0; cap = 8; shed_at = 1_000 } in
  let world =
    Shard_world.create ~seed ~rpc_timeout:10.0 ~rpc_attempts:4 ~rpc_backoff:2.0
      ~n_clients:clients ~lease:60.0 ~admission ~config:cfg ~groups ()
  in
  let sim = Shard_world.sim world in
  let cuts = List.init (groups - 1) (fun i -> Key.of_int ((i + 1) * key_space / groups)) in
  let map = Shard_map.initial ~cuts in
  let ok = ref 0 in
  for c = 0 to clients - 1 do
    let rng = Rng.create (Int64.add seed (Int64.of_int (100 + c))) in
    let retry_rng = Rng.create (Int64.add seed (Int64.of_int (200 + c))) in
    let router = Shard_world.router_for_client world c ~map in
    let one_op () =
      let key = Key.of_int (Rng.int rng key_space) in
      let value = Printf.sprintf "c%d-%f" c (Sim.now sim) in
      let kind = Rng.int rng 4 in
      let t0 = Sim.now sim in
      match
        Suite.with_retries ~attempts:4 ~backoff:2.0 ~sleep:(Sim.sleep sim) ~rng:retry_rng
          (fun () ->
            match kind with
            | 0 -> ignore (Router.lookup router key : (_ * string) option)
            | 1 -> ignore (Router.insert router key value : (unit, _) result)
            | 2 -> ignore (Router.update router key value : (unit, _) result)
            | _ -> ignore (Router.delete router key : Suite.delete_report))
      with
      | () -> if t0 >= warmup then incr ok
      | exception (Suite.Unavailable _ | Repdir_txn.Txn.Abort _) -> ()
    in
    Sim.spawn sim (fun () ->
        while Sim.now sim < duration do
          one_op ();
          Sim.sleep sim (Rng.exponential rng ~mean:4.0)
        done)
  done;
  Sim.run sim;
  let rejects =
    List.init groups (Shard_world.group_reps world)
    |> Array.concat
    |> Array.fold_left (fun acc rep -> acc + (Rep.counters rep).Rep.overload_rejects) 0
  in
  (100.0 *. float_of_int !ok /. (duration -. warmup), rejects)

(* Four groups carry at least 2.5x the goodput of one at the same offered
   load (2.84x here). The claim is only meaningful while the cap binds, so
   the one-group run must have pushed arrivals back. *)
let test_four_groups_scale_goodput () =
  let g1, rejects = scaling_run ~groups:1 in
  let g4, _ = scaling_run ~groups:4 in
  Alcotest.(check bool) "admission cap binds on one group" true (rejects > 0);
  if not (g4 >= 2.5 *. g1) then
    Alcotest.failf "4 groups carry %.1f ops/100u vs %.1f for 1 group (%.2fx < 2.5x)" g4 g1
      (g4 /. g1)

let () =
  Alcotest.run "shard"
    [
      ( "map",
        [
          Alcotest.test_case "initial and find" `Quick test_map_initial_and_find;
          Alcotest.test_case "split and land" `Quick test_map_split_and_land;
          QCheck_alcotest.to_alcotest roundtrip;
          Alcotest.test_case "decode rejects garbage" `Quick test_decode_rejects_garbage;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest diff_two_shards;
          QCheck_alcotest.to_alcotest diff_four_shards;
        ] );
      ( "router",
        [
          Alcotest.test_case "cross-shard txn atomic" `Quick test_cross_shard_txn_atomic;
          Alcotest.test_case "no vote in one group aborts the other" `Quick
            test_no_vote_aborts_other_group;
          Alcotest.test_case "fence adopts newer map" `Quick test_fence_adopts_newer_map;
          Alcotest.test_case "moving slice refuses writes" `Quick
            test_moving_slice_refuses_writes;
          Alcotest.test_case "prev skips residue at the cut" `Quick
            test_prev_skips_residue_at_cut;
          Alcotest.test_case "unavailable names the shard" `Quick
            test_unavailable_names_the_shard;
          Alcotest.test_case "transport counts retries" `Quick
            test_transport_counts_retries;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "fault-free split, audited" `Slow test_split_campaign_audited;
          Alcotest.test_case "fault-free split, model-checked" `Slow
            test_split_campaign_model_checked;
          Alcotest.test_case "stuck target stays moving and safe" `Slow
            test_split_stuck_target_is_safe;
          Alcotest.test_case "network faults apply to every world" `Slow
            test_sharded_world_applies_network_faults;
          Alcotest.test_case "clock skew applies on shards" `Slow
            test_sharded_world_applies_clock_skew;
        ] );
      ( "scaling",
        [ Alcotest.test_case "4 groups carry 2.5x one" `Slow test_four_groups_scale_goodput ] );
    ]
