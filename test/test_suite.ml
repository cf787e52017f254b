(* Tests for the directory suite: literal replays of the paper's worked
   examples (Figures 1-5 and 10-11), transaction atomicity, availability
   under representative crashes, and the central correctness property —
   a replicated suite with uniformly random quorums is indistinguishable
   from a sequential directory. *)

open Repdir_key
open Repdir_txn
open Repdir_rep
open Repdir_quorum
open Repdir_core
module Gi = Repdir_gapmap.Gapmap_intf

(* A world: shared representatives + transaction manager; suites with
   different pickers can be created over it to force specific quorums, the
   way the paper's figures walk through specific quorum choices. *)
type world = {
  reps : Rep.t array;
  transport : Transport.t;
  txns : Txn.Manager.t;
  config : Config.t;
}

let make_world ?(n = 3) ?(r = 2) ?(w = 2) () =
  let reps = Array.init n (fun i -> Rep.create ~name:(Printf.sprintf "rep%d" i) ()) in
  {
    reps;
    transport = Transport.local reps;
    txns = Txn.Manager.create ();
    config = Config.simple ~n ~r ~w;
  }

let suite_with ?seed picker world =
  Suite.create ?seed ~picker ~config:world.config ~transport:world.transport ~txns:world.txns ()

(* Write an entry directly to chosen representatives (scenario setup). *)
let rep_insert world ~reps:indices key version value =
  let txn = Txn.Manager.begin_txn world.txns in
  List.iter
    (fun i ->
      Rep.insert world.reps.(i) ~txn key version value;
      Rep.commit world.reps.(i) ~txn)
    indices;
  Txn.Manager.commit world.txns txn

let rep_keys world i = List.map (fun (k, _, _) -> k) (Rep.entries world.reps.(i))

let fixed order = Picker.Fixed (Array.of_list order)

(* --- Figures 1-5: the delete ambiguity and its resolution --------------------- *)

(* Representative indices: A = 0, B = 1, C = 2. *)

let setup_figure1 () =
  let world = make_world () in
  rep_insert world ~reps:[ 0; 1; 2 ] "a" 1 "va";
  rep_insert world ~reps:[ 0; 1; 2 ] "c" 1 "vc";
  world

let test_figure4_insert_b () =
  let world = setup_figure1 () in
  let s_ab = suite_with (fixed [ 0; 1; 2 ]) world in
  (match Suite.insert s_ab "b" "vb" with
  | Ok () -> ()
  | Error `Already_present -> Alcotest.fail "b should be insertable");
  (* b landed on A and B with version 1 (one more than the gap's 0). *)
  Alcotest.(check (list string)) "A has b" [ "a"; "b"; "c" ] (rep_keys world 0);
  Alcotest.(check (list string)) "B has b" [ "a"; "b"; "c" ] (rep_keys world 1);
  Alcotest.(check (list string)) "C lacks b" [ "a"; "c" ] (rep_keys world 2);
  (match Rep.entries world.reps.(0) with
  | [ _; ("b", v, _); _ ] -> Alcotest.(check int) "b version 1" 1 v
  | _ -> Alcotest.fail "unexpected A contents");
  (* The mixed read quorum {A, C} resolves to present: version 1 beats gap 0. *)
  let s_ac = suite_with (fixed [ 0; 2; 1 ]) world in
  match Suite.lookup s_ac "b" with
  | Some (v, value) ->
      Alcotest.(check int) "version" 1 v;
      Alcotest.(check string) "value" "vb" value
  | None -> Alcotest.fail "quorum {A,C} must see b"

let test_figure5_delete_b_and_resolution () =
  let world = setup_figure1 () in
  let s_ab = suite_with (fixed [ 0; 1; 2 ]) world in
  (match Suite.insert s_ab "b" "vb" with Ok () -> () | Error _ -> Alcotest.fail "insert");
  (* Delete b using quorum {B, C}; A keeps its (now ghost) entry. *)
  let s_bc = suite_with (fixed [ 1; 2; 0 ]) world in
  let report = Suite.delete s_bc "b" in
  Alcotest.(check bool) "was present" true report.was_present;
  Alcotest.(check (list string)) "A still has ghost b" [ "a"; "b"; "c" ] (rep_keys world 0);
  Alcotest.(check (list string)) "B coalesced" [ "a"; "c" ] (rep_keys world 1);
  Alcotest.(check (list string)) "C coalesced" [ "a"; "c" ] (rep_keys world 2);
  (* Figure 5: the (a, c) gap on B and C now carries version 2. *)
  let gap_between_a_c rep =
    List.find_map
      (fun (l, r, v) ->
        if Bound.equal l (Bound.Key "a") && Bound.equal r (Bound.Key "c") then Some v else None)
      (Rep.gaps rep)
  in
  Alcotest.(check (option int)) "B gap version 2" (Some 2) (gap_between_a_c world.reps.(1));
  Alcotest.(check (option int)) "C gap version 2" (Some 2) (gap_between_a_c world.reps.(2));
  (* The decisive check: read quorum {A, C} — A answers "present, version 1",
     C answers "not present, version 2"; absence wins. Without gap versions
     this was the ambiguous case of Figure 3. *)
  let s_ac = suite_with (fixed [ 0; 2; 1 ]) world in
  Alcotest.(check bool) "b is gone for {A,C}" false (Suite.mem s_ac "b");
  let s_ab' = suite_with (fixed [ 0; 1; 2 ]) world in
  Alcotest.(check bool) "b is gone for {A,B}" false (Suite.mem s_ab' "b");
  (* a and c are untouched. *)
  Alcotest.(check bool) "a stays" true (Suite.mem s_ac "a");
  Alcotest.(check bool) "c stays" true (Suite.mem s_ac "c")

(* --- Figures 10-11: ghosts and real predecessor/successor --------------------- *)

let test_figure10_11_ghost_walk () =
  let world = make_world () in
  (* History producing Figure 10's structure:
     - "a" everywhere;
     - "b" inserted at {A, B};
     - "b" deleted with write quorum {B, C} (A keeps the ghost);
     - "bb" inserted at {A, B} (absent from C). *)
  rep_insert world ~reps:[ 0; 1; 2 ] "a" 1 "va";
  let s_ab = suite_with (fixed [ 0; 1; 2 ]) world in
  (match Suite.insert s_ab "b" "vb" with Ok () -> () | Error _ -> Alcotest.fail "insert b");
  let s_bc = suite_with (fixed [ 1; 2; 0 ]) world in
  ignore (Suite.delete s_bc "b");
  (match Suite.insert s_ab "bb" "vbb" with Ok () -> () | Error _ -> Alcotest.fail "insert bb");
  Alcotest.(check (list string)) "A: a, ghost b, bb" [ "a"; "b"; "bb" ] (rep_keys world 0);
  Alcotest.(check (list string)) "B: a, bb" [ "a"; "bb" ] (rep_keys world 1);
  Alcotest.(check (list string)) "C: a only" [ "a" ] (rep_keys world 2);
  (* Delete "a" from representatives A and C (Figure 11). The real successor
     is bb — the walk must skip A's ghost of b — and bb must first be copied
     to C. Coalescing LOW..bb eliminates the ghost from A. *)
  let s_ac = suite_with (fixed [ 0; 2; 1 ]) world in
  let report = Suite.delete s_ac "a" in
  Alcotest.(check bool) "succ is bb" true (Bound.equal report.succ (Bound.Key "bb"));
  Alcotest.(check bool) "pred is LOW" true (Bound.equal report.pred Bound.Low);
  Alcotest.(check int) "one repair insert (bb -> C)" 1 report.repair_inserts;
  Alcotest.(check int) "one ghost deleted (b on A)" 1 report.ghosts_deleted;
  Alcotest.(check (list string)) "A: only bb left" [ "bb" ] (rep_keys world 0);
  Alcotest.(check (list string)) "C: only bb left" [ "bb" ] (rep_keys world 2);
  (* Every read quorum agrees on the final directory contents {bb}. *)
  List.iter
    (fun order ->
      let s = suite_with (fixed order) world in
      Alcotest.(check bool) "a gone" false (Suite.mem s "a");
      Alcotest.(check bool) "b gone" false (Suite.mem s "b");
      Alcotest.(check bool) "bb present" true (Suite.mem s "bb"))
    [ [ 0; 1; 2 ]; [ 0; 2; 1 ]; [ 1; 2; 0 ] ]

(* --- basic API behaviour -------------------------------------------------------- *)

let test_insert_duplicate_rejected () =
  let world = make_world () in
  let s = suite_with Picker.Random world in
  (match Suite.insert s "k" "v1" with Ok () -> () | Error _ -> Alcotest.fail "first insert");
  match Suite.insert s "k" "v2" with
  | Error `Already_present -> ()
  | Ok () -> Alcotest.fail "duplicate insert must be rejected"

let test_update_missing_rejected () =
  let world = make_world () in
  let s = suite_with Picker.Random world in
  match Suite.update s "missing" "v" with
  | Error `Not_present -> ()
  | Ok () -> Alcotest.fail "update of missing key must be rejected"

let test_update_bumps_version () =
  let world = make_world () in
  let s = suite_with Picker.Random world in
  ignore (Suite.insert s "k" "v1");
  (match Suite.update s "k" "v2" with Ok () -> () | Error _ -> Alcotest.fail "update");
  match Suite.lookup s "k" with
  | Some (v, value) ->
      Alcotest.(check string) "value" "v2" value;
      Alcotest.(check bool) "version grew" true (v >= 2)
  | None -> Alcotest.fail "k must be present"

let test_delete_absent_key () =
  let world = make_world () in
  let s = suite_with Picker.Random world in
  ignore (Suite.insert s "a" "va");
  ignore (Suite.insert s "c" "vc");
  let report = Suite.delete s "b" in
  Alcotest.(check bool) "not present" false report.was_present;
  Alcotest.(check bool) "a survives" true (Suite.mem s "a");
  Alcotest.(check bool) "c survives" true (Suite.mem s "c")

let test_reinsert_after_delete () =
  let world = make_world () in
  let s = suite_with Picker.Random world in
  ignore (Suite.insert s "k" "v1");
  ignore (Suite.delete s "k");
  (match Suite.insert s "k" "v2" with Ok () -> () | Error _ -> Alcotest.fail "reinsert");
  match Suite.lookup s "k" with
  | Some (_, value) -> Alcotest.(check string) "new value" "v2" value
  | None -> Alcotest.fail "k must be present after reinsert"

(* A delete whose write round fails at one member after another already
   applied the coalesce re-runs its body on a fresh quorum; the re-run sees
   the operation's own coalesce, yet must still report the victim present. *)
let test_delete_rerun_keeps_answer () =
  List.iter
    (fun batching ->
      let world = make_world () in
      let local = world.transport in
      let armed = ref false in
      let call i f =
        if i = 1 && !armed && not (List.mem "b" (rep_keys world 0)) then begin
          armed := false;
          Error Transport.Timeout
        end
        else local.Transport.call i f
      in
      let s =
        Suite.create ~batching ~picker:(fixed [ 0; 1; 2 ]) ~config:world.config
          ~transport:{ local with call } ~txns:world.txns ()
      in
      List.iter (fun k -> ignore (Suite.insert s k ("v" ^ k))) [ "a"; "b"; "c" ];
      armed := true;
      let report = Suite.delete s "b" in
      Alcotest.(check bool) "the write round failed once" false !armed;
      Alcotest.(check bool) "victim reported present" true report.Suite.was_present;
      Alcotest.(check bool) "b gone" false (Suite.mem s "b"))
    [ false; true ]

(* A transaction answers a key's version read from what it already learned
   under its locks, but a re-run reads afresh. An unbatched delete of b,
   inside an explicit transaction, has its coalesce reply from B lost after
   A applied it. The re-run, at {A, C}, sends the whole delete again, its
   version read of b included: twice the messages of a delete that meets no
   failure, since C, like B, holds a, b and c. *)
let test_rerun_reads_afresh () =
  let delete_msgs ~fail =
    let world = make_world () in
    let local = world.transport in
    let armed = ref false in
    let call i f =
      if i = 1 && !armed && not (List.mem "b" (rep_keys world 0)) then begin
        armed := false;
        Error Transport.Timeout
      end
      else local.Transport.call i f
    in
    let transport = { local with call } in
    let s =
      Suite.create ~picker:(fixed [ 0; 1; 2 ]) ~config:world.config ~transport ~txns:world.txns ()
    in
    List.iter (fun k -> rep_insert world ~reps:[ 0; 1; 2 ] k 1 ("v" ^ k)) [ "a"; "b"; "c" ];
    armed := fail;
    let m0 = transport.Transport.msg_count in
    Suite.with_txn s (fun txn ->
        Alcotest.(check bool) "victim reported present" true
          (Suite.delete ~txn s "b").Suite.was_present;
        Alcotest.(check bool) "the write round failed if armed" false !armed;
        transport.Transport.msg_count - m0)
  in
  Alcotest.(check int) "messages: the re-run repeats the version read" (2 * delete_msgs ~fail:false)
    (delete_msgs ~fail:true)

(* --- transactions ------------------------------------------------------------------ *)

let test_multi_op_transaction_commit () =
  let world = make_world () in
  let s = suite_with Picker.Random world in
  Suite.with_txn s (fun txn ->
      ignore (Suite.insert ~txn s "x" "1");
      ignore (Suite.insert ~txn s "y" "2"));
  Alcotest.(check bool) "x committed" true (Suite.mem s "x");
  Alcotest.(check bool) "y committed" true (Suite.mem s "y")

let test_multi_op_transaction_abort () =
  let world = make_world () in
  let s = suite_with Picker.Random world in
  ignore (Suite.insert s "keep" "v");
  (try
     Suite.with_txn s (fun txn ->
         ignore (Suite.insert ~txn s "x" "1");
         ignore (Suite.delete ~txn s "keep");
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "x rolled back" false (Suite.mem s "x");
  Alcotest.(check bool) "keep restored" true (Suite.mem s "keep");
  Array.iter
    (fun rep ->
      match Rep.check_invariants rep with Ok () -> () | Error e -> Alcotest.fail e)
    world.reps

(* --- availability under crashes ------------------------------------------------------ *)

let test_survives_one_crash () =
  let world = make_world () in
  let s = suite_with Picker.Random world in
  ignore (Suite.insert s "k" "v");
  Rep.crash world.reps.(0);
  (* 2 of 3 alive: both quorums of a 3-2-2 suite remain collectible. *)
  Alcotest.(check bool) "read works" true (Suite.mem s "k");
  (match Suite.update s "k" "v2" with Ok () -> () | Error _ -> Alcotest.fail "update");
  ignore (Suite.insert s "k2" "v");
  Rep.recover world.reps.(0);
  Alcotest.(check bool) "still consistent after recovery" true (Suite.mem s "k2");
  match Suite.lookup s "k" with
  | Some (_, value) -> Alcotest.(check string) "updated value survives" "v2" value
  | None -> Alcotest.fail "k lost"

let test_unavailable_when_quorum_impossible () =
  let world = make_world () in
  let s = suite_with Picker.Random world in
  ignore (Suite.insert s "k" "v");
  Rep.crash world.reps.(0);
  Rep.crash world.reps.(1);
  (match Suite.lookup s "k" with
  | exception Suite.Unavailable _ -> ()
  | _ -> Alcotest.fail "read quorum should be impossible");
  Rep.recover world.reps.(0);
  Alcotest.(check bool) "reads return with 2 alive" true (Suite.mem s "k")

let test_recovered_rep_serves_stale_data_safely () =
  (* A recovered representative may be arbitrarily stale; version dominance
     must still give current answers on every quorum that includes it. *)
  let world = make_world () in
  let s = suite_with Picker.Random world in
  ignore (Suite.insert s "k" "v1");
  Rep.crash world.reps.(2);
  (match Suite.update s "k" "v2" with Ok () -> () | Error _ -> Alcotest.fail "update");
  ignore (Suite.delete s "k");
  Rep.recover world.reps.(2);
  (* Force a quorum that contains the stale rep 2. *)
  let s_stale = suite_with (fixed [ 2; 0; 1 ]) world in
  Alcotest.(check bool) "deleted key stays deleted" false (Suite.mem s_stale "k")

(* --- the central property: suite == sequential directory -------------------------------- *)

let run_random_history ?(batch_depth = 1) ~n ~r ~w ~seed ~ops () =
  let world = make_world ~n ~r ~w () in
  let s =
    Suite.create ~batch_depth
      ~seed:(Int64.of_int ((seed * 7) + 1))
      ~picker:Picker.Random ~config:world.config ~transport:world.transport ~txns:world.txns
      ()
  in
  let rng = Repdir_util.Rng.create (Int64.of_int seed) in
  let model : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let universe = Array.init 25 (fun i -> Key.of_int i) in
  let model_keys () = Hashtbl.fold (fun k _ acc -> k :: acc) model [] in
  let fail step fmt =
    Printf.ksprintf (fun msg -> failwith (Printf.sprintf "step %d: %s" step msg)) fmt
  in
  for step = 1 to ops do
    (match Repdir_util.Rng.int rng 4 with
    | 0 ->
        let k = Repdir_util.Rng.pick rng universe in
        let v = Printf.sprintf "v%d" step in
        let expect_dup = Hashtbl.mem model k in
        (match Suite.insert s k v with
        | Ok () when expect_dup -> fail step "insert accepted duplicate %s" k
        | Error `Already_present when not expect_dup -> fail step "insert rejected fresh %s" k
        | Ok () -> Hashtbl.replace model k v
        | Error `Already_present -> ())
    | 1 ->
        let k = Repdir_util.Rng.pick rng universe in
        let v = Printf.sprintf "v%d" step in
        let expect_present = Hashtbl.mem model k in
        (match Suite.update s k v with
        | Ok () when not expect_present -> fail step "update accepted missing %s" k
        | Error `Not_present when expect_present -> fail step "update rejected present %s" k
        | Ok () -> Hashtbl.replace model k v
        | Error `Not_present -> ())
    | 2 -> (
        (* Prefer deleting an existing key; sometimes delete a random one. *)
        let candidates = model_keys () in
        let k =
          if candidates <> [] && Repdir_util.Rng.int rng 4 > 0 then
            List.nth candidates (Repdir_util.Rng.int rng (List.length candidates))
          else Repdir_util.Rng.pick rng universe
        in
        let report = Suite.delete s k in
        if report.was_present <> Hashtbl.mem model k then
          fail step "delete presence mismatch on %s" k;
        if report.ghosts_deleted < 0 then fail step "negative ghost count";
        Hashtbl.remove model k)
    | _ -> (
        let k = Repdir_util.Rng.pick rng universe in
        match (Suite.lookup s k, Hashtbl.find_opt model k) with
        | Some (_, v), Some v' when v = v' -> ()
        | None, None -> ()
        | Some (_, v), Some v' -> fail step "lookup %s: value %s vs model %s" k v v'
        | Some _, None -> fail step "lookup %s: present but deleted" k
        | None, Some _ -> fail step "lookup %s: absent but present in model" k));
    (* Probe three random keys with fresh random quorums. *)
    for _ = 1 to 3 do
      let k = Repdir_util.Rng.pick rng universe in
      match (Suite.lookup s k, Hashtbl.find_opt model k) with
      | Some (_, v), Some v' when v = v' -> ()
      | None, None -> ()
      | _ -> fail step "probe mismatch on %s" k
    done
  done;
  Array.iter
    (fun rep ->
      match Rep.check_invariants rep with
      | Ok () -> ()
      | Error e -> failwith ("rep invariant: " ^ e))
    world.reps

let suite_matches_model =
  QCheck.Test.make ~name:"suite equals sequential directory (3-2-2)" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      run_random_history ~n:3 ~r:2 ~w:2 ~seed ~ops:120 ();
      true)

let suite_matches_model_configs =
  QCheck.Test.make ~name:"suite equals sequential directory (varied configs)" ~count:25
    QCheck.(pair (int_bound 1_000_000) (int_bound 3))
    (fun (seed, which) ->
      let n, r, w =
        match which with
        | 0 -> (1, 1, 1)
        | 1 -> (4, 2, 3)
        | 2 -> (5, 3, 3)
        | _ -> (5, 2, 4)
      in
      run_random_history ~n ~r ~w ~seed ~ops:80 ();
      true)

let test_long_soak () = run_random_history ~n:3 ~r:2 ~w:2 ~seed:4242 ~ops:800 ()

let suite_matches_model_batched =
  QCheck.Test.make ~name:"suite equals sequential directory (batched walks, depth 3)"
    ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      run_random_history ~batch_depth:3 ~n:3 ~r:2 ~w:2 ~seed ~ops:100 ();
      true)

(* --- differential: message batching is observationally equivalent ------------- *)

(* The same workload script drives two independent worlds — one suite with
   per-representative message batching, one without — and every observable
   result (insert/update acceptance, delete presence, lookup answers,
   multi-op transaction outcomes including forced aborts) must coincide, as
   must the final directory contents. Quorum choices are deliberately *not*
   synchronized: with no failures injected, observable behaviour must be
   quorum-independent, so any divergence is a batching bug, not noise.

   With [clients] > 1 each world has that many suites over the same
   representatives, each with its own seed (so its own quorums and its own
   version clock), and the script picks the client of every step at random.
   A client then meets versions another client wrote, which one client's
   clock has always already seen. The batched suites' notices are flushed
   after every step: a deferred commit notice would leave the step's locks
   held, and on the local transport another client's request would wait for
   them.

   With [failovers] a seeded schedule hides one member at a time from
   quorum choice (the transport's [is_up]) for stretches of steps, in both
   worlds. The batched suite's keys then fail over to their standby and
   back, which leaves stale members (fault-free home quorums never do)
   and more ghosts. *)
let run_batching_differential ?(clients = 1) ?(failovers = false) ~seed ~ops () =
  let hidden = ref None in
  let mk batching =
    let world = make_world () in
    let world =
      if not failovers then world
      else
        let up = world.transport.Transport.is_up in
        let is_up i = up i && !hidden <> Some i in
        { world with transport = { world.transport with is_up } }
    in
    let suites =
      Array.init clients (fun c ->
          Suite.create ~batching
            ~seed:(Int64.of_int ((seed * 7) + (if batching then 1 else 2) + (10 * c)))
            ~picker:Picker.Random ~config:world.config ~transport:world.transport
            ~txns:world.txns ())
    in
    (world, suites)
  in
  let world_a, suites_a = mk false in
  let world_b, suites_b = mk true in
  let rng = Repdir_util.Rng.create (Int64.of_int seed) in
  let schedule = Repdir_util.Rng.create (Int64.of_int (seed + 1)) in
  let universe = Array.init 16 (fun i -> Key.of_int i) in
  let fail step fmt =
    Printf.ksprintf (fun msg -> failwith (Printf.sprintf "step %d: %s" step msg)) fmt
  in
  for step = 1 to ops do
    if failovers then
      hidden :=
        (match !hidden with
        | None when Repdir_util.Rng.int schedule 4 = 0 -> Some (Repdir_util.Rng.int schedule 3)
        | Some _ when Repdir_util.Rng.int schedule 4 = 0 -> None
        | h -> h);
    let c = if clients = 1 then 0 else Repdir_util.Rng.int rng clients in
    let sa = suites_a.(c) and sb = suites_b.(c) in
    (match Repdir_util.Rng.int rng 6 with
    | 0 ->
        let k = Repdir_util.Rng.pick rng universe in
        let v = Printf.sprintf "v%d" step in
        let r s = match Suite.insert s k v with Ok () -> true | Error `Already_present -> false in
        if r sa <> r sb then fail step "insert %s diverged" k
    | 1 ->
        let k = Repdir_util.Rng.pick rng universe in
        let v = Printf.sprintf "u%d" step in
        let r s = match Suite.update s k v with Ok () -> true | Error `Not_present -> false in
        if r sa <> r sb then fail step "update %s diverged" k
    | 2 ->
        let k = Repdir_util.Rng.pick rng universe in
        let r s = (Suite.delete s k).Suite.was_present in
        if r sa <> r sb then fail step "delete %s diverged" k
    | 3 ->
        let k = Repdir_util.Rng.pick rng universe in
        let r s = Option.map snd (Suite.lookup s k) in
        if r sa <> r sb then fail step "lookup %s diverged" k
    | 4 ->
        (* Explicit multi-op transaction: both worlds must commit the same
           per-op results atomically. *)
        let k1 = Repdir_util.Rng.pick rng universe in
        let k2 = Repdir_util.Rng.pick rng universe in
        let v = Printf.sprintf "t%d" step in
        let r s =
          Suite.with_txn s (fun txn ->
              let inserted =
                match Suite.insert ~txn s k1 v with Ok () -> true | Error _ -> false
              in
              let deleted = (Suite.delete ~txn s k2).Suite.was_present in
              (* perfbench's cross-shard upsert, then a delete, a
                 re-insert and a lookup of one key: each re-reads a key the
                 transaction already read or wrote. *)
              let upserted =
                match Suite.update ~txn s k2 v with
                | Ok () -> `Updated
                | Error `Not_present -> (
                    match Suite.insert ~txn s k2 v with
                    | Ok () -> `Inserted
                    | Error `Already_present -> `Refused)
              in
              let redeleted = (Suite.delete ~txn s k1).Suite.was_present in
              let reinserted = Suite.insert ~txn s k1 v = Ok () in
              let reread = Option.map snd (Suite.lookup ~txn s k1) in
              (inserted, deleted, upserted, redeleted, reinserted, reread))
        in
        if r sa <> r sb then fail step "transaction (%s, %s) diverged" k1 k2
    | _ ->
        (* Forced abort: both worlds must roll the transaction back. *)
        let k = Repdir_util.Rng.pick rng universe in
        let r s =
          try
            Suite.with_txn s (fun txn ->
                ignore (Suite.insert ~txn s k "doomed");
                raise Exit)
          with Exit -> ()
        in
        r sa;
        r sb);
    if clients > 1 then Array.iter Suite.flush_notices suites_b
  done;
  (* Drain the batched suites' deferred commit notices, then compare the
     complete directories and audit for leaked locks or in-doubt residue. *)
  Array.iter Suite.flush_notices suites_b;
  if Array.exists (fun s -> Suite.pending_notice_count s <> 0) suites_b then
    failwith "notices did not drain";
  if Suite.to_alist suites_a.(0) <> Suite.to_alist suites_b.(0) then
    failwith "final contents diverged";
  Array.iter
    (fun world ->
      Array.iter
        (fun rep ->
          (match Rep.check_invariants rep with Ok () -> () | Error e -> failwith e);
          if Rep.locks_held rep <> 0 then
            failwith (Printf.sprintf "%s leaked locks" (Rep.name rep));
          if Rep.in_doubt_count rep <> 0 then
            failwith (Printf.sprintf "%s left transactions in doubt" (Rep.name rep)))
        world.reps)
    [| world_a; world_b |];
  (* Batching must actually reduce wire traffic, not just preserve meaning.
     The precise >= 2x bound per insert and per delete is test_harness's
     "batching halves 2pc messages"; here any regression to parity fails. *)
  if world_b.transport.Transport.msg_count >= world_a.transport.Transport.msg_count then
    failwith
      (Printf.sprintf "batching sent %d messages vs %d unbatched"
         world_b.transport.Transport.msg_count world_a.transport.Transport.msg_count)

let batching_differential =
  QCheck.Test.make ~name:"batched suite == unbatched suite (one client)" ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      run_batching_differential ~seed ~ops:60 ();
      true)

let batching_differential_two_clients =
  QCheck.Test.make ~name:"batched suite == unbatched suite (two clients)" ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      run_batching_differential ~clients:2 ~seed ~ops:60 ();
      true)

let batching_differential_failovers =
  QCheck.Test.make ~name:"batched suite == unbatched suite (with failovers)" ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      run_batching_differential ~failovers:true ~seed ~ops:60 ();
      true)

let () =
  Alcotest.run "suite"
    [
      ( "paper-scenarios",
        [
          Alcotest.test_case "figure 4: insert b via {A,B}" `Quick test_figure4_insert_b;
          Alcotest.test_case "figure 5: delete b via {B,C}, {A,C} resolves" `Quick
            test_figure5_delete_b_and_resolution;
          Alcotest.test_case "figures 10-11: ghost walk" `Quick test_figure10_11_ghost_walk;
        ] );
      ( "api",
        [
          Alcotest.test_case "duplicate insert rejected" `Quick test_insert_duplicate_rejected;
          Alcotest.test_case "update of missing rejected" `Quick test_update_missing_rejected;
          Alcotest.test_case "update bumps version" `Quick test_update_bumps_version;
          Alcotest.test_case "delete of absent key" `Quick test_delete_absent_key;
          Alcotest.test_case "reinsert after delete" `Quick test_reinsert_after_delete;
          Alcotest.test_case "delete re-run keeps its answer" `Quick
            test_delete_rerun_keeps_answer;
          Alcotest.test_case "a re-run reads afresh" `Quick test_rerun_reads_afresh;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "multi-op commit" `Quick test_multi_op_transaction_commit;
          Alcotest.test_case "multi-op abort rolls back" `Quick test_multi_op_transaction_abort;
        ] );
      ( "availability",
        [
          Alcotest.test_case "survives one crash (3-2-2)" `Quick test_survives_one_crash;
          Alcotest.test_case "unavailable below quorum" `Quick
            test_unavailable_when_quorum_impossible;
          Alcotest.test_case "stale recovered rep is safe" `Quick
            test_recovered_rep_serves_stale_data_safely;
        ] );
      ( "model",
        [
          QCheck_alcotest.to_alcotest suite_matches_model;
          QCheck_alcotest.to_alcotest suite_matches_model_configs;
          QCheck_alcotest.to_alcotest suite_matches_model_batched;
          Alcotest.test_case "soak 800 ops" `Slow test_long_soak;
        ] );
      ( "batching-differential",
        [
          QCheck_alcotest.to_alcotest batching_differential;
          QCheck_alcotest.to_alcotest batching_differential_two_clients;
          QCheck_alcotest.to_alcotest batching_differential_failovers;
        ] );
    ]
