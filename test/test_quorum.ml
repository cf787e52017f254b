(* Tests for configurations, quorum pickers and availability analysis. *)

open Repdir_util
open Repdir_quorum

(* --- Config ---------------------------------------------------------------------- *)

let test_config_simple_ok () =
  let c = Config.simple ~n:3 ~r:2 ~w:2 in
  Alcotest.(check int) "reps" 3 (Config.n_reps c);
  Alcotest.(check int) "total votes" 3 (Config.total_votes c);
  Alcotest.(check string) "paper notation" "3-2-2" (Config.to_string c)

let expect_error ~msg votes r w =
  match Config.make ~votes ~read_quorum:r ~write_quorum:w with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail msg

let test_config_read_write_intersection () =
  (* R + W must exceed total votes. *)
  expect_error ~msg:"R+W = V accepted" [| 1; 1; 1 |] 1 2

let test_config_write_write_intersection () =
  (* 2W must exceed total votes (else two disjoint write quorums exist). *)
  expect_error ~msg:"2W = V accepted" [| 1; 1; 1; 1 |] 3 2

let test_config_rejects_nonsense () =
  expect_error ~msg:"no reps" [||] 1 1;
  expect_error ~msg:"negative votes" [| 1; -1; 3 |] 2 2;
  expect_error ~msg:"zero quorum" [| 1; 1; 1 |] 0 3;
  expect_error ~msg:"no votes" [| 0; 0 |] 1 1;
  expect_error ~msg:"quorum above total" [| 1; 1; 1 |] 4 3

let test_config_weighted_votes () =
  (* Gifford's example style: a strong representative with extra votes. *)
  match Config.make ~votes:[| 2; 1; 1 |] ~read_quorum:2 ~write_quorum:3 with
  | Ok c ->
      Alcotest.(check int) "total" 4 (Config.total_votes c);
      Alcotest.(check int) "votes of 0" 2 (Config.votes_of c 0)
  | Error e -> Alcotest.fail e

let test_config_zero_vote_rep_allowed () =
  match Config.make ~votes:[| 1; 1; 1; 0 |] ~read_quorum:2 ~write_quorum:2 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

(* --- Picker ----------------------------------------------------------------------- *)

let all_up _ = true

let votes_total config members =
  Array.fold_left (fun acc i -> acc + Config.votes_of config i) 0 members

let test_picker_random_reaches_quorum () =
  let rng = Rng.create 5L in
  let config = Config.simple ~n:5 ~r:3 ~w:3 in
  for _ = 1 to 200 do
    match Picker.read_quorum Picker.Random rng config ~available:all_up with
    | Some q ->
        Alcotest.(check bool) "enough votes" true (votes_total config q >= 3);
        (* Minimal: dropping the last member falls below the quorum. *)
        Alcotest.(check int) "minimal" 3 (Array.length q)
    | None -> Alcotest.fail "quorum must exist"
  done

let test_picker_random_is_uniform () =
  let rng = Rng.create 6L in
  let config = Config.simple ~n:4 ~r:2 ~w:3 in
  let counts = Array.make 4 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    match Picker.read_quorum Picker.Random rng config ~available:all_up with
    | Some q -> Array.iter (fun i -> counts.(i) <- counts.(i) + 1) q
    | None -> Alcotest.fail "quorum must exist"
  done;
  (* Each representative appears in half the 2-member quorums. *)
  Array.iteri
    (fun i c ->
      let expected = trials / 2 in
      if abs (c - expected) > expected / 10 then
        Alcotest.failf "rep %d badly skewed: %d vs %d" i c expected)
    counts

let test_picker_respects_availability () =
  let rng = Rng.create 7L in
  let config = Config.simple ~n:3 ~r:2 ~w:2 in
  let up i = i <> 1 in
  for _ = 1 to 50 do
    match Picker.read_quorum Picker.Random rng config ~available:up with
    | Some q -> Array.iter (fun i -> Alcotest.(check bool) "only up members" true (up i)) q
    | None -> Alcotest.fail "quorum exists without rep 1"
  done

let test_picker_returns_none_when_unattainable () =
  let rng = Rng.create 8L in
  let config = Config.simple ~n:3 ~r:2 ~w:2 in
  let up i = i = 0 in
  Alcotest.(check bool) "no quorum" true
    (Picker.read_quorum Picker.Random rng config ~available:up = None)

let test_picker_fixed_prefers_order () =
  let rng = Rng.create 9L in
  let config = Config.simple ~n:4 ~r:2 ~w:3 in
  (match Picker.read_quorum (Picker.Fixed [| 2; 0; 1; 3 |]) rng config ~available:all_up with
  | Some q -> Alcotest.(check (array int)) "prefix of preference order" [| 2; 0 |] q
  | None -> Alcotest.fail "quorum must exist");
  (* With rep 2 down, the next in order substitute. *)
  match
    Picker.read_quorum (Picker.Fixed [| 2; 0; 1; 3 |]) rng config ~available:(fun i -> i <> 2)
  with
  | Some q -> Alcotest.(check (array int)) "skips the dead one" [| 0; 1 |] q
  | None -> Alcotest.fail "quorum must exist"

let test_picker_skips_zero_vote_reps () =
  let rng = Rng.create 10L in
  let config =
    Config.make_exn ~votes:[| 1; 0; 1; 1 |] ~read_quorum:2 ~write_quorum:2
  in
  for _ = 1 to 100 do
    match Picker.write_quorum Picker.Random rng config ~available:all_up with
    | Some q ->
        Alcotest.(check bool) "weak rep never in quorum" false (Array.mem 1 q)
    | None -> Alcotest.fail "quorum must exist"
  done

let test_picker_weighted_can_use_fewer_members () =
  let rng = Rng.create 11L in
  let config = Config.make_exn ~votes:[| 3; 1; 1 |] ~read_quorum:3 ~write_quorum:3 in
  match Picker.read_quorum (Picker.Fixed [| 0; 1; 2 |]) rng config ~available:all_up with
  | Some q -> Alcotest.(check (array int)) "one strong member suffices" [| 0 |] q
  | None -> Alcotest.fail "quorum must exist"

let test_picker_locality_reads_local () =
  let rng = Rng.create 12L in
  let config = Config.simple ~n:4 ~r:2 ~w:3 in
  let strategy = Picker.Locality { local = [| 0; 1 |]; remote = [| 2; 3 |] } in
  for _ = 1 to 100 do
    match Picker.read_quorum strategy rng config ~available:all_up with
    | Some q ->
        Array.sort compare q;
        Alcotest.(check (array int)) "reads fully local" [| 0; 1 |] q
    | None -> Alcotest.fail "quorum must exist"
  done

let test_picker_locality_writes_spread_remote () =
  let rng = Rng.create 13L in
  let config = Config.simple ~n:4 ~r:2 ~w:3 in
  let strategy = Picker.Locality { local = [| 0; 1 |]; remote = [| 2; 3 |] } in
  let remote_counts = Array.make 4 0 in
  let trials = 10_000 in
  for _ = 1 to trials do
    match Picker.write_quorum strategy rng config ~available:all_up with
    | Some q ->
        Alcotest.(check bool) "contains both local" true (Array.mem 0 q && Array.mem 1 q);
        Alcotest.(check int) "exactly W members" 3 (Array.length q);
        Array.iter (fun i -> if i >= 2 then remote_counts.(i) <- remote_counts.(i) + 1) q
    | None -> Alcotest.fail "quorum must exist"
  done;
  let diff = abs (remote_counts.(2) - remote_counts.(3)) in
  Alcotest.(check bool) "remote writes evenly spread" true (diff < trials / 10)

let test_picker_locality_fails_over_to_remote () =
  let rng = Rng.create 14L in
  let config = Config.simple ~n:4 ~r:2 ~w:3 in
  let strategy = Picker.Locality { local = [| 0; 1 |]; remote = [| 2; 3 |] } in
  match Picker.read_quorum strategy rng config ~available:(fun i -> i <> 0) with
  | Some q ->
      Alcotest.(check bool) "local survivor included" true (Array.mem 1 q);
      Alcotest.(check bool) "remote fills in" true (Array.mem 2 q || Array.mem 3 q)
  | None -> Alcotest.fail "quorum must exist"

(* A key's home quorum under [Random]: the first members of its rendezvous
   order that reach [quorum]. *)
let home ?(available = all_up) rng config quorum key =
  match
    Picker.collect_joint ~key Picker.Random rng [ (config, quorum) ] ~available
  with
  | Ok q -> q
  | Error _ -> Alcotest.fail "quorum must exist"

let test_picker_home_quorums_spread () =
  (* Over many keys every slot is home to its fair share of them, as under
     uniform draws. *)
  let keys = 30_000 in
  List.iter
    (fun (n, q) ->
      let config = Config.simple ~n ~r:q ~w:q in
      let rng = Rng.create 15L in
      let counts = Array.make n 0 in
      for i = 0 to keys - 1 do
        Array.iter
          (fun j -> counts.(j) <- counts.(j) + 1)
          (home rng config q (Repdir_key.Key.of_int i))
      done;
      Array.iteri
        (fun j c ->
          let share = float_of_int c /. float_of_int keys in
          if Float.abs (share -. (float_of_int q /. float_of_int n)) > 0.01 then
            Alcotest.failf "%s: slot %d is home to %.4f of keys" (Config.to_string config) j share)
        counts)
    [ (3, 2); (5, 3) ]

let test_picker_home_quorum_draws_nothing () =
  (* Two clients with different seeds pick the same set for a key, and
     neither draws from its generator. *)
  let config = Config.simple ~n:5 ~r:3 ~w:3 in
  let a = Rng.create 16L and b = Rng.create 17L in
  for i = 0 to 99 do
    let key = Repdir_key.Key.of_int i in
    Alcotest.(check (array int)) "same home quorum" (home a config 3 key) (home b config 3 key)
  done;
  Alcotest.(check int) "no draw" (Rng.int (Rng.create 16L) 1_000_000) (Rng.int a 1_000_000)

let test_picker_home_member_down () =
  (* A home member that is not available is passed over: the key's next
     slot in its rendezvous order stands in. *)
  let rng = Rng.create 18L in
  List.iter
    (fun (n, q) ->
      let config = Config.simple ~n ~r:q ~w:q in
      for i = 0 to 19 do
        let key = Repdir_key.Key.of_int i in
        let order = home rng config n key in
        Alcotest.(check (array int)) "home is the order's prefix" (Array.sub order 0 q)
          (home rng config q key);
        Alcotest.(check (array int)) "the next slot stands in" (Array.sub order 1 q)
          (home ~available:(fun j -> j <> order.(0)) rng config q key)
      done)
    [ (3, 2); (5, 3) ]

(* --- Availability ------------------------------------------------------------------- *)

let check_close = Alcotest.(check (float 1e-9))

let test_availability_certain_cases () =
  check_close "always up" 1.0
    (Availability.quorum_probability ~votes:[| 1; 1; 1 |] ~quorum:2 ~p_up:1.0);
  check_close "always down" 0.0
    (Availability.quorum_probability ~votes:[| 1; 1; 1 |] ~quorum:2 ~p_up:0.0);
  check_close "unattainable quorum" 0.0
    (Availability.quorum_probability ~votes:[| 1; 1 |] ~quorum:3 ~p_up:1.0)

let test_availability_closed_form () =
  (* 2-of-3 with p: p^3 + 3 p^2 (1-p). *)
  let p = 0.9 in
  let expected = (p ** 3.0) +. (3.0 *. p *. p *. (1.0 -. p)) in
  check_close "2-of-3" expected
    (Availability.quorum_probability ~votes:[| 1; 1; 1 |] ~quorum:2 ~p_up:p);
  (* 1-of-2: 1 - (1-p)^2. *)
  let expected2 = 1.0 -. ((1.0 -. p) ** 2.0) in
  check_close "1-of-2" expected2
    (Availability.quorum_probability ~votes:[| 1; 1 |] ~quorum:1 ~p_up:p)

let test_availability_weighted () =
  (* Votes (2,1,1), quorum 2: available unless the strong rep is down and at
     most one weak one is up... compute directly: up-sets reaching 2 votes:
     strong up (p) -> always enough; strong down -> need both weak: (1-p) p^2. *)
  let p = 0.8 in
  let expected = p +. ((1.0 -. p) *. p *. p) in
  check_close "weighted" expected
    (Availability.quorum_probability ~votes:[| 2; 1; 1 |] ~quorum:2 ~p_up:p)

let test_availability_read_vs_write () =
  let c = Config.simple ~n:5 ~r:2 ~w:4 in
  let r = Availability.read_availability c ~p_up:0.9 in
  let w = Availability.write_availability c ~p_up:0.9 in
  Alcotest.(check bool) "small read quorum more available" true (r > w)

let test_availability_monotone_in_p () =
  let votes = [| 1; 2; 1; 1 |] in
  let prev = ref (-1.0) in
  List.iter
    (fun p ->
      let a = Availability.quorum_probability ~votes ~quorum:3 ~p_up:p in
      Alcotest.(check bool) "monotone" true (a >= !prev);
      prev := a)
    [ 0.0; 0.2; 0.4; 0.6; 0.8; 1.0 ]

let test_availability_rejects_bad_p () =
  try
    ignore (Availability.quorum_probability ~votes:[| 1 |] ~quorum:1 ~p_up:1.5);
    Alcotest.fail "p > 1 accepted"
  with Invalid_argument _ -> ()

let availability_matches_monte_carlo =
  QCheck.Test.make ~name:"exact availability matches Monte Carlo" ~count:25
    QCheck.(triple (int_bound 1_000) (int_bound 3) (int_bound 8))
    (fun (seed, extra_votes, tenths) ->
      let votes = [| 1 + extra_votes; 1; 1; 1 |] in
      let quorum = 2 + extra_votes in
      let p_up = 0.1 +. (0.1 *. float_of_int tenths) in
      let exact = Availability.quorum_probability ~votes ~quorum ~p_up in
      let rng = Rng.create (Int64.of_int (seed + 1)) in
      let mc = Availability.monte_carlo rng ~votes ~quorum ~p_up ~trials:60_000 in
      abs_float (exact -. mc) < 0.02)

(* The reconfiguration campaign's three membership views (PR 7): the seed
   3-2-2 with a zero-vote joining slot (epochs 0/1 old side), the promoted
   four-member view (epochs 1/2 new side), and the view after slot 0
   retires (epochs 3/4 new side). The exact dynamic program must agree
   with Monte Carlo on each, for reads and writes, under a generated
   per-representative up-probability; the Monte Carlo seed is a fixed
   function of the generated case so failures replay exactly. *)
let epoch_views_match_monte_carlo =
  let views =
    [
      ("e0 join old view", [| 1; 1; 1; 0 |], 2, 2);
      ("e1/e2 joined view", [| 1; 1; 1; 1 |], 2, 3);
      ("e3/e4 retired view", [| 0; 1; 1; 1 |], 2, 2);
    ]
  in
  QCheck.Test.make ~name:"campaign epoch views: exact vs Monte Carlo" ~count:20
    QCheck.(pair (int_bound 1_000) (int_bound 8))
    (fun (case, tenths) ->
      let p_up = 0.1 +. (0.1 *. float_of_int tenths) in
      List.for_all
        (fun (_, votes, r, w) ->
          let close quorum =
            let exact = Availability.quorum_probability ~votes ~quorum ~p_up in
            let rng = Rng.create (Int64.of_int ((case * 16) + quorum + 1)) in
            let mc = Availability.monte_carlo rng ~votes ~quorum ~p_up ~trials:60_000 in
            abs_float (exact -. mc) < 0.02
          in
          close r && close w)
        views)

let test_both_availability () =
  let c = Config.simple ~n:3 ~r:2 ~w:2 in
  check_close "both = max quorum" (Availability.write_availability c ~p_up:0.9)
    (Availability.both_availability c ~p_up:0.9)

let () =
  Alcotest.run "quorum"
    [
      ( "config",
        [
          Alcotest.test_case "simple ok" `Quick test_config_simple_ok;
          Alcotest.test_case "R+W > V enforced" `Quick test_config_read_write_intersection;
          Alcotest.test_case "2W > V enforced" `Quick test_config_write_write_intersection;
          Alcotest.test_case "rejects nonsense" `Quick test_config_rejects_nonsense;
          Alcotest.test_case "weighted votes" `Quick test_config_weighted_votes;
          Alcotest.test_case "zero-vote rep allowed" `Quick test_config_zero_vote_rep_allowed;
        ] );
      ( "picker",
        [
          Alcotest.test_case "random reaches quorum" `Quick test_picker_random_reaches_quorum;
          Alcotest.test_case "random is uniform" `Slow test_picker_random_is_uniform;
          Alcotest.test_case "respects availability" `Quick test_picker_respects_availability;
          Alcotest.test_case "none when unattainable" `Quick
            test_picker_returns_none_when_unattainable;
          Alcotest.test_case "fixed prefers order" `Quick test_picker_fixed_prefers_order;
          Alcotest.test_case "skips zero-vote reps" `Quick test_picker_skips_zero_vote_reps;
          Alcotest.test_case "weighted fewer members" `Quick
            test_picker_weighted_can_use_fewer_members;
          Alcotest.test_case "locality reads local" `Quick test_picker_locality_reads_local;
          Alcotest.test_case "locality writes spread" `Slow
            test_picker_locality_writes_spread_remote;
          Alcotest.test_case "locality failover" `Quick test_picker_locality_fails_over_to_remote;
          Alcotest.test_case "home quorums spread like draws" `Quick
            test_picker_home_quorums_spread;
          Alcotest.test_case "home quorum draws nothing" `Quick
            test_picker_home_quorum_draws_nothing;
          Alcotest.test_case "home member down: next slot stands in" `Quick
            test_picker_home_member_down;
        ] );
      ( "availability",
        [
          Alcotest.test_case "certain cases" `Quick test_availability_certain_cases;
          Alcotest.test_case "closed form" `Quick test_availability_closed_form;
          Alcotest.test_case "weighted" `Quick test_availability_weighted;
          Alcotest.test_case "read vs write" `Quick test_availability_read_vs_write;
          Alcotest.test_case "monotone in p" `Quick test_availability_monotone_in_p;
          Alcotest.test_case "rejects bad p" `Quick test_availability_rejects_bad_p;
          Alcotest.test_case "both availability" `Quick test_both_availability;
          QCheck_alcotest.to_alcotest availability_matches_monte_carlo;
          QCheck_alcotest.to_alcotest epoch_views_match_monte_carlo;
        ] );
    ]
