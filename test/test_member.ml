(* Tests for dynamic membership: record serialization, joint-consensus
   transition validation, representative epoch fencing (WAL durability and
   checkpoint restore), suite-level joint quorum collection with
   epoch-naming failures, and the end-to-end reconfiguration campaign. *)

open Repdir_key
open Repdir_rep
open Repdir_quorum
open Repdir_core
open Repdir_harness
module Member = Repdir_member.Member

let cfg votes r w = Config.make_exn ~votes ~read_quorum:r ~write_quorum:w

(* The campaign's starting point: the paper's 3-2-2 suite plus a zero-vote
   slot waiting to join. *)
let seed_record () =
  Member.initial
    ~config:(cfg [| 1; 1; 1; 0 |] 2 2)
    ~roster:[| Member.Active; Member.Active; Member.Active; Member.Joining |]

let record_t = Alcotest.testable Member.pp Member.equal

(* --- the distinguished key ---------------------------------------------------- *)

let test_key_sorts_first () =
  (* Workload generators draw zero-padded integer keys and random
     lowercase-alphabetic keys; the membership entry must sort before both
     so range scans over workload data never straddle it by accident. *)
  Alcotest.(check bool) "before integer keys" true (Key.compare Member.key (Key.of_int 0) < 0);
  Alcotest.(check bool) "before alphabetic keys" true (Key.compare Member.key "a" < 0)

(* --- serialization ------------------------------------------------------------- *)

let gen_record =
  let open QCheck.Gen in
  let gen_view ~epoch n =
    list_repeat n (int_range 0 3) >>= fun raw_votes ->
    list_repeat n (int_range 0 2) >>= fun raw_status ->
    let status = function 0 -> Member.Active | 1 -> Member.Joining | _ -> Member.Retired in
    let roster = Array.of_list (List.map status raw_status) in
    (* Slot 0 stays active so the view has votes at all; Joining/Retired
       slots must hold zero, everyone else at least one. *)
    roster.(0) <- Member.Active;
    let votes =
      Array.of_list
        (List.mapi
           (fun i v -> match roster.(i) with Member.Active -> max 1 v | _ -> 0)
           raw_votes)
    in
    let total = Array.fold_left ( + ) 0 votes in
    let w = (total / 2) + 1 in
    let r = total + 1 - w in
    match Member.make_view ~epoch ~config:(cfg votes r w) ~roster with
    | Ok v -> return v
    | Error e -> failwith e
  in
  int_range 3 5 >>= fun n ->
  small_nat >>= fun epoch ->
  bool >>= fun joint ->
  if joint then
    gen_view ~epoch n >>= fun old_view ->
    gen_view ~epoch:(epoch + 1) n >>= fun new_view ->
    return (Member.Joint (old_view, new_view))
  else gen_view ~epoch n >>= fun v -> return (Member.Stable v)

let roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:200
    (QCheck.make gen_record)
    (fun r ->
      (match Member.decode (Member.encode r) with
      | Ok r' -> Member.equal r r'
      | Error _ -> false)
      && Member.encode r = Member.encode r)

let test_decode_rejects_garbage () =
  (match Member.decode "" with Ok _ -> Alcotest.fail "empty accepted" | Error _ -> ());
  (match Member.decode "not a record" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  try
    ignore (Member.decode_exn "x");
    Alcotest.fail "decode_exn did not raise"
  with Invalid_argument _ -> ()

(* --- transitions ---------------------------------------------------------------- *)

let test_join_then_finish () =
  let r0 = seed_record () in
  Alcotest.(check int) "initial epoch" 0 (Member.epoch_of r0);
  let joint =
    match Member.join r0 ~slot:3 ~votes:1 ~read_quorum:2 ~write_quorum:3 with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "joint epoch" 1 (Member.epoch_of joint);
  (match joint with
  | Member.Joint (old_view, new_view) ->
      Alcotest.(check int) "old epoch kept" 0 old_view.Member.epoch;
      Alcotest.(check int) "joiner votes" 1 (Config.votes_of new_view.Member.config 3);
      Alcotest.(check bool) "joiner active" true (new_view.Member.roster.(3) = Member.Active);
      Alcotest.(check int) "two governing views" 2 (List.length (Member.views joint));
      (* An operation under the joint record needs a quorum in both views. *)
      let targets = Member.targets joint ~read:false in
      Alcotest.(check (list int)) "write quorums, oldest first" [ 2; 3 ]
        (List.map snd targets)
  | Member.Stable _ -> Alcotest.fail "join must produce a joint record");
  let stable =
    match Member.finish_change joint with Ok r -> r | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "stable epoch" 2 (Member.epoch_of stable);
  match stable with
  | Member.Stable v ->
      Alcotest.(check int) "one governing view" 1 (List.length (Member.views stable));
      Alcotest.(check int) "four voters" 4 (Config.total_votes v.Member.config)
  | Member.Joint _ -> Alcotest.fail "finish must produce a stable record"

let test_retire () =
  let r0 = seed_record () in
  let r2 =
    match Member.join r0 ~slot:3 ~votes:1 ~read_quorum:2 ~write_quorum:3 with
    | Ok j -> ( match Member.finish_change j with Ok s -> s | Error e -> Alcotest.fail e)
    | Error e -> Alcotest.fail e
  in
  let joint =
    match Member.retire r2 ~slot:0 ~read_quorum:2 ~write_quorum:2 with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  (match joint with
  | Member.Joint (_, new_view) ->
      Alcotest.(check int) "retiree drained" 0 (Config.votes_of new_view.Member.config 0);
      Alcotest.(check bool) "retiree fenced" true (new_view.Member.roster.(0) = Member.Retired)
  | Member.Stable _ -> Alcotest.fail "retire must produce a joint record");
  let stable =
    match Member.finish_change joint with Ok r -> r | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "final epoch" 4 (Member.epoch_of stable)

let test_transition_validation () =
  let r0 = seed_record () in
  let joint =
    match Member.join r0 ~slot:3 ~votes:1 ~read_quorum:2 ~write_quorum:3 with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  (* One change at a time: a joint record refuses another begin_change. *)
  (match Member.join joint ~slot:3 ~votes:2 ~read_quorum:2 ~write_quorum:4 with
  | Ok _ -> Alcotest.fail "begin_change on a joint record accepted"
  | Error _ -> ());
  (* finish_change needs a change in flight. *)
  (match Member.finish_change r0 with
  | Ok _ -> Alcotest.fail "finish_change on a stable record accepted"
  | Error _ -> ());
  (* Joining a slot that is not waiting, or with quorums violating the
     paper's intersection constraints, is rejected. *)
  (match Member.join r0 ~slot:0 ~votes:2 ~read_quorum:2 ~write_quorum:3 with
  | Ok _ -> Alcotest.fail "join of an active slot accepted"
  | Error _ -> ());
  (match Member.join r0 ~slot:3 ~votes:1 ~read_quorum:1 ~write_quorum:1 with
  | Ok _ -> Alcotest.fail "non-intersecting quorums accepted"
  | Error _ -> ());
  (* A roster/view mismatch is rejected at make_view. *)
  match
    Member.make_view ~epoch:1
      ~config:(cfg [| 1; 1; 1; 1 |] 2 3)
      ~roster:[| Member.Active; Member.Active; Member.Active; Member.Joining |]
  with
  | Ok _ -> Alcotest.fail "joining slot with votes accepted"
  | Error _ -> ()

(* --- representative fencing ------------------------------------------------------ *)

(* Both fences (membership record, shard map) share one mechanism; each
   test runs once per fence. The representative stores the record opaquely,
   so an encoded membership record serves for either. *)
let test_fencing_basics fence () =
  let r = Rep.create ~name:"r" () in
  let epoch () = fst (Rep.fence_view r fence) and kept () = snd (Rep.fence_view r fence) in
  Alcotest.(check int) "fresh epoch" 0 (epoch ());
  let record = Member.encode (seed_record ()) in
  Alcotest.(check bool) "install 1" true (Rep.install_epoch r fence ~epoch:1 ~record);
  Alcotest.(check int) "epoch 1" 1 (epoch ());
  Alcotest.(check string) "record kept" record (kept ());
  (* Monotone: an older installation acknowledges (the fence is already at
     least this new) but changes nothing. *)
  Alcotest.(check bool) "older acked" true (Rep.install_epoch r fence ~epoch:0 ~record:"old");
  Alcotest.(check int) "still 1" 1 (epoch ());
  Alcotest.(check string) "record unchanged" record (kept ());
  (* The fence accepts current and newer callers, rejects stale ones, and
     the rejection carries the newer record for adoption. The fence not
     under test is left at epoch 0 or unstamped, which its unset slot
     accepts. *)
  let send epoch =
    let env = { Rep.notices = []; deadline = None; shard_epoch = None; member_epoch = 0 } in
    let env =
      match fence with
      | Rep.Membership -> { env with member_epoch = epoch }
      | Rep.Shard_map -> { env with shard_epoch = Some epoch }
    in
    ignore (Rep.execute r env ~txn:1 [] : Rep.batch_result list)
  in
  send 1;
  send 7;
  match send 0 with
  | () -> Alcotest.fail "stale epoch accepted"
  | exception Rep.Stale_epoch { fence = carried_fence; epoch; record = carried; _ } ->
      Alcotest.(check bool) "names the fence" true (carried_fence = fence);
      Alcotest.(check int) "carries newer epoch" 1 epoch;
      Alcotest.check record_t "carries the record" (seed_record ())
        (Member.decode_exn carried)

let test_fencing_survives_crash_and_checkpoint fence () =
  let r = Rep.create ~name:"r" () in
  let epoch () = fst (Rep.fence_view r fence) and kept () = snd (Rep.fence_view r fence) in
  let record = Member.encode (seed_record ()) in
  ignore (Rep.install_epoch r fence ~epoch:2 ~record : bool);
  Rep.crash r;
  Rep.recover r;
  Alcotest.(check int) "epoch after recovery" 2 (epoch ());
  Alcotest.(check string) "record after recovery" record (kept ());
  (* A checkpoint truncates the log; the epoch must ride the checkpoint. *)
  Rep.checkpoint r;
  Rep.crash r;
  Rep.recover r;
  Alcotest.(check int) "epoch after checkpointed recovery" 2 (epoch ());
  Alcotest.(check string) "record after checkpointed recovery" record (kept ())

(* --- suite-level joint collection ------------------------------------------------ *)

let joint_world () =
  let reps = Array.init 4 (fun i -> Rep.create ~name:(Printf.sprintf "rep%d" i) ()) in
  let record =
    match Member.join (seed_record ()) ~slot:3 ~votes:1 ~read_quorum:2 ~write_quorum:3 with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let txns = Repdir_txn.Txn.Manager.create () in
  let suite =
    Suite.create
      ~picker:(Picker.Fixed [| 0; 1; 2; 3 |])
      ~config:(Member.current record).Member.config
      ~transport:(Transport.local reps) ~txns ()
  in
  Suite.set_membership suite record;
  (reps, suite)

let test_joint_write_covers_both_views () =
  let reps, suite = joint_world () in
  (match Suite.insert suite "k" "v" with
  | Ok () -> ()
  | Error `Already_present -> Alcotest.fail "k should be insertable");
  (* With the fixed preference order, the old view's write quorum is
     {0, 1} (2 of 3 votes) and the new view's is {0, 1, 2} (3 of 4): the
     entry must land on the union and may skip representative 3. *)
  let has i = List.exists (fun (k, _, _) -> k = "k") (Rep.entries reps.(i)) in
  Alcotest.(check bool) "rep0 wrote" true (has 0);
  Alcotest.(check bool) "rep1 wrote" true (has 1);
  Alcotest.(check bool) "rep2 wrote" true (has 2);
  Alcotest.(check bool) "rep3 skipped" false (has 3)

let test_unavailable_names_the_failing_epoch () =
  let reps, suite = joint_world () in
  (* Killing representatives 2 and 3 leaves the old view's write quorum
     satisfiable ({0, 1}) but not the new view's (3 votes from {0, 1}):
     the failure must name the view that could not be collected. *)
  Rep.crash reps.(2);
  Rep.crash reps.(3);
  match Suite.insert suite "k" "v" with
  | Ok () | Error `Already_present -> Alcotest.fail "no quorum yet the write went through"
  | exception Suite.Unavailable msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) ("names epoch 1: " ^ msg) true (contains msg "epoch 1")

let test_static_suite_is_fenced () =
  (* A suite built from a configuration alone runs that configuration as its
     epoch-0 record. Once the representatives have installed a newer epoch
     that retired slot 0, the static suite's first call is fenced: it must
     adopt the newer record and write under its quorums, never to the
     retiree, even though its picker puts slot 0 first. *)
  let config = Config.simple ~n:3 ~r:2 ~w:2 in
  let reps = Array.init 3 (fun i -> Rep.create ~name:(Printf.sprintf "rep%d" i) ()) in
  let retired =
    let r0 = Member.initial ~config ~roster:(Array.make 3 Member.Active) in
    match Member.retire r0 ~slot:0 ~read_quorum:1 ~write_quorum:2 with
    | Ok joint -> ( match Member.finish_change joint with Ok r -> r | Error e -> Alcotest.fail e)
    | Error e -> Alcotest.fail e
  in
  Array.iter
    (fun rep ->
      Alcotest.(check bool) (Rep.name rep ^ " installed") true
        (Rep.install_epoch rep Rep.Membership ~epoch:(Member.epoch_of retired)
           ~record:(Member.encode retired)))
    reps;
  let suite =
    Suite.create
      ~picker:(Picker.Fixed [| 0; 1; 2 |])
      ~config ~transport:(Transport.local reps) ~txns:(Repdir_txn.Txn.Manager.create ()) ()
  in
  (match Suite.insert suite "k" "v" with
  | Ok () -> ()
  | Error `Already_present -> Alcotest.fail "k should be insertable");
  let has i = List.exists (fun (k, _, _) -> k = "k") (Rep.entries reps.(i)) in
  Alcotest.(check bool) "retiree skipped" false (has 0);
  Alcotest.(check bool) "rep1 wrote" true (has 1);
  Alcotest.(check bool) "rep2 wrote" true (has 2)

(* --- the end-to-end campaign ------------------------------------------------------ *)

(* The catalogue's reconfig plan as campaign seed 1983 builds it. *)
let reconfig_plan ~duration =
  let e = Nemesis.find "reconfig" in
  Nemesis.plan_of { e.defaults with duration } e

(* The fault-free variant of the acceptance run: a live join to four
   representatives and a retire back to three under client traffic with the
   auditor on. The faulted variant is exercised by `repdir campaign
   reconfig` in CI (it takes minutes of virtual time). *)
let test_reconfig_fault_free () =
  let plan = reconfig_plan ~duration:1500.0 in
  let outcome = Nemesis.run_plan ~key_space:24 ~clients:2 { plan with steps = [] } in
  let report = Option.get outcome.Nemesis.change in
  let join, retire =
    match report.Nemesis.progress with
    | [ join; retire ] -> (join, retire)
    | _ -> Alcotest.fail "expected a join and a retire"
  in
  Alcotest.(check bool) "join completed" true (join.Nemesis.completed_at <> None);
  Alcotest.(check bool) "retire completed" true (retire.Nemesis.completed_at <> None);
  Alcotest.(check bool) "digest gate held" true join.Nemesis.gate_ok;
  Alcotest.(check int) "final epoch" 4 report.Nemesis.final_epoch;
  Alcotest.(check int) "no violations" 0 (Nemesis.total_violations outcome);
  Alcotest.(check int) "no orphan locks" 0 outcome.Nemesis.orphan_locks;
  Alcotest.(check int) "no open in-doubt" 0 outcome.Nemesis.indoubt_open

(* What a join costs bystander traffic, on the same fault-free plan with the
   join moved from t=80 to t=400 to widen the steady-state window: clients
   complete at least half as many ops per unit of virtual time while the
   join is in flight as before it began (0.69 here). *)
let test_join_keeps_half_of_steady_throughput () =
  let plan = reconfig_plan ~duration:1500.0 in
  let changes = List.mapi (fun i (d, c) -> ((if i = 0 then 400.0 else d), c)) plan.changes in
  let outcome =
    Nemesis.run_plan ~key_space:24 ~clients:2 { plan with steps = []; changes }
  in
  let r = Option.get outcome.Nemesis.change in
  Alcotest.(check bool) "join completed" true
    ((List.hd r.Nemesis.progress).Nemesis.completed_at <> None);
  let rate ops span = float_of_int ops /. span in
  let ratio = rate r.Nemesis.during_ops r.during_span /. rate r.steady_ops r.steady_span in
  if not (ratio >= 0.5) then
    Alcotest.failf "during-join throughput %.2f of steady < 0.5 (%d ops/%.0fu vs %d ops/%.0fu)"
      ratio r.during_ops r.during_span r.steady_ops r.steady_span

(* A transition that cannot pass its gate must be safe indefinitely: the
   joiner is crashed before the join starts and stays down past the admin's
   deadline, so the converge gate never passes. The record stays joint (epoch
   1: the join began and never finished; the retire cannot begin on a joint
   record), joint quorums keep governing, and the quiesce audit — run under
   the old view's quorums — must still be clean. *)
let test_reconfig_stuck_joiner_is_safe () =
  let plan = reconfig_plan ~duration:600.0 in
  let steps = [ { Nemesis.at = 10.0; action = Nemesis.Crash 3 } ] in
  let outcome = Nemesis.run_plan ~key_space:24 ~clients:2 { plan with steps } in
  let report = Option.get outcome.Nemesis.change in
  List.iter
    (fun p -> Alcotest.(check bool) "no change completed" true (p.Nemesis.completed_at = None))
    report.Nemesis.progress;
  Alcotest.(check bool) "join gate failed" false (List.hd report.Nemesis.progress).Nemesis.gate_ok;
  Alcotest.(check bool) "record still joint" true report.Nemesis.in_flight;
  Alcotest.(check int) "joint epoch" 1 report.Nemesis.final_epoch;
  Alcotest.(check bool) "epoch agreed" true report.Nemesis.epoch_agreed;
  Alcotest.(check bool) "workload ran" true (outcome.Nemesis.succeeded > 0);
  Alcotest.(check int) "no violations" 0 (Nemesis.total_violations outcome);
  Alcotest.(check int) "no orphan locks" 0 outcome.Nemesis.orphan_locks;
  Alcotest.(check int) "no open in-doubt" 0 outcome.Nemesis.indoubt_open

let () =
  Alcotest.run "member"
    [
      ( "record",
        [
          Alcotest.test_case "key sorts first" `Quick test_key_sorts_first;
          QCheck_alcotest.to_alcotest roundtrip;
          Alcotest.test_case "decode rejects garbage" `Quick test_decode_rejects_garbage;
        ] );
      ( "transitions",
        [
          Alcotest.test_case "join then finish" `Quick test_join_then_finish;
          Alcotest.test_case "retire" `Quick test_retire;
          Alcotest.test_case "validation" `Quick test_transition_validation;
        ] );
      ( "fencing",
        List.concat_map
          (fun (fence, suffix) ->
            [
              Alcotest.test_case ("basics" ^ suffix) `Quick (test_fencing_basics fence);
              Alcotest.test_case ("survives crash and checkpoint" ^ suffix) `Quick
                (test_fencing_survives_crash_and_checkpoint fence);
            ])
          [ (Rep.Membership, ""); (Rep.Shard_map, ", shard map") ] );
      ( "suite",
        [
          Alcotest.test_case "joint write covers both views" `Quick
            test_joint_write_covers_both_views;
          Alcotest.test_case "unavailable names the epoch" `Quick
            test_unavailable_names_the_failing_epoch;
          Alcotest.test_case "static suite is fenced" `Quick test_static_suite_is_fenced;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "fault-free join and retire" `Slow test_reconfig_fault_free;
          Alcotest.test_case "join keeps half of steady throughput" `Slow
            test_join_keeps_half_of_steady_throughput;
          Alcotest.test_case "stuck joiner stays joint and safe" `Slow
            test_reconfig_stuck_joiner_is_safe;
        ] );
    ]
