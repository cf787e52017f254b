(* Tests for the transaction facility: manager lifecycle, undo-log ordering,
   write-ahead-log replay (commit/abort filtering, checkpoints, truncation),
   and a property test that recovery rebuilds exactly the committed state. *)

open Repdir_key
open Repdir_txn
open Repdir_gapmap.Gapmap_intf
module G = Repdir_gapmap.Reference
module Apply = Undo.Apply (Repdir_gapmap.Reference)
module Replay = Wal.Replay (Repdir_gapmap.Reference)
module Rep = Repdir_rep.Rep

(* --- manager -------------------------------------------------------------------- *)

let test_manager_ids_increase () =
  let m = Txn.Manager.create () in
  let a = Txn.Manager.begin_txn m in
  let b = Txn.Manager.begin_txn m in
  Alcotest.(check bool) "strictly increasing" true (b > a)

let test_manager_lifecycle () =
  let m = Txn.Manager.create () in
  let a = Txn.Manager.begin_txn m in
  Alcotest.(check bool) "active" true (Txn.Manager.status m a = Txn.Active);
  Txn.Manager.commit m a;
  Alcotest.(check bool) "committed" true (Txn.Manager.status m a = Txn.Committed);
  let b = Txn.Manager.begin_txn m in
  Txn.Manager.abort m b;
  Alcotest.(check bool) "aborted" true (Txn.Manager.status m b = Txn.Aborted)

let test_manager_double_commit_rejected () =
  let m = Txn.Manager.create () in
  let a = Txn.Manager.begin_txn m in
  Txn.Manager.commit m a;
  (try
     Txn.Manager.commit m a;
     Alcotest.fail "double commit accepted"
   with Invalid_argument _ -> ());
  try
    Txn.Manager.abort m a;
    Alcotest.fail "abort after commit accepted"
  with Invalid_argument _ -> ()

let test_manager_unknown_txn () =
  let m = Txn.Manager.create () in
  try
    ignore (Txn.Manager.status m 999);
    Alcotest.fail "unknown txn accepted"
  with Invalid_argument _ -> ()

let test_manager_active_list () =
  let m = Txn.Manager.create () in
  let a = Txn.Manager.begin_txn m in
  let b = Txn.Manager.begin_txn m in
  let c = Txn.Manager.begin_txn m in
  Txn.Manager.commit m b;
  Alcotest.(check (list int)) "active set" [ a; c ] (Txn.Manager.active m)

(* --- verdicts ---------------------------------------------------------------------- *)

type verdict_op = Replace of int * [ `Committed | `Aborted ] | Find of int | Reset

let pp_verdict_op = function
  | Replace (id, `Committed) -> Printf.sprintf "replace %d C" id
  | Replace (id, `Aborted) -> Printf.sprintf "replace %d A" id
  | Find id -> Printf.sprintf "find %d" id
  | Reset -> "reset"

(* Ids from dense low runs, sparse far ids up to 2^20, and ids on either side
   of each doubling boundary of the table (256 ids at creation, then 512...). *)
let verdict_id =
  QCheck.Gen.(
    frequency
      [
        (4, int_bound 300);
        (2, int_bound (1 lsl 20));
        (3, map2 (fun k d -> max 0 ((256 lsl k) + d)) (int_bound 12) (int_range (-2) 1));
      ])

let verdict_ops =
  QCheck.Gen.(
    list_size (int_range 1 200)
      (frequency
         [
           (6, map2 (fun id c -> Replace (id, if c then `Committed else `Aborted)) verdict_id bool);
           (4, map (fun id -> Find id) verdict_id);
           (1, return Reset);
         ]))

(* Differential: the 2-bit table answers exactly as a hash table would. *)
let verdicts_match_hashtbl =
  QCheck.Test.make ~name:"verdicts agree with a Hashtbl model" ~count:300
    (QCheck.make ~print:(QCheck.Print.list pp_verdict_op) verdict_ops)
    (fun ops ->
      let v = Txn.Verdicts.create () and model = Hashtbl.create 16 in
      let agrees id = Txn.Verdicts.find_opt v id = Hashtbl.find_opt model id in
      List.for_all
        (fun op ->
          (match op with
          | Replace (id, d) ->
              Txn.Verdicts.replace v id d;
              Hashtbl.replace model id d
          | Find _ -> ()
          | Reset ->
              Txn.Verdicts.reset v;
              Hashtbl.reset model);
          (match op with Replace (id, _) | Find id -> agrees id | Reset -> true)
          && Hashtbl.fold (fun id _ ok -> ok && agrees id) model true)
        ops)

let test_verdicts_negative_id () =
  let v = Txn.Verdicts.create () in
  List.iter
    (fun (name, f) ->
      match f () with
      | () -> Alcotest.failf "%s accepted a negative id" name
      | exception Invalid_argument _ -> ())
    [
      ("find_opt", fun () -> ignore (Txn.Verdicts.find_opt v (-1)));
      ("replace", fun () -> Txn.Verdicts.replace v (-1) `Committed);
    ]

(* --- undo ----------------------------------------------------------------------- *)

let test_undo_rollback_insert () =
  let g = G.create () in
  let undo = Undo.create () in
  G.insert g "k" 1 "v";
  Undo.record undo ~txn:1 (Undo.Remove_entry "k");
  Apply.rollback undo ~txn:1 g;
  Alcotest.(check int) "entry removed" 0 (G.size g);
  Alcotest.(check (list int)) "log forgotten" [] (Undo.active_txns undo)

let test_undo_rollback_update () =
  let g = G.create () in
  let undo = Undo.create () in
  G.insert g "k" 1 "old";
  Undo.record undo ~txn:1 (Undo.Restore_entry ("k", 1, "old"));
  G.insert g "k" 2 "new";
  Apply.rollback undo ~txn:1 g;
  match G.lookup g (Bound.Key "k") with
  | Present { version; value } ->
      Alcotest.(check int) "old version" 1 version;
      Alcotest.(check string) "old value" "old" value
  | Absent _ -> Alcotest.fail "entry lost"

let test_undo_rollback_coalesce () =
  (* Forward: coalesce (a, d) at version 9, destroying entries b, c and the
     gap structure. The inverse must restore entries *and* per-gap
     versions exactly. *)
  let g = G.create () in
  let undo = Undo.create () in
  List.iter (fun (k, v) -> G.insert g k v k) [ ("a", 1); ("b", 2); ("c", 3); ("d", 4) ];
  ignore (G.coalesce g ~lo:(Bound.Key "b") ~hi:(Bound.Key "c") 5);
  (* state: a -0- b -5- c -0- d, entries b@2 c@3 *)
  let before_entries = G.entries g and before_gaps = G.gaps g in
  (* Record inverse of coalesce (a, d) -> v9 in application order:
     re-insert b and c, then restore gaps after a, b, c. *)
  let doomed = G.entries_between g ~lo:(Bound.Key "a") ~hi:(Bound.Key "d") in
  let gap_after_a = 0 in
  Undo.record undo ~txn:7 (Undo.Restore_gap (Bound.Key "a", gap_after_a));
  List.iter
    (fun (k, _, _, gap) -> Undo.record undo ~txn:7 (Undo.Restore_gap (Bound.Key k, gap)))
    doomed;
  List.iter
    (fun (k, v, value, _) -> Undo.record undo ~txn:7 (Undo.Restore_entry (k, v, value)))
    doomed;
  ignore (G.coalesce g ~lo:(Bound.Key "a") ~hi:(Bound.Key "d") 9);
  Alcotest.(check int) "coalesce removed" 2 (G.size g);
  Apply.rollback undo ~txn:7 g;
  Alcotest.(check bool) "entries restored" true (G.entries g = before_entries);
  Alcotest.(check bool) "gaps restored" true (G.gaps g = before_gaps)

let test_undo_reverse_order () =
  (* Two updates of the same key in one transaction: rollback must end at
     the original value, not the intermediate one. *)
  let g = G.create () in
  let undo = Undo.create () in
  G.insert g "k" 1 "v1";
  Undo.record undo ~txn:1 (Undo.Restore_entry ("k", 1, "v1"));
  G.insert g "k" 2 "v2";
  Undo.record undo ~txn:1 (Undo.Restore_entry ("k", 2, "v2"));
  G.insert g "k" 3 "v3";
  Apply.rollback undo ~txn:1 g;
  match G.lookup g (Bound.Key "k") with
  | Present { version; value } ->
      Alcotest.(check int) "original version" 1 version;
      Alcotest.(check string) "original value" "v1" value
  | Absent _ -> Alcotest.fail "entry lost"

let test_undo_txn_isolation () =
  let undo = Undo.create () in
  Undo.record undo ~txn:1 (Undo.Remove_entry "a");
  Undo.record undo ~txn:2 (Undo.Remove_entry "b");
  Alcotest.(check int) "txn1 has one action" 1 (List.length (Undo.actions undo ~txn:1));
  Undo.forget undo ~txn:1;
  Alcotest.(check int) "txn1 cleared" 0 (List.length (Undo.actions undo ~txn:1));
  Alcotest.(check int) "txn2 untouched" 1 (List.length (Undo.actions undo ~txn:2))

(* --- wal ------------------------------------------------------------------------- *)

let test_wal_replay_commits_only () =
  let w = Wal.create () in
  Wal.append w (Wal.Begin 1);
  Wal.append w (Wal.Insert (1, "a", 1, "va"));
  Wal.append w (Wal.Commit 1);
  Wal.append w (Wal.Begin 2);
  Wal.append w (Wal.Insert (2, "b", 1, "vb"));
  Wal.append w (Wal.Abort 2);
  Wal.append w (Wal.Begin 3);
  Wal.append w (Wal.Insert (3, "c", 1, "vc"));
  (* txn 3: crashed before commit — no outcome record *)
  let g = Replay.replay w in
  Alcotest.(check (list string)) "only committed entries" [ "a" ]
    (List.map (fun (k, _, _) -> k) (G.entries g))

let test_wal_replay_coalesce () =
  let w = Wal.create () in
  Wal.append w (Wal.Insert (1, "a", 1, "va"));
  Wal.append w (Wal.Insert (1, "b", 1, "vb"));
  Wal.append w (Wal.Insert (1, "c", 1, "vc"));
  Wal.append w (Wal.Commit 1);
  Wal.append w (Wal.Coalesce (2, Bound.Key "a", Bound.Key "c", 2));
  Wal.append w (Wal.Commit 2);
  let g = Replay.replay w in
  Alcotest.(check (list string)) "b coalesced away" [ "a"; "c" ]
    (List.map (fun (k, _, _) -> k) (G.entries g));
  match G.lookup g (Bound.Key "b") with
  | Absent { gap_version } -> Alcotest.(check int) "gap version" 2 gap_version
  | Present _ -> Alcotest.fail "b should be gone"

let test_wal_committed_flag () =
  let w = Wal.create () in
  Wal.append w (Wal.Insert (1, "a", 1, "v"));
  Alcotest.(check bool) "not committed yet" false (Wal.committed w 1);
  Wal.append w (Wal.Commit 1);
  Alcotest.(check bool) "committed" true (Wal.committed w 1)

let test_wal_checkpoint_roundtrip () =
  let g = G.create () in
  G.insert g "a" 3 "va";
  G.insert g "m" 7 "vm";
  ignore (G.coalesce g ~lo:(Bound.Key "a") ~hi:(Bound.Key "m") 5);
  let w = Wal.create () in
  Wal.checkpoint w
    ~entries:(G.entries_between g ~lo:Bound.Low ~hi:Bound.High)
    ~low_gap:(G.successor g Bound.Low).gap_version;
  let g' = Replay.replay w in
  Alcotest.(check bool) "entries equal" true (G.entries g = G.entries g');
  Alcotest.(check bool) "gaps equal" true (G.gaps g = G.gaps g')

let test_wal_truncate () =
  let w = Wal.create () in
  Wal.append w (Wal.Insert (1, "a", 1, "v"));
  Wal.append w (Wal.Commit 1);
  let cp = { Wal.entries = [ ("a", 1, "v", 0) ]; low_gap = 0; decided = []; lost = [] } in
  Wal.append w (Wal.Checkpoint cp);
  Wal.append w (Wal.Insert (2, "b", 1, "v"));
  Wal.append w (Wal.Commit 2);
  Alcotest.(check int) "before truncate" 5 (Wal.length w);
  Wal.truncate_to_checkpoint w;
  Alcotest.(check int) "after truncate" 3 (Wal.length w);
  let g = Replay.replay w in
  Alcotest.(check (list string)) "state preserved" [ "a"; "b" ]
    (List.map (fun (k, _, _) -> k) (G.entries g))

let test_wal_truncate_without_checkpoint () =
  let w = Wal.create () in
  Wal.append w (Wal.Insert (1, "a", 1, "v"));
  Wal.truncate_to_checkpoint w;
  Alcotest.(check int) "no-op" 1 (Wal.length w)

let test_wal_checkpoint_then_more_commits () =
  (* Records after the checkpoint apply on top of it; records before are
     superseded by it. *)
  let w = Wal.create () in
  Wal.append w (Wal.Insert (1, "before", 1, "v"));
  Wal.append w (Wal.Commit 1);
  let cp = { Wal.entries = [ ("cp", 5, "v", 2) ]; low_gap = 1; decided = []; lost = [] } in
  Wal.append w (Wal.Checkpoint cp);
  Wal.append w (Wal.Insert (2, "after", 3, "v"));
  Wal.append w (Wal.Commit 2);
  let g = Replay.replay w in
  Alcotest.(check (list string)) "checkpoint replaces prior state" [ "after"; "cp" ]
    (List.map (fun (k, _, _) -> k) (G.entries g))

(* --- storage faults --------------------------------------------------------------- *)

(* A committed-and-forced prefix, then the unforced records of an in-flight
   transaction — the shape of a representative's log at crash time. *)
let log_with_unforced_tail () =
  let w = Wal.create () in
  Wal.append w (Wal.Insert (1, "a", 1, "va"));
  Wal.append w (Wal.Commit 1);
  Wal.sync w;
  Wal.append w (Wal.Insert (2, "b", 2, "vb"));
  Wal.append w (Wal.Insert (2, "c", 3, "vc"));
  w

let replayed_keys w = List.map (fun (k, _, _) -> k) (G.entries (Replay.replay w))

let test_wal_torn_tail_recovers_committed_prefix () =
  let w = log_with_unforced_tail () in
  Wal.inject w Wal.Tear_tail;
  Alcotest.(check bool) "tail checksum fails" false (Wal.tail_valid w);
  let dropped = Wal.repair w in
  Alcotest.(check int) "torn record dropped" 1 dropped;
  Alcotest.(check bool) "tail valid after repair" true (Wal.tail_valid w);
  Alcotest.(check (list string)) "exactly the committed prefix" [ "a" ] (replayed_keys w)

let test_wal_corrupt_tail_recovers_committed_prefix () =
  let w = log_with_unforced_tail () in
  Wal.inject w Wal.Corrupt_tail;
  Alcotest.(check int) "corrupt record dropped" 1 (Wal.repair w);
  Alcotest.(check (list string)) "exactly the committed prefix" [ "a" ] (replayed_keys w)

let test_wal_torn_commit_record_means_uncommitted () =
  (* If the crash tears the (unforced) commit record itself, the transaction
     simply never committed: repair drops the frame and replay skips its
     operations. *)
  let w = log_with_unforced_tail () in
  Wal.append w (Wal.Commit 2);
  Wal.inject w Wal.Tear_tail;
  ignore (Wal.repair w);
  Alcotest.(check (list string)) "txn 2 not committed" [ "a" ] (replayed_keys w)

let test_wal_repair_drops_everything_after_first_bad_frame () =
  (* A sequential log is unreadable past a bad frame even if later bytes
     happen to checksum: repair keeps only the longest valid prefix. *)
  let w = log_with_unforced_tail () in
  Wal.inject w Wal.Corrupt_tail;
  Wal.append w (Wal.Insert (2, "d", 4, "vd"));
  Wal.append w (Wal.Commit 2);
  Alcotest.(check int) "corrupt frame and successors dropped" 3 (Wal.repair w);
  Alcotest.(check (list string)) "committed prefix only" [ "a" ] (replayed_keys w)

let test_wal_faults_clamp_to_unforced_suffix () =
  (* Forced frames are durable: a crash fault cannot reach below the sync
     watermark, so acknowledged commits survive any injection. *)
  let w = log_with_unforced_tail () in
  Wal.append w (Wal.Commit 2);
  Wal.sync w;
  Wal.inject w Wal.Tear_tail;
  Wal.inject w Wal.Corrupt_tail;
  Wal.inject w (Wal.Truncate_tail 100);
  Alcotest.(check bool) "nothing to repair" true (Wal.tail_valid w);
  Alcotest.(check int) "no records lost" 0 (Wal.repair w);
  Alcotest.(check (list string)) "both txns survive" [ "a"; "b"; "c" ] (replayed_keys w)

let test_wal_truncate_tail_drops_only_unforced () =
  let w = log_with_unforced_tail () in
  Wal.inject w (Wal.Truncate_tail 100);
  Alcotest.(check int) "unforced suffix gone" 2 (Wal.length w);
  Alcotest.(check (list string)) "committed prefix intact" [ "a" ] (replayed_keys w)

let test_rep_recovers_from_torn_tail () =
  (* End to end at the representative: commit one transaction, crash with a
     torn tail mid-way through the next, and recovery must land on exactly
     the committed state (and count the scrubbed record). *)
  let r = Rep.create ~name:"r" () in
  Rep.insert r ~txn:1 "a" 1 "va";
  Rep.commit r ~txn:1;
  Rep.insert r ~txn:2 "b" 2 "vb";
  Rep.inject_storage_fault r Wal.Tear_tail;
  Rep.crash r;
  Rep.recover r;
  Alcotest.(check int) "one record scrubbed" 1 (Rep.wal_records_repaired r);
  Alcotest.(check (list string)) "committed state only" [ "a" ]
    (List.map (fun (k, _, _) -> k) (Rep.entries r))

(* Property: interleave random committed/aborted transactions; replay equals
   the live map with aborted transactions rolled back. *)
let wal_replay_matches_live =
  QCheck.Test.make ~name:"wal replay equals committed live state" ~count:80
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Repdir_util.Rng.create (Int64.of_int seed) in
      let live = G.create () in
      let undo = Undo.create () in
      let w = Wal.create () in
      let next_version = ref 1 in
      let keys = Array.init 12 (fun i -> Key.of_int i) in
      for txn = 1 to 20 do
        Wal.append w (Wal.Begin txn);
        let n_ops = 1 + Repdir_util.Rng.int rng 3 in
        for _ = 1 to n_ops do
          let v = !next_version in
          incr next_version;
          if Repdir_util.Rng.int rng 3 < 2 then begin
            let k = Repdir_util.Rng.pick rng keys in
            (match G.lookup live (Bound.Key k) with
            | Present { version; value } ->
                Undo.record undo ~txn (Undo.Restore_entry (k, version, value))
            | Absent _ -> Undo.record undo ~txn (Undo.Remove_entry k));
            Wal.append w (Wal.Insert (txn, k, v, "x"));
            G.insert live k v "x"
          end
          else begin
            (* coalesce between two random existing bounds *)
            let bounds =
              Bound.Low :: Bound.High
              :: List.map (fun (k, _, _) -> Bound.Key k) (G.entries live)
            in
            let arr = Array.of_list bounds in
            let a = Repdir_util.Rng.pick rng arr and b = Repdir_util.Rng.pick rng arr in
            let lo, hi = if Bound.compare a b <= 0 then (a, b) else (b, a) in
            if Bound.compare lo hi < 0 then begin
              let doomed = G.entries_between live ~lo ~hi in
              let gap_lo = (G.successor live lo).gap_version in
              Undo.record undo ~txn (Undo.Restore_gap (lo, gap_lo));
              List.iter
                (fun (k, _, _, gap) ->
                  Undo.record undo ~txn (Undo.Restore_gap (Bound.Key k, gap)))
                doomed;
              List.iter
                (fun (k, ver, value, _) ->
                  Undo.record undo ~txn (Undo.Restore_entry (k, ver, value)))
                doomed;
              Wal.append w (Wal.Coalesce (txn, lo, hi, v));
              ignore (G.coalesce live ~lo ~hi v)
            end
          end
        done;
        if Repdir_util.Rng.bool rng then begin
          Wal.append w (Wal.Commit txn);
          Undo.forget undo ~txn
        end
        else begin
          Wal.append w (Wal.Abort txn);
          Apply.rollback undo ~txn live
        end
      done;
      let replayed = Replay.replay w in
      G.entries replayed = G.entries live && G.gaps replayed = G.gaps live)

(* --- footprint --------------------------------------------------------------------- *)

(* Gates on the heap words a finished transaction leaves behind. Each bound
   sits at least 2x above what the compact tables take and at least 2x below
   what one hash-table entry or log record per transaction took, so a gate
   fails when its table stops being compact. *)

let words v = Obj.reachable_words (Obj.repr v)

let test_footprint_manager () =
  let m = Txn.Manager.create () in
  for i = 1 to 100_000 do
    let id = Txn.Manager.begin_txn m in
    if i mod 100 = 0 then Txn.Manager.abort m id else Txn.Manager.commit m id
  done;
  let w = words m in
  if w > 20_000 then Alcotest.failf "manager after 100k transactions: %d words > 20000" w

let test_footprint_rep () =
  let r = Rep.create ~name:"r" () in
  for txn = 1 to 20_000 do
    Rep.insert r ~txn "k" txn "v";
    Rep.commit r ~txn
  done;
  let w = words r in
  if w > 56_000 then Alcotest.failf "rep after 20k transactions: %d words > 56000" w

(* The coordinator's per-client decision index is a hash table by design (it
   holds only that client's transactions), so the gate bounds what it keeps
   beyond an identical index: the log. *)
let test_footprint_coordinator () =
  let c = Coordinator.create () and index = Hashtbl.create 32 in
  for txn = 1 to 10_000 do
    let d = if txn mod 100 = 0 then Coordinator.Aborted else Coordinator.Committed in
    Hashtbl.replace index txn (Coordinator.decide c txn d)
  done;
  let beyond = words c - words index in
  if beyond > 30_000 then
    Alcotest.failf "coordinator after 10k decisions: %d words beyond its index > 30000" beyond;
  if Coordinator.log_length c > 65 then
    Alcotest.failf "coordinator log holds %d records > 65" (Coordinator.log_length c)

let () =
  Alcotest.run "txn"
    [
      ( "manager",
        [
          Alcotest.test_case "ids increase" `Quick test_manager_ids_increase;
          Alcotest.test_case "lifecycle" `Quick test_manager_lifecycle;
          Alcotest.test_case "double commit rejected" `Quick test_manager_double_commit_rejected;
          Alcotest.test_case "unknown txn" `Quick test_manager_unknown_txn;
          Alcotest.test_case "active list" `Quick test_manager_active_list;
        ] );
      ( "verdicts",
        [
          QCheck_alcotest.to_alcotest verdicts_match_hashtbl;
          Alcotest.test_case "negative id raises" `Quick test_verdicts_negative_id;
        ] );
      ( "undo",
        [
          Alcotest.test_case "rollback insert" `Quick test_undo_rollback_insert;
          Alcotest.test_case "rollback update" `Quick test_undo_rollback_update;
          Alcotest.test_case "rollback coalesce" `Quick test_undo_rollback_coalesce;
          Alcotest.test_case "reverse order" `Quick test_undo_reverse_order;
          Alcotest.test_case "txn isolation" `Quick test_undo_txn_isolation;
        ] );
      ( "wal",
        [
          Alcotest.test_case "replay commits only" `Quick test_wal_replay_commits_only;
          Alcotest.test_case "replay coalesce" `Quick test_wal_replay_coalesce;
          Alcotest.test_case "committed flag" `Quick test_wal_committed_flag;
          Alcotest.test_case "checkpoint roundtrip" `Quick test_wal_checkpoint_roundtrip;
          Alcotest.test_case "truncate" `Quick test_wal_truncate;
          Alcotest.test_case "truncate without checkpoint" `Quick
            test_wal_truncate_without_checkpoint;
          Alcotest.test_case "checkpoint then more commits" `Quick
            test_wal_checkpoint_then_more_commits;
          QCheck_alcotest.to_alcotest wal_replay_matches_live;
        ] );
      ( "storage faults",
        [
          Alcotest.test_case "torn tail -> committed prefix" `Quick
            test_wal_torn_tail_recovers_committed_prefix;
          Alcotest.test_case "corrupt tail -> committed prefix" `Quick
            test_wal_corrupt_tail_recovers_committed_prefix;
          Alcotest.test_case "torn commit record means uncommitted" `Quick
            test_wal_torn_commit_record_means_uncommitted;
          Alcotest.test_case "repair stops at first bad frame" `Quick
            test_wal_repair_drops_everything_after_first_bad_frame;
          Alcotest.test_case "faults clamp to unforced suffix" `Quick
            test_wal_faults_clamp_to_unforced_suffix;
          Alcotest.test_case "truncation drops only unforced" `Quick
            test_wal_truncate_tail_drops_only_unforced;
          Alcotest.test_case "rep recovers from torn tail" `Quick
            test_rep_recovers_from_torn_tail;
        ] );
      ( "footprint",
        [
          Alcotest.test_case "manager: 100k transactions" `Quick test_footprint_manager;
          Alcotest.test_case "rep: 20k update transactions" `Quick test_footprint_rep;
          Alcotest.test_case "coordinator: 10k decisions" `Quick test_footprint_coordinator;
        ] );
    ]
