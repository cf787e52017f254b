(* Tests for the suite's ordered-traversal API (next/prev/first/last/
   fold_range/to_alist): agreement with a sorted model under churn and
   random quorums — exercising ghost-skipping — plus weighted-vote and
   zero-vote-representative end-to-end checks. *)

open Repdir_key
open Repdir_txn
open Repdir_rep
open Repdir_quorum
open Repdir_core

let make_suite ?seed ?batching ?batch_depth ?cache config =
  let n = Config.n_reps config in
  let reps = Array.init n (fun i -> Rep.create ~name:(Printf.sprintf "r%d" i) ()) in
  ( reps,
    Suite.create ?seed ?batching ?batch_depth ?cache ~config ~transport:(Transport.local reps)
      ~txns:(Txn.Manager.create ()) () )

let cfg_322 = Config.simple ~n:3 ~r:2 ~w:2

let populate suite keys = List.iter (fun k -> ignore (Suite.insert suite k ("v" ^ k))) keys

(* --- basics ----------------------------------------------------------------------- *)

let test_next_prev_basic () =
  let _, s = make_suite cfg_322 in
  populate s [ "b"; "d"; "f" ];
  (match Suite.next s "b" with
  | Some ("d", _, "vd") -> ()
  | _ -> Alcotest.fail "next of b");
  (match Suite.next s "c" with
  | Some ("d", _, _) -> ()
  | _ -> Alcotest.fail "next of absent c");
  (match Suite.next s "f" with
  | None -> ()
  | Some _ -> Alcotest.fail "next of last");
  (match Suite.prev s "d" with
  | Some ("b", _, _) -> ()
  | _ -> Alcotest.fail "prev of d");
  match Suite.prev s "b" with
  | None -> ()
  | Some _ -> Alcotest.fail "prev of first"

let test_first_last () =
  let _, s = make_suite cfg_322 in
  (match Suite.first s with None -> () | Some _ -> Alcotest.fail "empty first");
  (match Suite.last s with None -> () | Some _ -> Alcotest.fail "empty last");
  populate s [ "m"; "c"; "x" ];
  (match Suite.first s with
  | Some ("c", _, _) -> ()
  | _ -> Alcotest.fail "first");
  match Suite.last s with Some ("x", _, _) -> () | _ -> Alcotest.fail "last"

let test_next_skips_ghosts () =
  (* Forced quorums: insert at {A,B}, delete at {B,C}; A keeps a ghost that
     next/first must skip. *)
  let reps, _ = make_suite cfg_322 in
  let transport = Transport.local reps in
  let txns = Txn.Manager.create () in
  let via order =
    Suite.create ~picker:(Picker.Fixed (Array.of_list order)) ~config:cfg_322 ~transport
      ~txns ()
  in
  ignore (Suite.insert (via [ 0; 1; 2 ]) "a" "va");
  ignore (Suite.insert (via [ 0; 1; 2 ]) "b" "vb");
  ignore (Suite.insert (via [ 0; 1; 2 ]) "c" "vc");
  ignore (Suite.delete (via [ 1; 2; 0 ]) "b");
  let s_ac = via [ 0; 2; 1 ] in
  (match Suite.next s_ac "a" with
  | Some ("c", _, _) -> ()
  | Some (k, _, _) -> Alcotest.failf "next of a hit ghost %s" k
  | None -> Alcotest.fail "next of a lost c");
  match Suite.prev s_ac "c" with
  | Some ("a", _, _) -> ()
  | Some (k, _, _) -> Alcotest.failf "prev of c hit ghost %s" k
  | None -> Alcotest.fail "prev of c lost a"

let test_fold_range () =
  let _, s = make_suite cfg_322 in
  populate s [ "a"; "b"; "c"; "d"; "e" ];
  let collected =
    Suite.fold_range s ~lo:"b" ~hi:"d" ~init:[] ~f:(fun acc k _ -> k :: acc)
  in
  Alcotest.(check (list string)) "closed range" [ "d"; "c"; "b" ] collected;
  let empty = Suite.fold_range s ~lo:"x" ~hi:"z" ~init:[] ~f:(fun acc k _ -> k :: acc) in
  Alcotest.(check (list string)) "empty range" [] empty

let test_to_alist () =
  let _, s = make_suite cfg_322 in
  populate s [ "m"; "c"; "x"; "a" ];
  ignore (Suite.delete s "m");
  Alcotest.(check (list (pair string string)))
    "sorted current entries"
    [ ("a", "va"); ("c", "vc"); ("x", "vx") ]
    (Suite.to_alist s)

(* --- model property over churn ------------------------------------------------------- *)

(* Over every walk the suite has: unbatched and batched (fused delete
   walks), neighbour chains of depth 1 and 3, with and without the
   version-validated cache (whose reads resolve each walk candidate). *)
let traversal_matches_model =
  QCheck.Test.make ~name:"traversal equals sorted model under churn" ~count:40
    QCheck.(quad (int_bound 1_000_000) bool bool bool)
    (fun (seed, batching, deep, cached) ->
      let rng = Repdir_util.Rng.create (Int64.of_int seed) in
      let cache = if cached then Some (Repdir_cache.Cache.create ~capacity:8 ()) else None in
      let _, s =
        make_suite ~seed:(Int64.of_int (seed + 1)) ~batching
          ~batch_depth:(if deep then 3 else 1)
          ?cache cfg_322
      in
      let model = Hashtbl.create 32 in
      let universe = Array.init 20 (fun i -> Key.of_int i) in
      for step = 1 to 80 do
        let k = Repdir_util.Rng.pick rng universe in
        (match Repdir_util.Rng.int rng 3 with
        | 0 -> (
            match Suite.insert s k ("v" ^ string_of_int step) with
            | Ok () -> Hashtbl.replace model k ("v" ^ string_of_int step)
            | Error `Already_present -> ())
        | 1 ->
            ignore (Suite.delete s k);
            Hashtbl.remove model k
        | _ -> (
            match Suite.update s k ("u" ^ string_of_int step) with
            | Ok () -> Hashtbl.replace model k ("u" ^ string_of_int step)
            | Error `Not_present -> ()));
        (* Full ordered scan must equal the sorted model. *)
        let expected =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
          |> List.sort (fun (a, _) (b, _) -> Key.compare a b)
        in
        if Suite.to_alist s <> expected then failwith (Printf.sprintf "scan diverged at %d" step);
        (* Spot-check next, prev and last from a random probe. *)
        let probe = Repdir_util.Rng.pick rng universe in
        let agrees what got want =
          let ok =
            match (got, want) with
            | None, None -> true
            | Some (k, _, v), Some (k', v') -> Key.equal k k' && String.equal v v'
            | _ -> false
          in
          if not ok then failwith (Printf.sprintf "%s diverged at %d" what step)
        in
        agrees "next" (Suite.next s probe)
          (List.find_opt (fun (k, _) -> Key.compare k probe > 0) expected);
        agrees "prev" (Suite.prev s probe)
          (List.find_opt (fun (k, _) -> Key.compare k probe < 0) (List.rev expected));
        agrees "last" (Suite.last s) (List.nth_opt (List.rev expected) 0)
      done;
      true)

(* --- weighted votes end-to-end --------------------------------------------------------- *)

let weighted_config =
  (* A strong representative with 2 votes among three weak ones: quorums of
     3 votes can be the strong one plus any weak one, or all three weak. *)
  Config.make_exn ~votes:[| 2; 1; 1; 1 |] ~read_quorum:3 ~write_quorum:3

let test_weighted_votes_end_to_end () =
  let rng = Repdir_util.Rng.create 91L in
  let _, s = make_suite ~seed:92L weighted_config in
  let model = Hashtbl.create 32 in
  let universe = Array.init 15 (fun i -> Key.of_int i) in
  for step = 1 to 400 do
    let k = Repdir_util.Rng.pick rng universe in
    (match Repdir_util.Rng.int rng 3 with
    | 0 -> (
        match Suite.insert s k "v" with
        | Ok () -> Hashtbl.replace model k "v"
        | Error `Already_present -> ())
    | 1 ->
        ignore (Suite.delete s k);
        Hashtbl.remove model k
    | _ ->
        if Suite.mem s k <> Hashtbl.mem model k then
          Alcotest.failf "weighted lookup diverged at step %d" step);
    ()
  done;
  Hashtbl.iter (fun k _ -> Alcotest.(check bool) "present" true (Suite.mem s k)) model

let test_zero_vote_rep_never_consulted () =
  let config = Config.make_exn ~votes:[| 1; 1; 1; 0 |] ~read_quorum:2 ~write_quorum:2 in
  let reps, s =
    let n = Config.n_reps config in
    let reps = Array.init n (fun i -> Rep.create ~name:(Printf.sprintf "r%d" i) ()) in
    ( reps,
      Suite.create ~config ~transport:(Transport.local reps) ~txns:(Txn.Manager.create ()) ()
    )
  in
  for i = 0 to 30 do
    ignore (Suite.insert s (Key.of_int i) "v")
  done;
  Alcotest.(check int) "weak representative stays empty" 0 (Rep.size reps.(3));
  Alcotest.(check int) "no calls reached it" 0 (Rep.counters reps.(3)).Rep.lookups

let test_weighted_strong_rep_read_alone () =
  (* With votes (2,1,1) and R=2, the strong representative alone is a read
     quorum: crash both weak ones and reads still work (writes need 3). *)
  let config = Config.make_exn ~votes:[| 2; 1; 1 |] ~read_quorum:2 ~write_quorum:3 in
  let reps, s = make_suite config in
  ignore (Suite.insert s "k" "v");
  Rep.crash reps.(1);
  Rep.crash reps.(2);
  Alcotest.(check bool) "read via strong rep alone" true (Suite.mem s "k");
  (match Suite.update s "k" "v2" with
  | exception Suite.Unavailable _ -> ()
  | _ -> Alcotest.fail "write quorum should be impossible");
  Rep.recover reps.(1);
  Rep.recover reps.(2);
  match Suite.update s "k" "v2" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update after recovery"

let () =
  Alcotest.run "traversal"
    [
      ( "ordered",
        [
          Alcotest.test_case "next/prev basics" `Quick test_next_prev_basic;
          Alcotest.test_case "first/last" `Quick test_first_last;
          Alcotest.test_case "ghost skipping" `Quick test_next_skips_ghosts;
          Alcotest.test_case "fold_range" `Quick test_fold_range;
          Alcotest.test_case "to_alist" `Quick test_to_alist;
          QCheck_alcotest.to_alcotest traversal_matches_model;
        ] );
      ( "weighted",
        [
          Alcotest.test_case "weighted end-to-end" `Quick test_weighted_votes_end_to_end;
          Alcotest.test_case "zero-vote rep untouched" `Quick test_zero_vote_rep_never_consulted;
          Alcotest.test_case "strong rep reads alone" `Quick test_weighted_strong_rep_read_alone;
        ] );
    ]
