(* Tests for the anti-entropy subsystem: digest agreement between the two
   gap-map implementations, digest/state equivalence, version-monotone merge
   safety and idempotence, cross-implementation pairwise convergence, the
   representative-level WAL/undo integration of [apply_range], the
   partition-then-heal convergence campaign, and the background actor under
   a partition cycle, run as a nemesis plan. *)

open Repdir_key
open Repdir_gapmap
open Repdir_rep
open Repdir_harness
module G = Gapmap
module Rng = Repdir_util.Rng

let keyspace = 40

(* --- divergent-history generator ------------------------------------------------ *)

(* Random mutations drawing versions from a shared monotone counter, so two
   histories built from a common prefix never reuse a version for different
   state — exactly the property quorum intersection gives real
   representatives, and the precondition for the merge's tie handling. *)
module Mutator (M : Gapmap_intf.S) = struct
  let version_at m k =
    match M.lookup m (Bound.Key k) with
    | Gapmap_intf.Present { version; _ } -> version
    | Gapmap_intf.Absent { gap_version } -> gap_version

  let op m rng ver =
    let fresh () =
      incr ver;
      !ver
    in
    match Rng.int rng 8 with
    | 0 | 1 | 2 | 3 | 4 ->
        let v = fresh () in
        M.insert m (Key.of_int (Rng.int rng keyspace)) v (Printf.sprintf "v%d" v)
    | 5 | 6 -> (
        (* Delete a random entry the way the suite does: coalesce between its
           neighbours with a fresh (dominating) version. *)
        match M.entries m with
        | [] ->
            let v = fresh () in
            M.insert m (Key.of_int (Rng.int rng keyspace)) v (Printf.sprintf "v%d" v)
        | es ->
            let k, _, _ = List.nth es (Rng.int rng (List.length es)) in
            let lo = (M.predecessor m (Bound.Key k)).key in
            let hi = (M.successor m (Bound.Key k)).key in
            ignore (M.coalesce m ~lo ~hi (fresh ())))
    | _ ->
        (* Raise a random gap's version, as coalescing an empty range does. *)
        let es = M.entries m in
        let bounds = Bound.Low :: List.map (fun (k, _, _) -> Bound.Key k) es in
        let b = List.nth bounds (Rng.int rng (List.length bounds)) in
        M.set_gap_after m b (fresh ())

  let run m rng ver n =
    for _ = 1 to n do
      op m rng ver
    done

  let build ~seed ~ops =
    let m = M.create () in
    let ver = ref 0 in
    run m (Rng.create seed) ver ops;
    (m, ver)
end

module MR = Mutator (G.Reference)
module MB = Mutator (G.Btree)

(* Reference and btree driven through the identical op sequence. *)
let build_pair ~seed ~ops =
  let r, _ = MR.build ~seed ~ops in
  let b, _ = MB.build ~seed ~ops in
  (r, b)

let check_inv name = function Ok () -> () | Error e -> Alcotest.failf "%s: %s" name e

(* --- digest agreement between implementations ----------------------------------- *)

let random_bound rng =
  match Rng.int rng 6 with
  | 0 -> Bound.Low
  | 1 -> Bound.High
  | _ -> Bound.Key (Key.of_int (Rng.int rng keyspace))

let impl_agreement =
  QCheck.Test.make ~name:"reference and btree agree on digests/transfers" ~count:60
    QCheck.(pair (int_bound 100_000) (int_bound 200))
    (fun (seed, ops) ->
      let seed = Int64.of_int seed in
      let r, b = build_pair ~seed ~ops in
      check_inv "reference" (G.Reference.check_invariants r);
      check_inv "btree" (G.Btree.check_invariants b);
      let dr = G.Reference.digest_range r ~lo:Bound.Low ~hi:Bound.High in
      let db = G.Btree.digest_range b ~lo:Bound.Low ~hi:Bound.High in
      if dr <> db then
        QCheck.Test.fail_reportf "root digests differ: %a vs %a" Gapmap_intf.pp_digest dr
          Gapmap_intf.pp_digest db;
      let rng = Rng.create (Int64.add seed 77L) in
      for _ = 1 to 12 do
        let x = random_bound rng and y = random_bound rng in
        if Bound.compare x y <> 0 then begin
          let lo = Bound.min x y and hi = Bound.max x y in
          let dr = G.Reference.digest_range r ~lo ~hi in
          let db = G.Btree.digest_range b ~lo ~hi in
          if dr <> db then
            QCheck.Test.fail_reportf "digest(%a,%a) differs" Bound.pp lo Bound.pp hi;
          if
            G.Reference.digest_interior_range r ~lo ~hi
            <> G.Btree.digest_interior_range b ~lo ~hi
          then
            QCheck.Test.fail_reportf "interior digest(%a,%a) differs" Bound.pp lo Bound.pp hi;
          if G.Reference.pull_range r ~lo ~hi <> G.Btree.pull_range b ~lo ~hi then
            QCheck.Test.fail_reportf "pull_range(%a,%a) differs" Bound.pp lo Bound.pp hi;
          if
            G.Reference.split_range r ~lo ~hi ~arity:4
            <> G.Btree.split_range b ~lo ~hi ~arity:4
          then QCheck.Test.fail_reportf "split_range(%a,%a) differs" Bound.pp lo Bound.pp hi
        end
      done;
      true)

(* --- digest/state equivalence ---------------------------------------------------- *)

let root d = G.Btree.digest_range d ~lo:Bound.Low ~hi:Bound.High

let test_digest_is_a_function_of_state () =
  (* Same final state reached along different histories must digest equally. *)
  let m1 = G.Btree.create () in
  G.Btree.insert m1 "a" 1 "va";
  G.Btree.insert m1 "b" 2 "vb";
  let m2 = G.Btree.create () in
  G.Btree.insert m2 "b" 2 "vb";
  G.Btree.insert m2 "a" 1 "va";
  Alcotest.(check bool) "insert order invisible" true (root m1 = root m2);
  (* A gap version set by coalesce and by set_gap_after is the same state. *)
  let m3 = G.Btree.create () in
  G.Btree.insert m3 "a" 1 "va";
  G.Btree.insert m3 "c" 1 "vc";
  let m4 = G.Btree.create () in
  G.Btree.insert m4 "a" 1 "va";
  G.Btree.insert m4 "c" 1 "vc";
  ignore (G.Btree.coalesce m3 ~lo:(Bound.Key "a") ~hi:(Bound.Key "c") 5);
  G.Btree.set_gap_after m4 (Bound.Key "a") 5;
  Alcotest.(check bool) "coalesce vs set_gap_after invisible" true (root m3 = root m4)

let test_digest_sensitivity () =
  let seed = 2718L and ops = 150 in
  let fresh () = fst (MB.build ~seed ~ops) in
  let base = root (fresh ()) in
  let m = fresh () in
  Alcotest.(check bool) "identical rebuild digests equally" true (root m = base);
  let k, v, value =
    match G.Btree.entries m with e :: _ -> e | [] -> Alcotest.fail "empty build"
  in
  let mutated name f =
    let m = fresh () in
    f m;
    Alcotest.(check bool) (name ^ " changes the digest") true (root m <> base)
  in
  mutated "entry version bump" (fun m -> G.Btree.insert m k (v + 1000) value);
  mutated "value change only" (fun m -> G.Btree.insert m k v (value ^ "!"));
  mutated "gap raise" (fun m -> G.Btree.set_gap_after m Bound.Low 9999);
  mutated "fresh insert" (fun m -> G.Btree.insert m (Key.of_int 999) 1 "x");
  mutated "entry removal" (fun m -> ignore (G.Btree.remove m k))

(* The interior digest leaves out exactly the gap above [lo]: that gap can
   reach below [lo], so deletions outside the range bump it, and the split
   gate compares a frozen slice with this digest. *)
let test_interior_digest_ignores_gap_above_lo () =
  let m = G.Btree.create () in
  List.iter (fun k -> G.Btree.insert m k 1 ("v" ^ k)) [ "a"; "c"; "e" ];
  let lo = Bound.Key "b" and hi = Bound.Key "e" in
  let full = G.Btree.digest_range m ~lo ~hi in
  let interior = G.Btree.digest_interior_range m ~lo ~hi in
  (* The gap after "a" is the one that holds "b". *)
  G.Btree.set_gap_after m (Bound.Key "a") 7;
  Alcotest.(check bool) "digest_range sees the raise" true
    (G.Btree.digest_range m ~lo ~hi <> full);
  Alcotest.(check bool) "digest_interior_range does not" true
    (G.Btree.digest_interior_range m ~lo ~hi = interior)

(* --- merge safety ----------------------------------------------------------------- *)

(* A common prefix of [base] ops, then [da] ops only A sees, then [db] ops
   only B sees (strictly later versions) — two replicas diverged by a
   partition. A is the reference map, B the btree, so every merge test also
   exercises cross-implementation transfers. *)
let diverged ~seed ~base ~da ~db =
  let a, _ = MR.build ~seed ~ops:base in
  let b, ver = MB.build ~seed ~ops:base in
  MR.run a (Rng.create (Int64.add seed 1L)) ver da;
  MB.run b (Rng.create (Int64.add seed 2L)) ver db;
  (a, b)

let probe_keys = List.init (keyspace + 3) Key.of_int

let merge_monotone =
  QCheck.Test.make ~name:"apply_transfer is version-monotone and idempotent" ~count:60
    QCheck.(triple (int_bound 100_000) (int_bound 120) (pair (int_bound 25) (int_bound 25)))
    (fun (seed, base, (da, db)) ->
      let a, b = diverged ~seed:(Int64.of_int seed) ~base ~da ~db in
      let before = List.map (fun k -> (k, MR.version_at a k)) probe_keys in
      let tr = G.Btree.pull_range b ~lo:Bound.Low ~hi:Bound.High in
      ignore (G.Reference.apply_transfer a tr);
      check_inv "reference after merge" (G.Reference.check_invariants a);
      List.iter
        (fun (k, v0) ->
          let v1 = MR.version_at a k in
          let vp = MB.version_at b k in
          if v1 < v0 then
            QCheck.Test.fail_reportf "version lowered at %a: %d -> %d" Key.pp k v0 v1;
          if v1 > max v0 vp then
            QCheck.Test.fail_reportf "version fabricated at %a: %d > max(%d,%d)" Key.pp k
              v1 v0 vp)
        before;
      (* Idempotence: re-planning the same transfer finds nothing to do. *)
      let plan = G.Reference.plan_transfer a tr in
      if plan.Gapmap_intf.ops <> [] then
        QCheck.Test.fail_reportf "second plan not empty: %d ops"
          (List.length plan.Gapmap_intf.ops);
      true)

(* Replicated-history generator: one linear history of suite-style writes,
   each applied to a random subset of two replicas — the way quorum writes
   (w < n) scatter state in the real system. Both replicas embed in the
   same serialization, so almost all pairs merge to exact equality; the
   exception is a delete whose endpoint repair skips a replica's *stale*
   copy of the endpoint (mirroring Figure 13, which only repairs members
   that lack the key), which can make the pair's pointwise max demand a
   gap boundary at a key with no entry — unrepresentable, so the merge
   stabilizes with dominated ghosts instead. [pairwise_convergence] below
   accepts exactly that fixpoint and nothing weaker. *)
let replicated_pair ~seed ~ops =
  let rng = Rng.create seed in
  let f = G.Reference.create () in
  let a = G.Reference.create () and b = G.Btree.create () in
  let ver = ref 0 in
  let fresh () =
    incr ver;
    !ver
  in
  for _ = 1 to ops do
    let to_a, to_b =
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 | 4 -> (true, true)
      | 5 | 6 -> (true, false)
      | 7 | 8 -> (false, true)
      | _ -> (false, false) (* only the third representative saw this one *)
    in
    let k = Key.of_int (Rng.int rng keyspace) in
    match Rng.int rng 3 with
    | 0 | 1 ->
        (* Insert-or-update at the next version (Figure 9). *)
        let v = fresh () in
        let value = Printf.sprintf "v%d" v in
        G.Reference.insert f k v value;
        if to_a then G.Reference.insert a k v value;
        if to_b then G.Btree.insert b k v value
    | _ ->
        (* Delete: coalesce between k's real neighbours with a dominating
           version, first repairing endpoint entries the replica lacks
           (Figures 12/13). *)
        let pred = (G.Reference.predecessor f (Bound.Key k)).key in
        let succ = (G.Reference.successor f (Bound.Key k)).key in
        let repair bound =
          match bound with
          | Bound.Key p -> (
              match G.Reference.lookup f bound with
              | Gapmap_intf.Present { version; value } -> [ (p, version, value) ]
              | Gapmap_intf.Absent _ -> [])
          | Bound.Low | Bound.High -> []
        in
        let copies = repair pred @ repair succ in
        let v = fresh () in
        ignore (G.Reference.coalesce f ~lo:pred ~hi:succ v);
        if to_a then begin
          List.iter
            (fun (p, pv, pval) ->
              if not (G.Reference.mem a p) then G.Reference.insert a p pv pval)
            copies;
          ignore (G.Reference.coalesce a ~lo:pred ~hi:succ v)
        end;
        if to_b then begin
          List.iter
            (fun (p, pv, pval) -> if not (G.Btree.mem b p) then G.Btree.insert b p pv pval)
            copies;
          ignore (G.Btree.coalesce b ~lo:pred ~hi:succ v)
        end
  done;
  (a, b)

(* Bidirectional anti-entropy over replicated histories reaches a *stable
   safe fixpoint* in a bounded number of rounds. Usually that fixpoint is
   exact equality, but not always: the suite's delete (Figure 13) only
   repairs endpoint copies a member *lacks*, so a member holding a stale
   copy of the endpoint gets coalesced around it, and the pair's pointwise
   max can demand a gap-version boundary at a key with no entry — a state
   no gap map can represent. The merge then correctly refuses to fabricate
   coverage and parks the difference as mutually dominated ghosts: both
   directions' plans stay empty, and every one-sided entry sits strictly
   below the other side's gap version at that key. *)
let pairwise_convergence =
  QCheck.Test.make ~name:"bidirectional sync reaches a stable safe fixpoint" ~count:120
    QCheck.(pair (int_bound 100_000) (int_bound 200))
    (fun (seed, ops) ->
      let a, b = replicated_pair ~seed:(Int64.of_int seed) ~ops in
      let full_a () = G.Reference.pull_range a ~lo:Bound.Low ~hi:Bound.High in
      let full_b () = G.Btree.pull_range b ~lo:Bound.Low ~hi:Bound.High in
      let equal () =
        G.Reference.digest_range a ~lo:Bound.Low ~hi:Bound.High
        = G.Btree.digest_range b ~lo:Bound.Low ~hi:Bound.High
      in
      let fixpoint () =
        equal ()
        || (G.Reference.plan_transfer a (full_b ())).Gapmap_intf.ops = []
           && (G.Btree.plan_transfer b (full_a ())).Gapmap_intf.ops = []
      in
      let rounds = ref 0 in
      while (not (fixpoint ())) && !rounds < 10 do
        incr rounds;
        ignore (G.Reference.apply_transfer a (full_b ()));
        ignore (G.Btree.apply_transfer b (full_a ()))
      done;
      if not (fixpoint ()) then QCheck.Test.fail_reportf "no fixpoint after 10 rounds";
      check_inv "reference" (G.Reference.check_invariants a);
      check_inv "btree" (G.Btree.check_invariants b);
      if equal () then begin
        if G.Reference.entries a <> G.Btree.entries b then
          QCheck.Test.fail_reportf "digests equal but entries differ";
        if G.Reference.gaps a <> G.Btree.gaps b then
          QCheck.Test.fail_reportf "digests equal but gaps differ"
      end
      else begin
        let ea = G.Reference.entries a and eb = G.Btree.entries b in
        let find es k = List.find_opt (fun (k', _, _) -> Key.equal k' k) es in
        let check_side tag mine theirs other_lookup =
          List.iter
            (fun (k, v, value) ->
              match find theirs k with
              | Some (_, v', value') ->
                  if v <> v' || value <> value' then
                    QCheck.Test.fail_reportf "%s: common key %s differs at fixpoint" tag
                      (Key.to_string k)
              | None -> (
                  match other_lookup (Bound.Key k) with
                  | Gapmap_intf.Present _ ->
                      QCheck.Test.fail_reportf "%s: lookup/entries disagree at %s" tag
                        (Key.to_string k)
                  | Gapmap_intf.Absent { gap_version } ->
                      if gap_version <= v then
                        QCheck.Test.fail_reportf
                          "%s: one-sided entry %s@%d not dominated (peer gap %d)" tag
                          (Key.to_string k) v gap_version))
            mine
        in
        check_side "a-only" ea eb (G.Btree.lookup b);
        check_side "b-only" eb ea (G.Reference.lookup a)
      end;
      true)

(* --- representative-level apply_range -------------------------------------------- *)

(* Two stand-alone representatives: [b] holds everything [a] does plus a
   later history, so one directed transfer makes them identical. *)
let rep_pair () =
  let a = Rep.create ~name:"a" () in
  Rep.insert a ~txn:1 "b" 1 "vb";
  Rep.insert a ~txn:1 "d" 2 "vd";
  Rep.insert a ~txn:1 "f" 3 "vf";
  Rep.commit a ~txn:1;
  let b = Rep.create ~name:"b" () in
  Rep.insert b ~txn:2 "b" 1 "vb";
  Rep.insert b ~txn:2 "d" 2 "vd";
  Rep.insert b ~txn:2 "f" 3 "vf";
  (* Post-partition history only b saw: an update, an insert, a delete. *)
  Rep.insert b ~txn:2 "d" 4 "vd'";
  Rep.insert b ~txn:2 "e" 5 "ve";
  ignore (Rep.coalesce b ~txn:2 ~lo:(Bound.Key "e") ~hi:Bound.High 6);
  Rep.commit b ~txn:2;
  (a, b)

let snapshot r = (Rep.entries r, Rep.gaps r)

let test_apply_range_abort_restores () =
  let a, b = rep_pair () in
  let s0 = snapshot a in
  let tr = Rep.pull_range b ~txn:3 ~lo:Bound.Low ~hi:Bound.High in
  let applied = Rep.apply_range a ~txn:3 tr in
  Alcotest.(check bool) "merge did something" true
    (applied.Gapmap_intf.installed + applied.Gapmap_intf.updated
     + applied.Gapmap_intf.deleted + applied.Gapmap_intf.gaps_raised
    > 0);
  Alcotest.(check bool) "state changed before abort" true (snapshot a <> s0);
  Rep.abort a ~txn:3;
  Rep.abort b ~txn:3;
  Alcotest.(check bool) "abort restored the exact state" true (snapshot a = s0);
  check_inv "rep a" (Rep.check_invariants a)

let test_apply_range_commit_survives_crash () =
  let a, b = rep_pair () in
  let tr = Rep.pull_range b ~txn:3 ~lo:Bound.Low ~hi:Bound.High in
  ignore (Rep.apply_range a ~txn:3 tr);
  Rep.commit a ~txn:3;
  Rep.abort b ~txn:3;
  Alcotest.(check bool) "one directed transfer equalized the pair" true
    (Rep.root_digest a = Rep.root_digest b);
  let s1 = snapshot a in
  Rep.crash a;
  Rep.recover a;
  Alcotest.(check bool) "recovery replayed the Sync_apply record" true (snapshot a = s1);
  check_inv "rep a after recovery" (Rep.check_invariants a);
  (* Idempotence at the representative level: a second apply is a no-op. *)
  let tr = Rep.pull_range b ~txn:4 ~lo:Bound.Low ~hi:Bound.High in
  let again = Rep.apply_range a ~txn:4 tr in
  Rep.commit a ~txn:4;
  Rep.abort b ~txn:4;
  Alcotest.(check bool) "second apply is a no-op" true
    (again = Gapmap_intf.empty_applied);
  Alcotest.(check bool) "digest stable" true (snapshot a = s1)

(* --- partition-then-heal convergence ---------------------------------------------- *)

let check_outcome (o : Anti_entropy.outcome) =
  Alcotest.(check bool)
    (Printf.sprintf "seed %Ld: partition produced divergence" o.seed)
    true (o.diverged_entries > 0);
  Alcotest.(check bool)
    (Printf.sprintf "seed %Ld: converged with zero client traffic" o.seed)
    true o.converged;
  Alcotest.(check bool)
    (Printf.sprintf "seed %Ld: sync moved entries" o.seed)
    true (o.entries_sent > 0);
  Alcotest.(check bool)
    (Printf.sprintf "seed %Ld: O(diff) transfer (%d sent < %d directory)" o.seed
       o.entries_sent o.directory_size)
    true
    (o.entries_sent < o.directory_size);
  Alcotest.(check bool)
    (Printf.sprintf "seed %Ld: digest rounds ran" o.seed)
    true
    (o.digest_rpcs > 0 && o.sessions > 0)

let test_convergence_campaign () =
  List.iter (fun seed -> check_outcome (Anti_entropy.convergence ~seed ())) [ 1983L; 2024L; 7L ]

let test_convergence_bit_reproducible () =
  let o1 = Anti_entropy.convergence ~seed:42L () in
  let o2 = Anti_entropy.convergence ~seed:42L () in
  Alcotest.(check bool) "same seed, identical outcome (incl. event count)" true (o1 = o2);
  let o3 = Anti_entropy.convergence ~seed:43L () in
  Alcotest.(check bool) "different seed, different trace" true (o1.sim_events <> o3.sim_events)

(* The background actor under steady traffic and a repeating partition
   cycle, audited: stranded transactions terminate without a restart, and
   the actor leaves no entry stale at either end of the period sweep. *)
let test_partition_sync () =
  List.iter
    (fun period ->
      let label what = Printf.sprintf "period %g: %s" period what in
      let o =
        let e = Nemesis.find (Printf.sprintf "partition sync %g" period) in
        Nemesis.run_plan ~seed:1983L (e.build ~seed:1983L ~n:3 e.defaults)
      in
      let a = Option.get o.Nemesis.anti_entropy in
      Alcotest.(check int) (label "no violations") 0 (Nemesis.total_violations o);
      Alcotest.(check int) (label "no orphaned locks") 0 o.Nemesis.orphan_locks;
      Alcotest.(check int) (label "no open in-doubt txns") 0 o.Nemesis.indoubt_open;
      Alcotest.(check bool) (label "sessions ran") true (a.Nemesis.sync_counters.sessions > 0);
      Alcotest.(check int) (label "nothing stale at the end") 0 a.Nemesis.end_stale)
    [ 10.0; 300.0 ]

let () =
  Alcotest.run "sync"
    [
      ( "digest",
        [
          QCheck_alcotest.to_alcotest impl_agreement;
          Alcotest.test_case "function of state" `Quick test_digest_is_a_function_of_state;
          Alcotest.test_case "sensitivity" `Quick test_digest_sensitivity;
          Alcotest.test_case "interior digest ignores the gap above lo" `Quick
            test_interior_digest_ignores_gap_above_lo;
        ] );
      ( "merge",
        [
          QCheck_alcotest.to_alcotest merge_monotone;
          QCheck_alcotest.to_alcotest pairwise_convergence;
        ] );
      ( "rep",
        [
          Alcotest.test_case "abort restores state" `Quick test_apply_range_abort_restores;
          Alcotest.test_case "commit survives crash" `Quick
            test_apply_range_commit_survives_crash;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "partition-then-heal campaign" `Quick test_convergence_campaign;
          Alcotest.test_case "bit-reproducible" `Quick test_convergence_bit_reproducible;
          Alcotest.test_case "partition sync" `Quick test_partition_sync;
        ] );
    ]
