(* Chaos test: several concurrent clients run atomic two-key transactions
   against a 3-2-2 suite on the simulator while a fault injector crashes and
   recovers representatives (at most one down at a time, so quorums remain
   collectible). With two-phase commit, every transaction must be
   all-or-nothing despite crashes landing between the phases: after the dust
   settles, each pair of keys is either fully present with matching tags or
   fully absent. Clients retry on deadlock aborts and unavailability through
   [Suite.with_retries] — re-running the same pair after an aborted attempt
   is safe precisely because aborts roll everything back. *)

open Repdir_txn
open Repdir_sim
open Repdir_quorum
open Repdir_core
open Repdir_harness

let run_chaos ~seed ~duration ~clients =
  let config = Config.simple ~n:3 ~r:2 ~w:2 in
  let world =
    Shard_world.create ~seed:(Int64.of_int seed) ~rpc_timeout:60.0
      ~n_clients:clients ~config ~groups:1 ()
  in
  let sim = Shard_world.sim world in
  let committed_pairs : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let committed = ref 0 and retried = ref 0 in
  (* Clients: insert a unique (a-tag, b-tag) pair atomically, occasionally
     delete a previously committed pair (also atomically). *)
  for c = 0 to clients - 1 do
    let suite = Shard_world.suite_for_client ~seed:(Int64.of_int ((c * 131) + 7)) world c 0 in
    let rng = Repdir_util.Rng.create (Int64.of_int ((c * 17) + seed)) in
    let counter = ref 0 in
    Sim.spawn sim (fun () ->
        while Sim.now sim < duration do
          incr counter;
          let tag = Printf.sprintf "c%d-%d" c !counter in
          let ka = "a-" ^ tag and kb = "b-" ^ tag in
          match
            Suite.with_retries ~attempts:4 ~backoff:5.0
              ~sleep:(fun d ->
                incr retried;
                Sim.sleep sim d)
              ~rng
              (fun () ->
                Suite.with_txn suite (fun txn ->
                    (match Suite.insert ~txn suite ka tag with
                    | Ok () -> ()
                    | Error `Already_present -> failwith "duplicate pair key");
                    match Suite.insert ~txn suite kb tag with
                    | Ok () -> ()
                    | Error `Already_present -> failwith "duplicate pair key"))
          with
          | () ->
              incr committed;
              Hashtbl.replace committed_pairs tag tag
          | exception (Txn.Abort _ | Suite.Unavailable _) ->
              (* Even the last attempt failed: abandon this pair and move on
                 after a breather. *)
              incr retried;
              Sim.sleep sim (Repdir_util.Rng.exponential rng ~mean:5.0)
        done)
  done;
  (* Fault injector: one representative down at a time, repeatedly. *)
  Sim.spawn sim (fun () ->
      let rng = Repdir_util.Rng.create (Int64.of_int (seed + 999)) in
      while Sim.now sim < duration do
        let victim = Repdir_util.Rng.int rng 3 in
        Shard_world.crash_rep world ~g:0 victim;
        Sim.sleep sim (20.0 +. Repdir_util.Rng.float rng 30.0);
        Shard_world.recover_rep world ~g:0 victim;
        Sim.sleep sim (10.0 +. Repdir_util.Rng.float rng 20.0)
      done;
      (* Heal everything at the end. *)
      for i = 0 to 2 do
        if Repdir_rep.Rep.is_crashed (Shard_world.group_reps world 0).(i) then
          Shard_world.recover_rep world ~g:0 i
      done);
  Sim.run sim;
  (* Post-mortem from a fresh client view: every committed pair is fully
     present with matching values; a transaction that was *reported*
     committed must never be half-applied. *)
  let verifier = Shard_world.suite_for_client ~seed:424L world 0 0 in
  let violations = ref 0 in
  let checked = ref 0 in
  Sim.spawn sim (fun () ->
      Hashtbl.iter
        (fun tag _ ->
          incr checked;
          let a = Suite.lookup verifier ("a-" ^ tag) in
          let b = Suite.lookup verifier ("b-" ^ tag) in
          match (a, b) with
          | Some (_, va), Some (_, vb) when String.equal va tag && String.equal vb tag -> ()
          | _ -> incr violations)
        committed_pairs);
  Sim.run sim;
  (!committed, !retried, !checked, !violations)

let test_chaos_atomic_pairs () =
  let committed, _retried, checked, violations = run_chaos ~seed:11 ~duration:600.0 ~clients:3 in
  Alcotest.(check bool) "made progress under faults" true (committed > 5);
  Alcotest.(check int) "every committed pair checked" committed checked;
  Alcotest.(check int) "no atomicity violations" 0 violations

let test_chaos_many_seeds () =
  List.iter
    (fun seed ->
      let committed, _, _, violations = run_chaos ~seed ~duration:300.0 ~clients:2 in
      Alcotest.(check int) (Printf.sprintf "seed %d violations" seed) 0 violations;
      Alcotest.(check bool) (Printf.sprintf "seed %d progress" seed) true (committed > 0))
    [ 1; 2; 3; 4; 5 ]

let () =
  Alcotest.run "chaos"
    [
      ( "chaos",
        [
          Alcotest.test_case "atomic pairs under crash churn" `Quick test_chaos_atomic_pairs;
          Alcotest.test_case "five seeds" `Slow test_chaos_many_seeds;
        ] );
    ]
