(* A replicated name service on the discrete-event simulator.

   Five representatives hold a user -> mailbox directory with a 5-3-3
   configuration; a client keeps registering, moving and deregistering users
   while representatives crash and recover underneath it. The example shows
   the availability the paper promises: any two representatives can be down
   without interrupting service, recovery replays the write-ahead log, and a
   recovered (stale) representative never causes a wrong answer.

   Run with: dune exec examples/name_service.exe *)

open Repdir_sim
open Repdir_core
open Repdir_harness

let () =
  let config = Repdir_quorum.Config.simple ~n:5 ~r:3 ~w:3 in
  let world = Shard_world.create ~seed:2026L ~rpc_timeout:40.0 ~config ~groups:1 () in
  let sim = Shard_world.sim world in
  let suite = Shard_world.suite_for_client world 0 0 in
  let say fmt = Printf.printf ("[t=%7.1f] " ^^ fmt ^^ "\n") (Sim.now sim) in

  Sim.spawn sim (fun () ->
      say "registering users";
      List.iter
        (fun (user, box) ->
          match Suite.insert suite user box with
          | Ok () -> say "  + %s -> %s" user box
          | Error `Already_present -> assert false)
        [
          ("alice", "alice@mx1");
          ("bob", "bob@mx1");
          ("carol", "carol@mx2");
          ("dave", "dave@mx2");
        ];

      say "crashing rep0 and rep1 (2 of 5 down; 3-vote quorums still form)";
      Shard_world.crash_rep world ~g:0 0;
      Shard_world.crash_rep world ~g:0 1;

      (match Suite.lookup suite "alice" with
      | Some (_, box) -> say "lookup alice -> %s (despite two crashes)" box
      | None -> assert false);

      (match Suite.update suite "alice" "alice@mx3" with
      | Ok () -> say "moved alice to mx3"
      | Error `Not_present -> assert false);
      ignore (Suite.delete suite "bob");
      say "deregistered bob";

      say "crashing rep2 — only 2 of 5 alive, service must refuse, not lie";
      Shard_world.crash_rep world ~g:0 2;
      (match Suite.lookup suite "alice" with
      | exception Suite.Unavailable _ -> say "lookup alice: UNAVAILABLE (as it must be)"
      | Some _ | None -> assert false);

      say "recovering rep2, rep1, rep0 (write-ahead log replay)";
      Shard_world.recover_rep world ~g:0 2;
      Shard_world.recover_rep world ~g:0 1;
      Shard_world.recover_rep world ~g:0 0;

      (* rep0/rep1 never saw alice's move or bob's departure; version
         numbers protect every quorum that includes them. *)
      (match Suite.lookup suite "alice" with
      | Some (_, box) -> say "lookup alice -> %s (stale replicas outvoted)" box
      | None -> assert false);
      say "lookup bob -> %s"
        (match Suite.lookup suite "bob" with Some _ -> "present (BUG)" | None -> "absent");

      say "final directory state:";
      List.iter
        (fun user ->
          match Suite.lookup suite user with
          | Some (v, box) -> say "  %s -> %s (version %d)" user box v
          | None -> say "  %s -> (none)" user)
        [ "alice"; "bob"; "carol"; "dave" ]);

  Sim.run sim;
  Printf.printf "simulation finished after %d events\n" (Sim.events_executed sim)
