(* Overload and gray-failure bench: the phases and gates described below,
   one line per phase, exit 1 on a missed gate. The paper's tables are
   printed by the repdir subcommands (figure14, figure15, messages, ...).

   Run with: dune exec bench/main.exe *)

open Repdir_key
open Repdir_quorum

let cfg_322 = Config.simple ~n:3 ~r:2 ~w:2

let section title = Printf.printf "\n==== %s ====\n\n%!" title

(* Three phases on identically-seeded simulated worlds, all with the full
   robustness stack armed (admission control, operation deadlines, retry
   budgets, health-ordered quorums, hedged reads):

     A. steady state  — the baseline goodput and fault-free p99 latency;
     B. 2x offered    — twice the client population. Admission pushback and
        retry budgets must keep goodput from collapsing: the gate holds it
        at >= 60% of steady state;
     C. one gray rep  — representative 0 answers ~10x slow (links spiked,
        never down). Health scoring must steer quorums away and hedging
        must cover the residual exposure: the gate holds the p99 at <= 3x
        the fault-free p99.

   Latency is virtual time from a client starting an operation to its
   completion, successful operations only; the first [warmup] time units are
   excluded from the statistics (but not from the run) so the health tables
   score on warm data and phase C measures detection steady state, not the
   cold start the hedge exists to bound. *)

type overload_phase = {
  ph_goodput : float;  (* successful ops per 100 time units, post-warmup *)
  ph_p50 : float;
  ph_p90 : float;
  ph_p99 : float;  (* p99 op latency, successful post-warmup ops *)
  ph_attempted : int;
  ph_succeeded : int;
  ph_written_off : int;  (* operations abandoned as unavailable/expired *)
  ph_hedged : int;
  ph_overload_rejects : int;
  ph_shed_rejects : int;
}

let overload_phase ?(seed = 1983L) ?(duration = 800.0) ?(warmup = 100.0) ~clients ~gray
    () =
  let module Sim = Repdir_sim.Sim in
  let module Net = Repdir_sim.Net in
  let module Sim_world = Repdir_harness.Sim_world in
  let module Rep = Repdir_rep.Rep in
  let open Repdir_core in
  let module Rng = Repdir_util.Rng in
  let config = cfg_322 in
  let n = Config.n_reps config in
  let world =
    Sim_world.create ~seed ~rpc_timeout:10.0 ~rpc_attempts:4 ~rpc_backoff:2.0
      ~two_phase:true ~n_clients:clients ~lease:60.0 ~admission:Rep.default_admission
      ~config ()
  in
  let sim = Sim_world.sim world in
  let health = Picker.Health.create ~n () in
  let suites =
    Array.init clients (fun c ->
        Sim_world.suite_for_client ~health world c)
  in
  if gray then begin
    (* Representative 0 stays up and answers — every message touching it is
       just ~10x slower than the exponential mean. A crash would be easy;
       this is the gray case. *)
    let net = Sim_world.net world in
    let slow = { Net.no_faults with spike = 1.0; spike_factor = 10.0 } in
    for j = 0 to Net.n_nodes net - 1 do
      if j <> 0 then Net.set_link_faults net 0 j slow
    done
  end;
  let budgets = Array.init clients (fun _ -> Suite.Retry_budget.create ()) in
  let attempted = ref 0 and succeeded = ref 0 and written_off = ref 0 in
  let lats = ref [] in
  let measured_ok = ref 0 in
  let key_space = 30 in
  for c = 0 to clients - 1 do
    let rng = Rng.create (Int64.add seed (Int64.of_int (100 + c))) in
    let retry_rng = Rng.create (Int64.add seed (Int64.of_int (200 + c))) in
    let suite = suites.(c) in
    let one_op () =
      incr attempted;
      let key = Key.of_int (Rng.int rng key_space) in
      let value = Printf.sprintf "c%d-v%d-%f" c !attempted (Sim.now sim) in
      let kind = Rng.int rng 4 in
      let t0 = Sim.now sim in
      match
        Suite.with_retries ~attempts:4 ~backoff:2.0 ~budget:budgets.(c)
          ~sleep:(Sim.sleep sim) ~rng:retry_rng (fun () ->
            match kind with
            | 0 -> ignore (Suite.lookup suite key : (_ * string) option)
            | 1 -> ignore (Suite.insert suite key value : (unit, _) result)
            | 2 -> ignore (Suite.update suite key value : (unit, _) result)
            | _ -> ignore (Suite.delete suite key : Suite.delete_report))
      with
      | () ->
          incr succeeded;
          if t0 >= warmup then begin
            lats := (Sim.now sim -. t0) :: !lats;
            incr measured_ok
          end
      | exception (Suite.Unavailable _ | Suite.Deadline_exceeded _ | Repdir_txn.Txn.Abort _)
        ->
          incr written_off
    in
    Sim.spawn sim (fun () ->
        while Sim.now sim < duration do
          one_op ();
          Sim.sleep sim (Rng.exponential rng ~mean:4.0)
        done)
  done;
  Sim.run sim;
  let a = Array.of_list !lats in
  Array.sort compare a;
  let n_lat = Array.length a in
  let pct p = if n_lat = 0 then nan else a.(min (n_lat - 1) (n_lat * p / 100)) in
  let sum f =
    Array.fold_left (fun acc r -> acc + f (Rep.counters r)) 0 (Sim_world.reps world)
  in
  {
    ph_goodput = 100.0 *. float_of_int !measured_ok /. (duration -. warmup);
    ph_p50 = pct 50;
    ph_p90 = pct 90;
    ph_p99 = pct 99;
    ph_attempted = !attempted;
    ph_succeeded = !succeeded;
    ph_written_off = !written_off;
    ph_hedged = Array.fold_left (fun acc s -> acc + Suite.hedged_count s) 0 suites;
    ph_overload_rejects = sum (fun c -> c.Repdir_rep.Rep.overload_rejects);
    ph_shed_rejects = sum (fun c -> c.Repdir_rep.Rep.shed_rejects);
  }

let overload () =
  section "Overload and gray failure: goodput and tail latency (virtual time)";
  let steady = overload_phase ~clients:4 ~gray:false () in
  let doubled = overload_phase ~clients:8 ~gray:false () in
  let gray = overload_phase ~clients:4 ~gray:true () in
  let goodput_ratio = doubled.ph_goodput /. steady.ph_goodput in
  let p99_ratio = gray.ph_p99 /. steady.ph_p99 in
  let line tag p =
    Printf.printf
      "%-12s goodput %6.2f ops/100u  p50 %5.2f p90 %5.2f p99 %6.2f u  (ok %d/%d, written \
       off %d, hedged %d, overload rejects %d, shed %d)\n"
      tag p.ph_goodput p.ph_p50 p.ph_p90 p.ph_p99 p.ph_succeeded p.ph_attempted
      p.ph_written_off p.ph_hedged p.ph_overload_rejects p.ph_shed_rejects
  in
  line "steady:" steady;
  line "2x offered:" doubled;
  line "gray rep0:" gray;
  Printf.printf "goodput under 2x offered: %.0f%% of steady (gate: >= 60%%)\n"
    (100.0 *. goodput_ratio);
  Printf.printf "p99 with one gray rep: %.2fx fault-free (gate: <= 3x)\n%!" p99_ratio;
  let failed = ref false in
  if Float.is_nan goodput_ratio || goodput_ratio < 0.6 then begin
    Printf.eprintf "overload bench FAIL: goodput under 2x offered load %.0f%% of steady < 60%%\n%!"
      (100.0 *. goodput_ratio);
    failed := true
  end;
  if Float.is_nan p99_ratio || p99_ratio > 3.0 then begin
    Printf.eprintf "overload bench FAIL: gray-replica p99 %.2fx fault-free > 3x\n%!" p99_ratio;
    failed := true
  end;
  if !failed then exit 1;
  Printf.printf "overload bench OK\n%!"

let () = overload ()
