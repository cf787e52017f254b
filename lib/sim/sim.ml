open Repdir_util
open Effect
open Effect.Deep

type t = {
  mutable now : float;
  mutable seq : int;
  queue : (unit -> unit) Heap.t;
  rng : Rng.t;
  mutable executed : int;
}

type _ Effect.t +=
  | Sleep : (t * float) -> unit Effect.t
  | Suspend : (t * ((unit -> unit) -> unit)) -> unit Effect.t

let create ?(seed = 1L) () =
  { now = 0.0; seq = 0; queue = Heap.create ~dummy:ignore; rng = Rng.create seed; executed = 0 }

let now t = t.now
let rng t = t.rng

let schedule t ~time thunk =
  if time < t.now then invalid_arg "Sim: scheduling into the virtual past";
  let seq = t.seq in
  t.seq <- seq + 1;
  Heap.push t.queue ~time ~seq thunk

let at t time thunk = schedule t ~time thunk

(* Run a process body under the effect handler. Continuations captured here
   carry the handler with them, so resumed processes keep their powers. *)
let execute t body =
  match_with body ()
    {
      retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sleep (t', d) when t' == t ->
              Some
                (fun (k : (a, _) continuation) ->
                  schedule t ~time:(t.now +. d) (fun () -> continue k ()))
          | Suspend (t', register) when t' == t ->
              Some
                (fun (k : (a, _) continuation) ->
                  (* Make the wake-up idempotent: late duplicate wake-ups
                     (e.g. an RPC reply racing its timeout) are dropped. *)
                  let fired = ref false in
                  register (fun () ->
                      if not !fired then begin
                        fired := true;
                        schedule t ~time:t.now (fun () -> continue k ())
                      end))
          | _ -> None);
    }

let spawn t ?name ?at body =
  ignore name;
  let time = match at with None -> t.now | Some time -> time in
  schedule t ~time (fun () -> execute t body)

let step t =
  match Heap.pop t.queue with
  | None -> false
  | Some (time, _, thunk) ->
      t.now <- time;
      t.executed <- t.executed + 1;
      thunk ();
      true

let run ?until t =
  let continue_run () =
    match (until, Heap.peek_time t.queue) with
    | _, None -> false
    | None, Some _ -> true
    | Some limit, Some next -> next <= limit
  in
  while continue_run () do
    ignore (step t)
  done

let sleep t d =
  if d < 0.0 then invalid_arg "Sim.sleep: negative delay";
  perform (Sleep (t, d))

let suspend t register = perform (Suspend (t, register))

let retry t ~every limit ok =
  let within k = match limit with `Until deadline -> t.now < deadline | `Retries n -> k < n in
  let rec go k =
    ok k
    || within k
       && (sleep t every;
           go (k + 1))
  in
  go 0

let events_executed t = t.executed
