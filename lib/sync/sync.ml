open Repdir_key
open Repdir_util
open Repdir_txn
open Repdir_rep
open Repdir_sim
module Gm = Repdir_gapmap.Gapmap_intf

exception Unreachable of string

exception Session_failed of string

type peer = {
  p_index : int;
  p_name : string;
  p_incarnation : unit -> int;
  p_call : 'r. (Rep.t -> 'r) -> 'r;
}

type config = { period : float; leaf_entries : int }

let default_config = { period = 200.0; leaf_entries = 8 }

(* Fan-out when recursing into a digest mismatch. *)
let arity = 4

type counters = {
  mutable rounds : int;
  mutable sessions : int;
  mutable sessions_failed : int;
  mutable digest_rpcs : int;
  mutable pull_rpcs : int;
  mutable entries_sent : int;
  mutable entries_installed : int;
  mutable entries_updated : int;
  mutable entries_deleted : int;
  mutable gaps_raised : int;
  mutable ghosts_kept : int;
}

type t = {
  config : config;
  peers : peer array;
  txns : Txn.Manager.t;
  rng : Rng.t;
  mark_senior : Txn.id -> bool -> unit;
  mutable enabled : bool;
  mutable stopped : bool;
  counters : counters;
}

let create ?(config = default_config) ?(seed = 0x5a11c_aa7L) ?(mark_senior = fun _ _ -> ())
    ~peers ~txns () =
  if config.leaf_entries < 1 then invalid_arg "Sync.create: leaf_entries must be >= 1";
  if config.period <= 0.0 then invalid_arg "Sync.create: period must be positive";
  {
    config;
    peers;
    txns;
    rng = Rng.create seed;
    mark_senior;
    enabled = true;
    stopped = false;
    counters =
      {
        rounds = 0;
        sessions = 0;
        sessions_failed = 0;
        digest_rpcs = 0;
        pull_rpcs = 0;
        entries_sent = 0;
        entries_installed = 0;
        entries_updated = 0;
        entries_deleted = 0;
        gaps_raised = 0;
        ghosts_kept = 0;
      };
  }

let counters t = t.counters
let set_enabled t on = t.enabled <- on
let stop t = t.stopped <- true

(* --- one directed session ----------------------------------------------------- *)

(* [dst] pulls what it is missing from [src]. Both sides work inside one
   transaction: digests and transfers are served under RepLookup locks at the
   source, merges applied under RepModify locks at the destination, so the
   session serializes against client transactions like any other 2PL
   participant (the shared lock group detects cross-rep deadlocks, which
   surface as a Txn.Abort here and simply fail the session).

   Incarnation fencing: a peer that restarts mid-session has lost the
   session's locks and undo state, so any evidence of a changed incarnation
   fails the session before it can commit half-applied work — the same rule
   the suite applies to client transactions. *)
(* The digest-walk of one directed [src -> dst] reconciliation, inside the
   caller's transaction. Shared by two-peer {!session}s and the multi-peer
   {!converge} mega-session, which runs several walks under one
   transaction. *)
let directed_walk ?(lo = Bound.Low) ?(hi = Bound.High) t ~txn ~fence ~(src : peer)
    ~(dst : peer) =
  let c = t.counters in
  let add (a : Gm.applied) =
    c.entries_installed <- c.entries_installed + a.installed;
    c.entries_updated <- c.entries_updated + a.updated;
    c.entries_deleted <- c.entries_deleted + a.deleted;
    c.gaps_raised <- c.gaps_raised + a.gaps_raised;
    c.ghosts_kept <- c.ghosts_kept + a.ghosts_kept
  in
  let pull lo hi =
    let tr = src.p_call (fun rep -> Rep.pull_range rep ~txn ~lo ~hi) in
    fence ();
    c.pull_rpcs <- c.pull_rpcs + 1;
    c.entries_sent <-
      c.entries_sent + List.length tr.Gm.t_items
      + (match tr.Gm.t_hi_state with Gm.Hi_entry _ -> 1 | _ -> 0);
    let applied = dst.p_call (fun rep -> Rep.apply_range rep ~txn tr) in
    fence ();
    add applied
  in
  let rec walk lo hi =
    let d_src = src.p_call (fun rep -> Rep.digest_range rep ~txn ~lo ~hi) in
    fence ();
    let d_dst = dst.p_call (fun rep -> Rep.digest_range rep ~txn ~lo ~hi) in
    fence ();
    c.digest_rpcs <- c.digest_rpcs + 2;
    if Int64.equal d_src.Gm.hash d_dst.Gm.hash && d_src.Gm.n_entries = d_dst.Gm.n_entries
    then ()
    else if max d_src.Gm.n_entries d_dst.Gm.n_entries <= t.config.leaf_entries then
      pull lo hi
    else begin
      let cuts =
        src.p_call (fun rep -> Rep.split_range rep ~txn ~lo ~hi ~arity)
      in
      fence ();
      match cuts with
      | [] -> pull lo hi (* the source cannot subdivide: transfer directly *)
      | cuts ->
          let rec over = function
            | a :: (b :: _ as rest) ->
                walk a b;
                over rest
            | _ -> ()
          in
          over ((lo :: cuts) @ [ hi ])
    end
  in
  walk lo hi

let session ?lo ?hi t ~(src : peer) ~(dst : peer) =
  let c = t.counters in
  c.sessions <- c.sessions + 1;
  let txn = Txn.Manager.begin_txn t.txns in
  let src_inc = src.p_incarnation () and dst_inc = dst.p_incarnation () in
  let fence () =
    if src.p_incarnation () <> src_inc || dst.p_incarnation () <> dst_inc then
      raise (Session_failed "peer restarted mid-session")
  in
  match
    directed_walk ?lo ?hi t ~txn ~fence ~src ~dst;
    fence ();
    (* The destination holds the writes; commit it first so a failure between
       the two commits can only leave the read-only source to abort. *)
    dst.p_call (fun rep -> Rep.commit rep ~txn);
    src.p_call (fun rep -> Rep.commit rep ~txn)
  with
  | () ->
      Txn.Manager.commit t.txns txn;
      true
  | exception e ->
      c.sessions_failed <- c.sessions_failed + 1;
      (* Best-effort release at both peers; a crashed peer has already lost
         its locks with the rest of its volatile state. *)
      (try dst.p_call (fun rep -> Rep.abort rep ~txn) with _ -> ());
      (try src.p_call (fun rep -> Rep.abort rep ~txn) with _ -> ());
      Txn.Manager.abort t.txns txn;
      (match e with
      | Unreachable _ | Session_failed _ | Rep.Crashed _ | Txn.Abort _ -> ()
      | e -> raise e);
      false

let peer_by_index t i =
  match Array.to_list t.peers |> List.find_opt (fun p -> p.p_index = i) with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Sync: no peer with index %d" i)

let session_between ?lo ?hi t ~src ~dst =
  session ?lo ?hi t ~src:(peer_by_index t src) ~dst:(peer_by_index t dst)

(* --- multi-peer convergence (the joiner catch-up mega-session) ------------------ *)

(* One transaction that makes every participant's map equal: pull each
   peer's divergence onto the hub (the hub then dominates everyone under the
   version-monotone merge), push the hub back onto each peer (merging with a
   superset of yourself makes you exactly that superset), then read every
   root digest while the transaction still holds the whole key space locked
   at every participant. The digests are therefore an *atomic* equality
   gate: live client traffic either serialized before the session (and is
   included) or blocks until it commits. The promotion rule for a joining
   representative — "root digest equals its peers' before the epoch bump" —
   needs exactly this; a sequence of pairwise sessions cannot provide it,
   because peers keep diverging behind the sequence's back.

   The price of locking everything everywhere is paid in deadlocks against
   client transactions; they surface as [Txn.Abort], fail the session
   cleanly, and the driver retries. *)
let converge t ~hub ~among =
  let hub_p = peer_by_index t hub in
  let others = List.filter (fun i -> i <> hub) among |> List.map (peer_by_index t) in
  if others = [] then invalid_arg "Sync.converge: need at least one peer besides the hub";
  let c = t.counters in
  c.sessions <- c.sessions + 1;
  let participants = hub_p :: others in
  let txn = Txn.Manager.begin_txn t.txns in
  (* Locking the whole key space at every participant for a long session
     means closing waits-for cycles against short client transactions
     constantly; as the requester-is-victim default would abort this session
     every time, it runs as a senior transaction and wounds the (retrying)
     clients instead. *)
  t.mark_senior txn true;
  let incs = List.map (fun p -> (p, p.p_incarnation ())) participants in
  (* The walks leave every participant but the current pair idle, and an
     untouched participant's transaction lease expires — unilaterally
     aborting the session from under us. Heartbeat all participants every few
     RPCs (the fence runs after each one) so every lease stays renewed for as
     long as the session makes progress. *)
  let rpcs = ref 0 in
  let fence () =
    if List.exists (fun (p, i0) -> p.p_incarnation () <> i0) incs then
      raise (Session_failed "peer restarted mid-session");
    incr rpcs;
    if !rpcs mod 8 = 0 then
      List.iter (fun p -> p.p_call (fun rep -> Rep.keepalive rep ~txn)) participants
  in
  match
    List.iter (fun p -> directed_walk t ~txn ~fence ~src:p ~dst:hub_p) others;
    List.iter (fun p -> directed_walk t ~txn ~fence ~src:hub_p ~dst:p) others;
    let digests =
      List.map (fun p -> (p.p_index, p.p_call (fun rep -> Rep.root_digest rep))) participants
    in
    fence ();
    (* All participants hold writes; any commit that fails leaves a
       convergent partial merge (never a lost update), and the caller
       retries the whole session. *)
    List.iter (fun p -> p.p_call (fun rep -> Rep.commit rep ~txn)) participants;
    digests
  with
  | digests ->
      t.mark_senior txn false;
      Txn.Manager.commit t.txns txn;
      Some digests
  | exception e ->
      t.mark_senior txn false;
      c.sessions_failed <- c.sessions_failed + 1;
      List.iter
        (fun p -> try p.p_call (fun rep -> Rep.abort rep ~txn) with _ -> ())
        participants;
      Txn.Manager.abort t.txns txn;
      (match e with
      | Unreachable _ | Session_failed _ | Rep.Crashed _ | Txn.Abort _ -> ()
      | e -> raise e);
      None

let digests_equal = function
  | [] -> true
  | (_, d) :: rest ->
      List.for_all
        (fun (_, d') ->
          Int64.equal d.Gm.hash d'.Gm.hash && d.Gm.n_entries = d'.Gm.n_entries)
        rest

(* --- rounds -------------------------------------------------------------------- *)

let random_pair t =
  let n = Array.length t.peers in
  if n < 2 then None
  else begin
    let i = Rng.int t.rng n in
    let j = (i + 1 + Rng.int t.rng (n - 1)) mod n in
    Some (t.peers.(i), t.peers.(j))
  end

let round t =
  t.counters.rounds <- t.counters.rounds + 1;
  match random_pair t with
  | None -> ()
  | Some (a, b) ->
      (* Both directions, so one round fully reconciles the chosen pair. *)
      ignore (session t ~src:a ~dst:b);
      ignore (session t ~src:b ~dst:a)

let round_all_pairs t =
  t.counters.rounds <- t.counters.rounds + 1;
  let n = Array.length t.peers in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then ignore (session t ~src:t.peers.(i) ~dst:t.peers.(j))
    done
  done

let run t sim =
  Sim.spawn sim ~name:"sync-actor" (fun () ->
      let rec loop () =
        if not t.stopped then begin
          (* Jitter the period so the actor does not phase-lock with
             periodic client traffic. *)
          Sim.sleep sim (t.config.period *. (0.75 +. (0.5 *. Rng.float t.rng 1.0)));
          if not t.stopped then begin
            if t.enabled then round t;
            loop ()
          end
        end
      in
      loop ())
