open Repdir_util

module Health = struct
  (* Cheap, local, per-replica gray-failure signal: an EWMA of observed call
     latency and success rate. All state is client-side; nothing is
     exchanged between clients. *)

  type rep_stats = { mutable lat : float; mutable ok_rate : float; mutable samples : int }

  type t = rep_stats array

  (* The EWMA gain; the latency ratio to the peer median that marks an
     outlier; and the observations needed before judging one (gray windows
     are short, so detection must be quick). *)
  let alpha = 0.2
  let outlier_factor = 3.0
  let min_samples = 4

  let create ~n () =
    if n < 1 then invalid_arg "Picker.Health.create: need at least one representative";
    Array.init n (fun _ -> { lat = 0.0; ok_rate = 1.0; samples = 0 })

  let observe t i ~latency ~ok =
    let r = t.(i) in
    if r.samples = 0 then begin
      r.lat <- latency;
      r.ok_rate <- (if ok then 1.0 else 0.0)
    end
    else begin
      r.lat <- r.lat +. (alpha *. (latency -. r.lat));
      r.ok_rate <- r.ok_rate +. (alpha *. ((if ok then 1.0 else 0.0) -. r.ok_rate))
    end;
    r.samples <- r.samples + 1

  let samples t i = t.(i).samples

  (* Median EWMA latency of the *other* sampled representatives: the healthy
     baseline an outlier is judged against. *)
  let peer_median t i =
    let lats =
      Array.to_list t
      |> List.filteri (fun j r -> j <> i && r.samples >= min_samples)
      |> List.map (fun r -> r.lat)
      |> List.sort compare
    in
    match lats with
    | [] -> None
    | _ ->
        let a = Array.of_list lats in
        Some a.(Array.length a / 2)

  let outlier t i =
    let r = t.(i) in
    r.samples >= min_samples
    && (r.ok_rate < 0.5
       ||
       match peer_median t i with
       | None -> false
       | Some m -> r.lat > outlier_factor *. m)
end

type strategy =
  | Random
  | Fixed of int array
  | Locality of { local : int array; remote : int array }
  | Healthy of Health.t

let shuffled_indices rng config =
  let idx = Array.init (Config.n_reps config) (fun i -> i) in
  Rng.shuffle rng idx;
  Array.to_list idx

(* Healthy ordering: uniformly shuffled like Random, then within each
   preference class representatives currently flagged as latency/outcome
   outliers are moved to the back. Outliers are demoted, never excluded —
   when the healthy population cannot reach the quorum the walk falls
   through to them, so termination is exactly Random's. *)
let healthy_order health prefer candidates =
  let preferred, rest = List.partition prefer candidates in
  let demote l =
    let good, bad = List.partition (fun i -> not (Health.outlier health i)) l in
    good @ bad
  in
  demote preferred @ demote rest

(* A key's rendezvous order (Thaler & Ravishankar): every slot ranked by a
   hash of (slot, key), highest first. Raw FNV-1a ranks slots unevenly
   (over 30,000 keys at 3-2-2 one slot was home to 60% of them, another to
   72%), so the hash goes through SplitMix64's finalizer. *)
let home_order key config =
  let mix z k s = Int64.(mul (logxor z (shift_right_logical z s)) k) in
  let weight i =
    let z = Checksum.string (Checksum.int Checksum.init i) key in
    let z = mix (mix z 0xbf58476d1ce4e5b9L 30) 0x94d049bb133111ebL 27 in
    Int64.(logxor z (shift_right_logical z 31))
  in
  List.init (Config.n_reps config) (fun i -> (weight i, i))
  |> List.sort (fun (a, _) (b, _) -> Int64.unsigned_compare b a)
  |> List.map snd

(* Walk the candidates in strategy order, taking every available member
   that still helps some unmet target, until every target is met. *)
let collect_joint ?(prefer = fun _ -> false) ?key strategy rng targets ~available =
  match targets with
  | [] -> invalid_arg "Picker.collect_joint: no targets"
  | (first_config, _) :: rest ->
      let n = Config.n_reps first_config in
      List.iteri
        (fun k (c, _) ->
          if Config.n_reps c <> n then
            invalid_arg
              (Printf.sprintf
                 "Picker.collect_joint: target %d has %d slots, expected %d" (k + 1)
                 (Config.n_reps c) n))
        rest;
      let targets = Array.of_list targets in
      let gathered = Array.make (Array.length targets) 0 in
      let unmet k =
        let _, quorum = targets.(k) in
        gathered.(k) < quorum
      in
      let chosen = ref [] in
      let useful i =
        (* A candidate helps if some still-unmet target gives it votes; zero-
           vote representatives never do. *)
        let help = ref false in
        Array.iteri
          (fun k (c, _) -> if unmet k && Config.votes_of c i > 0 then help := true)
          targets;
        !help
      in
      let consider i =
        if useful i && available i then begin
          chosen := i :: !chosen;
          Array.iteri
            (fun k (c, _) -> gathered.(k) <- gathered.(k) + Config.votes_of c i)
            targets
        end
      in
      let candidates =
        match strategy with
        | Random ->
            (* Uniform among preferred members first, then uniform among the
               rest: quorum *membership* stays random, but members the
               transaction has already touched are reused when they suffice
               — they need no extra termination messages. A key replaces the
               draw by its rendezvous order, so the key's quorums are stable.
               Fixed and Locality orders are deliberate, so preference never
               overrides them. *)
            let order =
              match key with
              | Some key -> home_order key first_config
              | None -> shuffled_indices rng first_config
            in
            let preferred, other = List.partition prefer order in
            preferred @ other
        | Healthy health -> healthy_order health prefer (shuffled_indices rng first_config)
        | Fixed order -> Array.to_list order
        | Locality { local; remote } ->
            (* Local representatives first; the remainder spread uniformly
               over the remote ones, which distributes the non-local write of
               Figure 16. *)
            let remote_order =
              let r = Array.copy remote in
              Rng.shuffle rng r;
              Array.to_list r
            in
            Array.to_list local @ remote_order
      in
      List.iter consider candidates;
      let failed = ref None in
      Array.iteri (fun k _ -> if unmet k && !failed = None then failed := Some k) targets;
      (match !failed with
      | Some k -> Error k
      | None -> Ok (Array.of_list (List.rev !chosen)))

let read_quorum strategy rng config ~available =
  Result.to_option
    (collect_joint strategy rng [ (config, config.Config.read_quorum) ] ~available)

let write_quorum strategy rng config ~available =
  Result.to_option
    (collect_joint strategy rng [ (config, config.Config.write_quorum) ] ~available)
