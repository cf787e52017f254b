open Repdir_key
open Repdir_quorum
module Rep = Repdir_rep.Rep

(* Quiesce-time replica scrubber: global invariants over a settled suite of
   representatives. Per-representative structure (entry+gap tiling of
   [LOW, HIGH], live map = committed WAL replay) is delegated to
   {!Rep.scrub}; this module adds the cross-replica checks the paper's
   quorum argument rests on:

   - no residue: zero granted locks, queued lock waiters, live leases, or
     in-doubt transactions anywhere once the campaign has quiesced;
   - same version, same value: two representatives holding a key at the same
     entry version must agree on its value (any two write quorums
     intersect, so a version number is written once);
   - quorum intersection: for *every* set of representatives whose votes
     reach the read quorum, the highest-versioned answer for every key known
     anywhere equals the global highest-versioned answer — i.e. every
     committed write (and every committed delete, via dominating gap
     versions) is readable from every read quorum. Ghost copies left on
     minority members are exactly what this sweep vindicates or convicts. *)

(* What one representative answers for each of [keys] (sorted, distinct)
   without running a transaction: the entry's version and value, or the
   version of the gap covering it. One merge walk down the sorted entries
   and gaps, where the head gap is the one below the head entry. *)
let answers_of rep keys =
  let cursor = ref (Rep.entries rep, Rep.gaps rep) in
  let rec seek key = function
    | (k, _, _) :: es, _ :: gs when Key.compare k key < 0 -> seek key (es, gs)
    | c -> c
  in
  Array.map
    (fun key ->
      cursor := seek key !cursor;
      match !cursor with
      | (k, v, x) :: _, _ when Key.compare k key = 0 -> (v, Some x)
      | _, (_, _, v) :: _ -> (v, None)
      | _, [] -> (Version.lowest, None))
    keys

(* Every index subset whose votes reach [quorum]; n is small (the paper's
   suites are 3-7 representatives), so enumeration is exact and cheap. *)
let quorums ~votes ~quorum =
  let n = Array.length votes in
  let rec go i members weight =
    if weight >= quorum then [ List.rev members ]
    else if i = n then []
    else go (i + 1) (i :: members) (weight + votes.(i)) @ go (i + 1) members weight
  in
  go 0 [] 0

let best answers =
  List.fold_left
    (fun acc (v, x) ->
      match acc with Some (bv, _) when Version.compare bv v >= 0 -> acc | _ -> Some (v, x))
    None answers

let pp_answer ppf = function
  | Some (v, Some value) -> Format.fprintf ppf "%a=%s" Version.pp v value
  | Some (v, None) -> Format.fprintf ppf "absent@%a" Version.pp v
  | None -> Format.pp_print_string ppf "no answer"

let run ?expected_epoch ~(config : Config.t) (reps : Rep.t array) : string list =
  let problems = ref [] in
  let add fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  Array.iter
    (fun rep ->
      if Rep.is_crashed rep then add "%s: still crashed at quiesce" (Rep.name rep)
      else begin
        List.iter (fun p -> problems := p :: !problems) (Rep.scrub rep);
        let held = Rep.locks_held rep
        and waiting = Rep.lock_waiters rep
        and indoubt = Rep.in_doubt_count rep
        and leases = Rep.active_txn_count rep in
        if held > 0 then add "%s: %d orphan locks at quiesce" (Rep.name rep) held;
        if waiting > 0 then add "%s: %d orphan lock waiters at quiesce" (Rep.name rep) waiting;
        if indoubt > 0 then add "%s: %d in-doubt transactions at quiesce" (Rep.name rep) indoubt;
        if leases > 0 then add "%s: %d live leases at quiesce" (Rep.name rep) leases
      end)
    reps;
  let alive = Array.for_all (fun r -> not (Rep.is_crashed r)) reps in
  if alive then begin
    (* Single agreed membership epoch: a settled suite must not leave two
       representatives fencing at different configurations (a reconfiguration
       that half-finished). Campaigns without dynamic membership hold every
       epoch at 0, which agrees trivially. *)
    let epochs = Array.map Rep.epoch reps in
    Array.iteri
      (fun i e ->
        if e <> epochs.(0) then
          add "%s: membership epoch %d disagrees with %s's epoch %d at quiesce"
            (Rep.name reps.(i)) e (Rep.name reps.(0)) epochs.(0))
      epochs;
    (match expected_epoch with
    | Some expected ->
        Array.iteri
          (fun i e ->
            if e <> expected then
              add "%s: membership epoch %d at quiesce, expected %d" (Rep.name reps.(i)) e
                expected)
          epochs
    | None -> ());
    (* Candidate keys: everything any representative has an entry for —
       this includes ghost copies whose committed fate was deletion. *)
    let keys =
      Array.to_list reps
      |> List.concat_map (fun rep -> List.map (fun (k, _, _) -> k) (Rep.entries rep))
      |> List.sort_uniq Key.compare |> Array.of_list
    in
    let answers = Array.map (fun rep -> answers_of rep keys) reps in
    let at ki = Array.to_list (Array.map (fun a -> a.(ki)) answers) in
    (* Same version, same value. *)
    Array.iteri
      (fun ki key ->
        let entries =
          List.concat
            (List.mapi
               (fun r -> function v, Some value -> [ (Rep.name reps.(r), v, value) ] | _, None -> [])
               (at ki))
        in
        List.iter
          (fun (n1, v1, x1) ->
            List.iter
              (fun (n2, v2, x2) ->
                if Version.compare v1 v2 = 0 && String.compare x1 x2 <> 0 && n1 < n2 then
                  add "key %a: %s and %s both hold version %a with different values (%s vs %s)"
                    Key.pp key n1 n2 Version.pp v1 x1 x2)
              entries)
          entries)
      keys;
    (* Quorum intersection. *)
    let rqs = quorums ~votes:config.votes ~quorum:config.read_quorum in
    Array.iteri
      (fun ki key ->
        let global = best (at ki) in
        List.iter
          (fun q ->
            let quorum_view = best (List.map (fun i -> answers.(i).(ki)) q) in
            let agrees =
              match (global, quorum_view) with
              | None, None -> true
              | Some (_, gx), Some (_, qx) -> gx = qx
              | _ -> false
            in
            if not agrees then
              add "key %a: read quorum {%s} answers %a but the global latest is %a" Key.pp key
                (String.concat "," (List.map string_of_int q))
                pp_answer quorum_view pp_answer global)
          rqs)
      keys
  end
  else add "scrub incomplete: crashed representatives prevent the quorum sweep";
  List.rev !problems
