(* Tests for the version-validated client cache: LRU mechanics, the
   commit-time write-through discipline, epoch flushing, stale-cache
   correction across clients, and the central property — a suite with a
   cache attached is observationally indistinguishable from one without,
   while sending strictly fewer payload bytes on read-heavy workloads. *)

open Repdir_key
open Repdir_txn
open Repdir_rep
open Repdir_quorum
open Repdir_core
module Cache = Repdir_cache.Cache
module Member = Repdir_member.Member

(* --- LRU unit tests ------------------------------------------------------------ *)

let entry v value = Cache.Entry { version = v; value }
let gap v = Cache.Gap { version = v }
let key i = Bound.Key (Key.of_int i)

let test_lru_eviction () =
  let c = Cache.create ~capacity:3 () in
  Cache.store c ~epoch:0 (key 1) (entry 1 "a");
  Cache.store c ~epoch:0 (key 2) (entry 1 "b");
  Cache.store c ~epoch:0 (key 3) (entry 1 "c");
  (* Touch 1 so 2 becomes the eviction candidate. *)
  ignore (Cache.find c ~epoch:0 (key 1));
  Cache.store c ~epoch:0 (key 4) (entry 1 "d");
  Alcotest.(check int) "capacity bound" 3 (Cache.length c);
  Alcotest.(check bool) "1 survives (recently used)" true
    (Cache.find c ~epoch:0 (key 1) <> None);
  Alcotest.(check bool) "2 evicted (coldest)" true (Cache.find c ~epoch:0 (key 2) = None);
  Alcotest.(check int) "one eviction" 1 (Cache.counters c).Cache.evictions

let test_store_overwrites () =
  let c = Cache.create ~capacity:2 () in
  Cache.store c ~epoch:0 (key 1) (entry 1 "a");
  Cache.store c ~epoch:0 (key 1) (entry 2 "a'");
  Alcotest.(check int) "no duplicate line" 1 (Cache.length c);
  match Cache.find c ~epoch:0 (key 1) with
  | Some (Cache.Entry { version; value }) ->
      Alcotest.(check int) "version bumped" 2 version;
      Alcotest.(check string) "value replaced" "a'" value
  | _ -> Alcotest.fail "line missing after overwrite"

let test_invalidate_range_strict () =
  let c = Cache.create () in
  List.iter (fun i -> Cache.store c ~epoch:0 (key i) (entry 1 "v")) [ 1; 2; 3; 4; 5 ];
  (* Strictly inside (2, 4): only key 3 dies; the endpoints survive. *)
  Cache.invalidate_range c ~lo:(key 2) ~hi:(key 4);
  Alcotest.(check bool) "3 dropped" true (Cache.find c ~epoch:0 (key 3) = None);
  Alcotest.(check bool) "2 kept" true (Cache.find c ~epoch:0 (key 2) <> None);
  Alcotest.(check bool) "4 kept" true (Cache.find c ~epoch:0 (key 4) <> None);
  (* Sentinel-bounded range drops everything strictly between. *)
  Cache.invalidate_range c ~lo:Bound.Low ~hi:Bound.High;
  Alcotest.(check int) "all inside (LOW, HIGH) dropped" 0 (Cache.length c)

let test_epoch_flush () =
  let c = Cache.create () in
  Cache.store c ~epoch:0 (key 1) (gap 3);
  Alcotest.(check bool) "visible at its epoch" true (Cache.find c ~epoch:0 (key 1) <> None);
  Alcotest.(check bool) "epoch change flushes" true (Cache.find c ~epoch:1 (key 1) = None);
  Alcotest.(check int) "flush counted" 1 (Cache.counters c).Cache.flushes;
  Alcotest.(check int) "epoch adopted" 1 (Cache.epoch c);
  (* Same epoch again: no further flush. *)
  Cache.store c ~epoch:1 (key 1) (gap 4);
  ignore (Cache.find c ~epoch:1 (key 1));
  Alcotest.(check int) "no spurious flush" 1 (Cache.counters c).Cache.flushes

(* --- suite-level fixtures ------------------------------------------------------- *)

type world = {
  reps : Rep.t array;
  transport : Transport.t;
  txns : Txn.Manager.t;
  config : Config.t;
}

let make_world ?(n = 3) ?(r = 2) ?(w = 2) () =
  let reps = Array.init n (fun i -> Rep.create ~name:(Printf.sprintf "rep%d" i) ()) in
  {
    reps;
    transport = Transport.local reps;
    txns = Txn.Manager.create ();
    config = Config.simple ~n ~r ~w;
  }

let cached_suite ?seed ?batching world =
  let cache = Cache.create () in
  let suite =
    Suite.create ?seed ?batching ~cache ~picker:Picker.Random
      ~config:world.config ~transport:world.transport ~txns:world.txns ()
  in
  (suite, cache)

(* --- write-through at commit ---------------------------------------------------- *)

let test_write_through_on_commit () =
  let world = make_world () in
  let suite, cache = cached_suite world in
  (match Suite.insert suite "k" "v1" with Ok () -> () | Error _ -> Alcotest.fail "insert");
  (* The committed write installed the line; the next lookup validates it
     without fetching the payload. *)
  (match Cache.find cache ~epoch:0 (Bound.Key "k") with
  | Some (Cache.Entry { value = "v1"; _ }) -> ()
  | _ -> Alcotest.fail "commit did not install the written entry");
  (match Suite.lookup suite "k" with
  | Some (_, "v1") -> ()
  | _ -> Alcotest.fail "cached lookup wrong");
  Alcotest.(check int) "validated hit" 1 (Cache.counters cache).Cache.hits

let test_aborted_txn_never_populates () =
  let world = make_world () in
  let suite, cache = cached_suite world in
  (try
     Suite.with_txn suite (fun txn ->
         (match Suite.insert ~txn suite "doomed" "v" with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "insert in txn");
         raise Exit)
   with Exit -> ());
  Alcotest.(check bool) "aborted write left no line" true
    (Cache.find cache ~epoch:0 (Bound.Key "doomed") = None);
  (* And the directory agrees. *)
  Alcotest.(check bool) "key absent" false (Suite.mem suite "doomed")

let test_delete_invalidates_range () =
  let world = make_world () in
  let suite, cache = cached_suite world in
  List.iter
    (fun (k, v) ->
      match Suite.insert suite k v with Ok () -> () | Error _ -> Alcotest.fail "insert")
    [ ("a", "va"); ("b", "vb"); ("c", "vc") ];
  ignore (Suite.lookup suite "b");
  let report = Suite.delete suite "b" in
  Alcotest.(check bool) "was present" true report.Suite.was_present;
  (match Cache.find cache ~epoch:0 (Bound.Key "b") with
  | Some (Cache.Gap _) | None -> ()
  | Some (Cache.Entry _) -> Alcotest.fail "deleted key still cached as present");
  (* Absent answers are served from the gap tag — still correct. *)
  Alcotest.(check bool) "b gone" false (Suite.mem suite "b");
  Alcotest.(check bool) "a stays" true (Suite.mem suite "a")

let test_membership_change_flushes () =
  let world = make_world () in
  let roster = Array.make 3 Member.Active in
  let m0 = Member.initial ~config:world.config ~roster in
  let cache = Cache.create () in
  let suite =
    Suite.create ~cache ~picker:Picker.Random ~config:world.config
      ~transport:world.transport ~txns:world.txns ()
  in
  Suite.set_membership suite m0;
  (match Suite.insert suite "k" "v" with Ok () -> () | Error _ -> Alcotest.fail "insert");
  Alcotest.(check bool) "line cached under epoch 0" true (Cache.length cache > 0);
  let v1 =
    match Member.make_view ~epoch:1 ~config:world.config ~roster with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  Suite.set_membership suite (Member.Stable v1);
  Alcotest.(check int) "epoch advance flushed the cache" 0 (Cache.length cache);
  Alcotest.(check int) "cache adopted the epoch" 1 (Cache.epoch cache);
  (* Reads under the new epoch still work (miss, repopulate). *)
  match Suite.lookup suite "k" with
  | Some (_, "v") -> ()
  | _ -> Alcotest.fail "lookup after epoch change"

(* A membership adopted between an operation and its commit: cache lines
   staged under the old epoch were proven current only against old-view
   quorums, so commit must drop them rather than install them as if they
   had been learned under the new epoch (which would let them survive the
   flush sync_epoch guarantees). *)
let test_mid_txn_epoch_change_drops_staged () =
  let world = make_world () in
  let roster = Array.make 3 Member.Active in
  let m0 = Member.initial ~config:world.config ~roster in
  let cache = Cache.create () in
  let suite =
    Suite.create ~cache ~picker:Picker.Random ~config:world.config
      ~transport:world.transport ~txns:world.txns ()
  in
  Suite.set_membership suite m0;
  (match Suite.insert suite "k" "v" with Ok () -> () | Error _ -> Alcotest.fail "insert");
  Cache.flush cache;
  let v1 =
    match Member.make_view ~epoch:1 ~config:world.config ~roster with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  Suite.with_txn suite (fun txn ->
      (* Misses the flushed cache, so a fresh line is staged under epoch 0. *)
      (match Suite.lookup ~txn suite "k" with
      | Some (_, "v") -> ()
      | _ -> Alcotest.fail "lookup in txn");
      Suite.set_membership suite (Member.Stable v1));
  Alcotest.(check int) "old-epoch staged line dropped at commit" 0 (Cache.length cache);
  Alcotest.(check int) "cache on the new epoch" 1 (Cache.epoch cache);
  (* The key still reads correctly under the new view (miss, repopulate). *)
  match Suite.lookup suite "k" with
  | Some (_, "v") -> ()
  | _ -> Alcotest.fail "lookup after mid-txn epoch change"

(* A deliberately stale cache: client A caches a line, client B (same world,
   own cache) updates the key behind A's back. A's next read must validate,
   detect the version mismatch, and return B's value. *)
let test_stale_cache_corrected_across_clients () =
  let world = make_world () in
  let sa, ca = cached_suite ~seed:1L world in
  let sb, _cb = cached_suite ~seed:2L world in
  (match Suite.insert sa "k" "old" with Ok () -> () | Error _ -> Alcotest.fail "insert");
  (match Suite.update sb "k" "new" with Ok () -> () | Error _ -> Alcotest.fail "update");
  (match Suite.lookup sa "k" with
  | Some (_, "new") -> ()
  | Some (_, v) -> Alcotest.fail (Printf.sprintf "stale value served: %s" v)
  | None -> Alcotest.fail "key lost");
  Alcotest.(check int) "mismatch detected" 1 (Cache.counters ca).Cache.mismatches;
  (* The corrected line now validates clean. *)
  (match Suite.lookup sa "k" with
  | Some (_, "new") -> ()
  | _ -> Alcotest.fail "corrected line wrong");
  Alcotest.(check int) "subsequent hit" 1 (Cache.counters ca).Cache.hits

(* The one-round mechanism: a finishing lookup carries the line's tag, so a
   line another client made stale costs one message per read-quorum member —
   the newer member's payload rides in that round, and the in-round release
   leaves no termination message to send. Each write commits by deferred
   notices; they are delivered before the other client's next request, or
   it would wait on the writer's locks. *)
let test_stale_line_one_round () =
  let world = make_world () in
  let sa, ca = cached_suite ~seed:1L ~batching:true world in
  let sb, _cb = cached_suite ~seed:2L ~batching:true world in
  (match Suite.insert sa "k" "old" with Ok () -> () | Error _ -> Alcotest.fail "insert");
  Suite.flush_notices sa;
  (match Suite.update sb "k" "new" with Ok () -> () | Error _ -> Alcotest.fail "update");
  Suite.flush_notices sb;
  let before = world.transport.Transport.msg_count in
  (match Suite.lookup sa "k" with
  | Some (_, "new") -> ()
  | _ -> Alcotest.fail "stale line not corrected");
  Alcotest.(check int) "one message per quorum member" 2
    (world.transport.Transport.msg_count - before);
  Alcotest.(check int) "one mismatch" 1 (Cache.counters ca).Cache.mismatches

(* The payloads one batched read puts on the wire: [scenario value] sets a
   world up with values as long as [value] and returns the bytes of the read
   it measures, which must answer [Some value]. Run with 10- and 110-byte
   values, the read's bytes differ by 100 per payload sent. *)
let payloads_sent scenario =
  let bytes len = scenario (String.make len 'x') in
  let delta = bytes 110 - bytes 10 in
  if delta mod 100 <> 0 then Alcotest.failf "byte delta %d is not whole payloads" delta;
  delta / 100

let read_bytes world suite key value =
  let before = world.transport.Transport.bytes_count in
  (match Suite.lookup suite key with
  | Some (_, v) when v = value -> ()
  | _ -> Alcotest.fail "wrong value read");
  world.transport.Transport.bytes_count - before

(* Only the payload member sends the value. A fresh client's miss reads the
   key's home quorum, where the first member sends the payload and the
   other its version tag; a line another client made stale is re-fetched
   from one member whatever the random validation quorum. *)
let test_one_payload_per_read () =
  let miss value =
    let world = make_world () in
    let writer, _ = cached_suite ~seed:1L ~batching:true world in
    (match Suite.insert writer "k" value with Ok () -> () | Error _ -> Alcotest.fail "insert");
    Suite.flush_notices writer;
    let reader, cache = cached_suite ~seed:2L ~batching:true world in
    let b = read_bytes world reader "k" value in
    Alcotest.(check int) "a miss" 1 (Cache.counters cache).Cache.misses;
    b
  in
  Alcotest.(check int) "miss: one payload" 1 (payloads_sent miss);
  List.iter
    (fun seed ->
      let stale value =
        let world = make_world () in
        let sa, ca = cached_suite ~seed ~batching:true world in
        let sb, _ = cached_suite ~seed:100L ~batching:true world in
        (match Suite.insert sa "k" (String.make (String.length value) 'o') with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "insert");
        Suite.flush_notices sa;
        (match Suite.update sb "k" value with Ok () -> () | Error _ -> Alcotest.fail "update");
        Suite.flush_notices sb;
        let b = read_bytes world sa "k" value in
        Alcotest.(check int) "a mismatch" 1 (Cache.counters ca).Cache.mismatches;
        b
      in
      Alcotest.(check int)
        (Printf.sprintf "stale line (seed %Ld): one payload" seed)
        1 (payloads_sent stale))
    [ 1L; 2L; 3L; 4L; 5L; 6L ]

(* A key's first home member misses an update while it is down: the write
   lands on the other home member and the standby. Back up, it is the
   payload member of a fresh client's miss and sends the old value, while
   the other home member's tag is newer. The read must not answer from the
   payload it holds: a payload round decides, 4 messages rather than 2. *)
let test_stale_payload_member () =
  let world = make_world () in
  let home = Array.of_list (Picker.home_order "k" world.config) in
  let writer, _ = cached_suite ~seed:1L ~batching:true world in
  (match Suite.insert writer "k" "old" with Ok () -> () | Error _ -> Alcotest.fail "insert");
  Suite.flush_notices writer;
  Rep.crash world.reps.(home.(0));
  (match Suite.update writer "k" "new" with Ok () -> () | Error _ -> Alcotest.fail "update");
  Suite.flush_notices writer;
  Rep.recover world.reps.(home.(0));
  Alcotest.(check (list string)) "the payload member missed the update" [ "old" ]
    (List.map (fun (_, _, v) -> v) (Rep.entries world.reps.(home.(0))));
  let reader, cache = cached_suite ~seed:2L ~batching:true world in
  let before = world.transport.Transport.msg_count in
  (match Suite.lookup reader "k" with
  | Some (_, "new") -> ()
  | Some (_, v) -> Alcotest.failf "served %s" v
  | None -> Alcotest.fail "key lost");
  Alcotest.(check int) "a validation round, then a payload round" 4
    (world.transport.Transport.msg_count - before);
  Alcotest.(check int) "a miss" 1 (Cache.counters cache).Cache.misses;
  Array.iter
    (fun rep ->
      Alcotest.(check int) "no locks held" 0 (Rep.locks_held rep);
      Alcotest.(check int) "no active lease" 0 (Rep.active_txn_count rep))
    world.reps

(* A write decides from versions alone: its read round is tag-only, even
   when the client holds no line for the key. *)
let test_write_reads_versions_only () =
  let world = make_world () in
  let suite, cache = cached_suite world in
  (match Suite.insert suite "k" "v1" with Ok () -> () | Error _ -> Alcotest.fail "insert");
  Cache.flush cache;
  let count f = Array.map (fun rep -> f (Rep.counters rep)) world.reps in
  let lookups = count (fun c -> c.Rep.lookups) in
  let validates = Array.fold_left ( + ) 0 (count (fun c -> c.Rep.validates)) in
  (match Suite.update suite "k" "v2" with Ok () -> () | Error _ -> Alcotest.fail "update");
  Alcotest.(check (array int)) "no payload lookup at any rep" lookups
    (count (fun c -> c.Rep.lookups));
  Alcotest.(check int) "one tag read per read-quorum member" (validates + 2)
    (Array.fold_left ( + ) 0 (count (fun c -> c.Rep.validates)))

(* A line above every representative's version (its write's commit reached
   no representative that still has it): no member can vouch for it, so a
   payload round decides, and nothing is left locked or open anywhere. *)
let test_line_outlived_its_write () =
  List.iter
    (fun batching ->
      let world = make_world () in
      let suite, cache = cached_suite ~batching world in
      (match Suite.insert suite "k" "real" with Ok () -> () | Error _ -> Alcotest.fail "insert");
      Cache.store cache ~epoch:(Cache.epoch cache) (Bound.Key "k")
        (entry 100 "phantom");
      (match Suite.lookup suite "k" with
      | Some (_, "real") -> ()
      | Some (_, v) -> Alcotest.failf "served %s" v
      | None -> Alcotest.fail "key lost");
      Array.iter
        (fun rep ->
          Alcotest.(check int) "no locks held" 0 (Rep.locks_held rep);
          Alcotest.(check int) "nothing in doubt" 0 (Rep.in_doubt_count rep);
          Alcotest.(check int) "no active lease" 0 (Rep.active_txn_count rep))
        world.reps)
    [ false; true ]

(* --- differential: caching is observationally equivalent ------------------------ *)

(* Mirror of test_suite's batching differential: the same workload script
   drives a cached and an uncached world; every observable result and the
   final contents must coincide, versions aside (the [next] arm). Quorum
   choices are deliberately not synchronized.

   With [clients] > 1 each world has that many suites over the same
   representatives, each cached client with its own cache, and the script
   picks the client of every step at random: a line another client's write
   made stale must be corrected, or the cached world answers differently.
   Batched notices are flushed after every step, so no client's request
   waits on another's locks on the local transport.

   With [failovers] a seeded schedule hides one member at a time from
   quorum choice, in both worlds, as test_suite's batching differential
   does: keys fail over to their standby and back, so a read's payload
   member is sometimes stale and a payload round decides. *)
let run_cache_differential ?(clients = 1) ?(failovers = false) ~batching ~seed ~ops () =
  let hidden = ref None in
  let mk cached =
    let world = make_world () in
    let world =
      if not failovers then world
      else
        let up = world.transport.Transport.is_up in
        let is_up i = up i && !hidden <> Some i in
        { world with transport = { world.transport with is_up } }
    in
    let suites =
      Array.init clients (fun c ->
          let cache = if cached then Some (Cache.create ()) else None in
          Suite.create ~batching ?cache
            ~seed:(Int64.of_int ((seed * 11) + (if cached then 1 else 2) + (10 * c)))
            ~picker:Picker.Random ~config:world.config ~transport:world.transport
            ~txns:world.txns ())
    in
    let reader =
      Suite.create ~batching ~seed:(Int64.of_int ((seed * 11) + 5)) ~picker:Picker.Random
        ~config:world.config ~transport:world.transport ~txns:world.txns ()
    in
    (world, suites, reader)
  in
  let world_a, suites_a, reader_a = mk false in
  let world_b, suites_b, reader_b = mk true in
  let all = Array.append suites_a suites_b in
  let rng = Repdir_util.Rng.create (Int64.of_int seed) in
  let schedule = Repdir_util.Rng.create (Int64.of_int (seed + 1)) in
  let universe = Array.init 16 (fun i -> Key.of_int i) in
  let fail step fmt =
    Printf.ksprintf (fun msg -> failwith (Printf.sprintf "step %d: %s" step msg)) fmt
  in
  for step = 1 to ops do
    if failovers then
      hidden :=
        (match !hidden with
        | None when Repdir_util.Rng.int schedule 4 = 0 -> Some (Repdir_util.Rng.int schedule 3)
        | Some _ when Repdir_util.Rng.int schedule 4 = 0 -> None
        | h -> h);
    let c = if clients = 1 then 0 else Repdir_util.Rng.int rng clients in
    let sa = suites_a.(c) and sb = suites_b.(c) in
    (match Repdir_util.Rng.int rng 8 with
    | 0 ->
        let k = Repdir_util.Rng.pick rng universe in
        let v = Printf.sprintf "v%d" step in
        let r s = match Suite.insert s k v with Ok () -> true | Error `Already_present -> false in
        if r sa <> r sb then fail step "insert %s diverged" k
    | 1 ->
        let k = Repdir_util.Rng.pick rng universe in
        let v = Printf.sprintf "u%d" step in
        let r s = match Suite.update s k v with Ok () -> true | Error `Not_present -> false in
        if r sa <> r sb then fail step "update %s diverged" k
    | 2 ->
        let k = Repdir_util.Rng.pick rng universe in
        let r s = (Suite.delete s k).Suite.was_present in
        if r sa <> r sb then fail step "delete %s diverged" k
    | 3 ->
        (* Each world picks its own quorums, so a one-round write's version
           follows its client's history there: the worlds compare the
           successor's key and value, and each world checks its version
           against a lookup of the successor by a reader of its own, which
           leaves the clients' quorum choices as they were. *)
        let k = Repdir_util.Rng.pick rng universe in
        let r s reader =
          Option.map
            (fun (k', ver, v) ->
              Suite.flush_notices s;
              if Suite.lookup reader k' <> Some (ver, v) then
                fail step "next %s: %s disagrees with its lookup" k k';
              (k', v))
            (Suite.next s k)
        in
        if r sa reader_a <> r sb reader_b then fail step "next %s diverged" k
    | 4 ->
        let k1 = Repdir_util.Rng.pick rng universe in
        let k2 = Repdir_util.Rng.pick rng universe in
        let v = Printf.sprintf "t%d" step in
        let r s =
          Suite.with_txn s (fun txn ->
              let inserted =
                match Suite.insert ~txn s k1 v with Ok () -> true | Error _ -> false
              in
              let looked = Option.map snd (Suite.lookup ~txn s k2) in
              let deleted = (Suite.delete ~txn s k2).Suite.was_present in
              (inserted, looked, deleted))
        in
        if r sa <> r sb then fail step "transaction (%s, %s) diverged" k1 k2
    | 5 ->
        (* Forced abort: staged cache lines must be dropped with the txn. *)
        let k = Repdir_util.Rng.pick rng universe in
        let r s =
          try
            Suite.with_txn s (fun txn ->
                ignore (Suite.insert ~txn s k "doomed");
                raise Exit)
          with Exit -> ()
        in
        r sa;
        r sb
    | _ ->
        (* Read-heavy bias: two lookup arms out of eight. *)
        let k = Repdir_util.Rng.pick rng universe in
        let r s = Option.map snd (Suite.lookup s k) in
        if r sa <> r sb then fail step "lookup %s diverged" k);
    if clients > 1 then Array.iter Suite.flush_notices all
  done;
  Array.iter Suite.flush_notices all;
  if Array.exists (fun s -> Suite.pending_notice_count s <> 0) all then
    failwith "notices did not drain";
  if Suite.to_alist suites_a.(0) <> Suite.to_alist suites_b.(0) then
    failwith "final contents diverged";
  Array.iter
    (fun world ->
      Array.iter
        (fun rep ->
          (match Rep.check_invariants rep with Ok () -> () | Error e -> failwith e);
          if Rep.locks_held rep <> 0 then
            failwith (Printf.sprintf "%s leaked locks" (Rep.name rep));
          if Rep.in_doubt_count rep <> 0 then
            failwith (Printf.sprintf "%s left transactions in doubt" (Rep.name rep)))
        world.reps)
    [| world_a; world_b |]
(* No byte assertion here: with tiny values and adversarial write-heavy
   scripts a cold cache's validate-then-fetch can cost more than it saves.
   The byte win is a read-heavy-workload property, checked deterministically
   below. *)

(* Bytes on the wire for pure re-reads: ten 64-byte values inserted, then
   read twenty times each over the local transport. *)
let reread_bytes cached =
  let world = make_world () in
  let cache = if cached then Some (Cache.create ()) else None in
  (* Batching is the realistic operating mode: the read-only release rides
     in-round, so a warm read is pure validation traffic. *)
  let suite =
    Suite.create ?cache ~batching:true ~seed:7L ~picker:Picker.Random
      ~config:world.config ~transport:world.transport ~txns:world.txns ()
  in
  let value = String.make 64 'x' in
  for i = 0 to 9 do
    match Suite.insert suite (Key.of_int i) value with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "insert"
  done;
  let before = world.transport.Transport.bytes_count in
  for _round = 1 to 20 do
    for i = 0 to 9 do
      ignore (Suite.lookup suite (Key.of_int i))
    done
  done;
  world.transport.Transport.bytes_count - before

(* Bytes on the wire for a 90/10 lookup/update mix: 40 keys of 64-byte
   values on the simulated network, two-phase commit plus batching, one
   warming pass over every key, then 2000 measured operations. *)
let mixed_bytes cached =
  let module Sim = Repdir_sim.Sim in
  let module Shard_world = Repdir_harness.Shard_world in
  let module Rng = Repdir_util.Rng in
  let keys = 40 in
  let world =
    Shard_world.create ~seed:1983L ~n_clients:1
      ~config:(Config.simple ~n:3 ~r:2 ~w:2) ~groups:1 ()
  in
  let sim = Shard_world.sim world in
  let cache = if cached then Some (Cache.create ()) else None in
  let suite = Shard_world.suite_for_client ~batching:true ?cache world 0 0 in
  let transport = Suite.transport suite in
  let value i = Printf.sprintf "%064d" i in
  let rng = Rng.create 2083L in
  let before = ref 0 in
  Sim.spawn sim (fun () ->
      for i = 0 to keys - 1 do
        match Suite.insert suite (Key.of_int i) (value i) with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "insert"
      done;
      for i = 0 to keys - 1 do
        ignore (Suite.lookup suite (Key.of_int i))
      done;
      before := transport.Transport.bytes_count;
      for op = 1 to 2_000 do
        let k = Key.of_int (Rng.int rng keys) in
        if Rng.int rng 10 = 0 then ignore (Suite.update suite k (value op))
        else ignore (Suite.lookup suite k)
      done);
  Sim.run sim;
  transport.Transport.bytes_count - !before

(* The headline number, deterministically: warm reads of realistic values
   must shed the payload from the quorum, so the cached path sends at most
   60% of the uncached bytes — on pure re-reads, and on the read-heavy mix
   with writes invalidating lines behind the reads (53.4% there). *)
let test_read_heavy_byte_savings () =
  List.iter
    (fun (name, run) ->
      let uncached = run false and cached = run true in
      if float_of_int cached > 0.6 *. float_of_int uncached then
        Alcotest.failf "%s: cached read path sent %d bytes vs %d uncached (want <= 60%%)" name
          cached uncached)
    [ ("re-reads", reread_bytes); ("90/10 mix", mixed_bytes) ]

let cache_differential ?clients ?failovers ~name ~batching () =
  QCheck.Test.make ~name ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      run_cache_differential ?clients ?failovers ~batching ~seed ~ops:60 ();
      true)

let () =
  Alcotest.run "cache"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction;
          Alcotest.test_case "store overwrites" `Quick test_store_overwrites;
          Alcotest.test_case "invalidate_range strict bounds" `Quick
            test_invalidate_range_strict;
          Alcotest.test_case "epoch flush" `Quick test_epoch_flush;
        ] );
      ( "write-through",
        [
          Alcotest.test_case "installed at commit" `Quick test_write_through_on_commit;
          Alcotest.test_case "aborted txn never populates" `Quick
            test_aborted_txn_never_populates;
          Alcotest.test_case "delete invalidates the coalesced range" `Quick
            test_delete_invalidates_range;
          Alcotest.test_case "membership change flushes" `Quick
            test_membership_change_flushes;
          Alcotest.test_case "mid-txn epoch change drops staged lines" `Quick
            test_mid_txn_epoch_change_drops_staged;
          Alcotest.test_case "stale cache corrected across clients" `Quick
            test_stale_cache_corrected_across_clients;
        ] );
      ( "one round",
        [
          Alcotest.test_case "stale line costs one round" `Quick test_stale_line_one_round;
          Alcotest.test_case "writes read versions only" `Quick test_write_reads_versions_only;
          Alcotest.test_case "line outlived its write" `Quick test_line_outlived_its_write;
          Alcotest.test_case "one payload per read" `Quick test_one_payload_per_read;
          Alcotest.test_case "stale payload member: a payload round" `Quick
            test_stale_payload_member;
        ] );
      ( "bytes",
        [
          Alcotest.test_case "warm reads shed >= 40% of bytes" `Quick
            test_read_heavy_byte_savings;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest
            (cache_differential ~name:"cached == uncached (two-phase commit)" ~batching:false ());
          QCheck_alcotest.to_alcotest
            (cache_differential ~name:"cached == uncached (batching + two-phase)" ~batching:true
               ());
          QCheck_alcotest.to_alcotest
            (cache_differential ~clients:2 ~name:"cached == uncached (two clients)"
               ~batching:true ());
          QCheck_alcotest.to_alcotest
            (cache_differential ~clients:2 ~failovers:true
               ~name:"cached == uncached (two clients, with failovers)" ~batching:true ());
        ] );
    ]
