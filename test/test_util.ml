(* Tests for lib/util: RNG determinism and statistical sanity, online
   statistics correctness, table rendering, FNV-1a known answers. *)

open Repdir_util

let check_float = Alcotest.(check (float 1e-9))

(* --- Rng ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  Alcotest.(check bool) "different seeds differ" false (Rng.int64 a = Rng.int64 b)

let test_rng_split_independence () =
  let parent = Rng.create 7L in
  let child = Rng.split parent in
  let child_vals = List.init 10 (fun _ -> Rng.int64 child) in
  let parent_vals = List.init 10 (fun _ -> Rng.int64 parent) in
  Alcotest.(check bool) "streams differ" true (child_vals <> parent_vals)

let test_rng_copy () =
  let a = Rng.create 9L in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a) (Rng.int64 b)

let test_rng_int_range () =
  let r = Rng.create 3L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_uniformity () =
  let r = Rng.create 5L in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int r 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      if abs (c - expected) > expected / 10 then
        Alcotest.failf "bucket %d badly skewed: %d vs %d" i c expected)
    buckets

let test_rng_float_range () =
  let r = Rng.create 11L in
  for _ = 1 to 10_000 do
    let v = Rng.float r 1.0 in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_int_invalid () =
  let r = Rng.create 1L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_sample_without_replacement () =
  let r = Rng.create 13L in
  for _ = 1 to 1000 do
    let k = 1 + Rng.int r 5 in
    let n = k + Rng.int r 5 in
    let s = Rng.sample_without_replacement r k n in
    Alcotest.(check int) "count" k (Array.length s);
    let sorted = Array.copy s in
    Array.sort compare sorted;
    for i = 0 to k - 2 do
      Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i + 1))
    done;
    Array.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < n)) s
  done

let test_sample_covers_all () =
  let r = Rng.create 17L in
  let s = Rng.sample_without_replacement r 5 5 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation of 0..4" [| 0; 1; 2; 3; 4 |] sorted

let test_sample_too_many () =
  let r = Rng.create 1L in
  Alcotest.check_raises "k > n"
    (Invalid_argument "Rng.sample_without_replacement: k > n") (fun () ->
      ignore (Rng.sample_without_replacement r 6 5))

let test_shuffle_is_permutation () =
  let r = Rng.create 19L in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_exponential_mean () =
  let r = Rng.create 23L in
  let n = 200_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:4.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 4.0" true (abs_float (mean -. 4.0) < 0.1)

(* --- Zipf ------------------------------------------------------------------ *)

let test_zipf_probabilities_sum_to_one () =
  let z = Zipf.create ~n:50 ~s:1.0 in
  let total = ref 0.0 in
  for i = 0 to 49 do
    total := !total +. Zipf.probability z i
  done;
  check_float "sums to 1" 1.0 !total

let test_zipf_monotone () =
  let z = Zipf.create ~n:20 ~s:1.2 in
  for i = 0 to 18 do
    Alcotest.(check bool) "non-increasing" true
      (Zipf.probability z i >= Zipf.probability z (i + 1))
  done

let test_zipf_uniform_degenerate () =
  let z = Zipf.create ~n:10 ~s:0.0 in
  for i = 0 to 9 do
    Alcotest.(check (float 1e-9)) "uniform" 0.1 (Zipf.probability z i)
  done

let test_zipf_sampling_matches_pmf () =
  let z = Zipf.create ~n:10 ~s:1.0 in
  let rng = Rng.create 31L in
  let counts = Array.make 10 0 in
  let n = 200_000 in
  for _ = 1 to n do
    let i = Zipf.sample z rng in
    counts.(i) <- counts.(i) + 1
  done;
  for i = 0 to 9 do
    let expected = Zipf.probability z i *. float_of_int n in
    let got = float_of_int counts.(i) in
    if abs_float (got -. expected) > (expected *. 0.06) +. 50.0 then
      Alcotest.failf "rank %d: %f vs expected %f" i got expected
  done

let test_zipf_rejects_bad_args () =
  (try
     ignore (Zipf.create ~n:0 ~s:1.0);
     Alcotest.fail "n=0 accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Zipf.create ~n:5 ~s:(-1.0));
    Alcotest.fail "negative s accepted"
  with Invalid_argument _ -> ()

(* --- Stats ----------------------------------------------------------------- *)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check int) "count" 0 (Stats.count s);
  check_float "mean" 0.0 (Stats.mean s);
  check_float "stddev" 0.0 (Stats.stddev s)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_float "mean" 5.0 (Stats.mean s);
  check_float "stddev (population)" 2.0 (Stats.stddev s);
  check_float "max" 9.0 (Stats.max s);
  check_float "min" 2.0 (Stats.min s);
  check_float "total" 40.0 (Stats.total s);
  Alcotest.(check int) "count" 8 (Stats.count s)

let test_stats_single () =
  let s = Stats.create () in
  Stats.add s 3.5;
  check_float "mean" 3.5 (Stats.mean s);
  check_float "stddev" 0.0 (Stats.stddev s)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
  let xs = [ 1.0; 2.0; 3.0 ] and ys = [ 10.0; 20.0; 30.0; 40.0 ] in
  List.iter (Stats.add a) xs;
  List.iter (Stats.add b) ys;
  List.iter (Stats.add whole) (xs @ ys);
  let m = Stats.merge a b in
  Alcotest.(check int) "count" (Stats.count whole) (Stats.count m);
  check_float "mean" (Stats.mean whole) (Stats.mean m);
  Alcotest.(check (float 1e-6)) "variance" (Stats.variance whole) (Stats.variance m);
  check_float "max" (Stats.max whole) (Stats.max m)

let test_stats_merge_empty () =
  let a = Stats.create () and b = Stats.create () in
  Stats.add a 5.0;
  let m1 = Stats.merge a b and m2 = Stats.merge b a in
  check_float "merge with empty right" 5.0 (Stats.mean m1);
  check_float "merge with empty left" 5.0 (Stats.mean m2)

let stats_matches_naive =
  QCheck.Test.make ~name:"stats matches naive computation" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let var = List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. n in
      abs_float (Stats.mean s -. mean) < 1e-6
      && abs_float (Stats.variance s -. var) < 1e-3
      && Stats.max s = List.fold_left Float.max neg_infinity xs)

(* --- Table ------------------------------------------------------------------ *)

let test_table_render () =
  let t = Table.create ~header:[ "config"; "avg"; "max" ] () in
  Table.add_row t [ "3-2-2"; "1.33"; "9" ];
  Table.add_row t [ "5-3-3"; "2.10"; "12" ];
  let out = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length out > 0 && String.sub out 0 6 = "config");
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "line count (header, rule, 2 rows, trailing)" 5 (List.length lines)

let test_table_alignment () =
  let t = Table.create ~header:[ "a"; "b" ] () in
  Table.add_row t [ "xx"; "1" ];
  let out = Table.render t in
  (* Right-aligned numeric column: the "1" should be preceded by a space
     filling the width of header "b"... header width is 1, cell width 1, so no
     padding; check the left column instead. *)
  Alcotest.(check bool) "left column padded" true
    (List.exists (fun l -> l = "xx  1") (String.split_on_char '\n' out))

let test_table_short_row_padded () =
  let t = Table.create ~header:[ "a"; "b"; "c" ] () in
  Table.add_row t [ "just-a" ];
  let out = Table.render t in
  Alcotest.(check bool) "renders" true (String.length out > 0)

let test_table_too_long_row () =
  let t = Table.create ~header:[ "a" ] () in
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Table.add_row: more cells than header columns") (fun () ->
      Table.add_row t [ "x"; "y" ])

(* --- Checksum ------------------------------------------------------------- *)

let test_fnv1a_known_answers () =
  (* Published FNV-1a 64-bit test vectors. *)
  List.iter
    (fun (s, h) -> Alcotest.(check int64) (Printf.sprintf "fnv1a %S" s) h (Checksum.fnv1a s))
    [ ("", 0xcbf29ce484222325L); ("a", 0xaf63dc4c8601ec8cL); ("foobar", 0x85944171f73967e8L) ]

let test_checksum_int_is_le_bytes () =
  (* [int] folds exactly the 8 little-endian bytes of the value. *)
  List.iter
    (fun n ->
      let bytes = String.init 8 (fun i -> Char.chr ((n lsr (i * 8)) land 0xff)) in
      Alcotest.(check int64) (Printf.sprintf "int %d" n) (Checksum.string Checksum.init bytes)
        (Checksum.int Checksum.init n))
    [ 0; 1; 255; 256; 123_456_789; max_int; min_int; -1 ]

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int uniformity" `Slow test_rng_int_uniformity;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int invalid bound" `Quick test_rng_int_invalid;
          Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
          Alcotest.test_case "sample covers all" `Quick test_sample_covers_all;
          Alcotest.test_case "sample k > n" `Quick test_sample_too_many;
          Alcotest.test_case "shuffle is permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "probabilities sum to 1" `Quick test_zipf_probabilities_sum_to_one;
          Alcotest.test_case "monotone pmf" `Quick test_zipf_monotone;
          Alcotest.test_case "uniform degenerate" `Quick test_zipf_uniform_degenerate;
          Alcotest.test_case "sampling matches pmf" `Slow test_zipf_sampling_matches_pmf;
          Alcotest.test_case "rejects bad args" `Quick test_zipf_rejects_bad_args;
        ] );
      ( "stats",
        [
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "single" `Quick test_stats_single;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "merge with empty" `Quick test_stats_merge_empty;
          QCheck_alcotest.to_alcotest stats_matches_naive;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "fnv1a known answers" `Quick test_fnv1a_known_answers;
          Alcotest.test_case "int folds little-endian bytes" `Quick test_checksum_int_is_le_bytes;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "short row padded" `Quick test_table_short_row_padded;
          Alcotest.test_case "too long row" `Quick test_table_too_long_row;
        ] );
    ]
