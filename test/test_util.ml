(* Unit tests for ftagg_util: Prng, Bits, Stats, Table. *)

open Ftagg
open Helpers

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check_true "same seed, same stream" (Prng.int64 a = Prng.int64 b)
  done

let test_prng_distinct_seeds () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.int64 a = Prng.int64 b then incr same
  done;
  check_int "different seeds diverge" 0 !same

let test_prng_int_range () =
  let g = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int g 10 in
    check_true "int in [0,10)" (v >= 0 && v < 10)
  done

let test_prng_int_covers () =
  let g = Prng.create 8 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Prng.int g 5) <- true
  done;
  Array.iteri (fun i s -> check_true (Printf.sprintf "value %d drawn" i) s) seen

let test_prng_in_range () =
  let g = Prng.create 9 in
  for _ = 1 to 500 do
    let v = Prng.in_range g 5 9 in
    check_true "in_range inclusive" (v >= 5 && v <= 9)
  done

let test_prng_split_independent () =
  let g = Prng.create 11 in
  let child = Prng.split g in
  (* The child stream must not replay the parent stream. *)
  let parent_next = Prng.int64 g in
  let child_next = Prng.int64 child in
  check_true "split streams differ" (parent_next <> child_next)

let test_prng_copy () =
  let g = Prng.create 12 in
  ignore (Prng.int64 g);
  let h = Prng.copy g in
  check_true "copy replays identically" (Prng.int64 g = Prng.int64 h)

let test_prng_shuffle_permutation () =
  let g = Prng.create 13 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Array.iteri (fun i v -> check_int "shuffle is a permutation" i v) sorted

let test_prng_sample_without_replacement () =
  let g = Prng.create 14 in
  for _ = 1 to 50 do
    let s = Prng.sample_without_replacement g 5 20 in
    check_int "sample size" 5 (List.length s);
    check_int "sample distinct" 5 (List.length (List.sort_uniq compare s));
    List.iter (fun v -> check_true "sample in range" (v >= 0 && v < 20)) s
  done

let test_prng_float_bounds () =
  let g = Prng.create 15 in
  for _ = 1 to 500 do
    let v = Prng.float g 2.5 in
    check_true "float in [0, 2.5)" (v >= 0.0 && v < 2.5)
  done

let test_prng_bool_balanced () =
  let g = Prng.create 16 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Prng.bool g then incr trues
  done;
  check_true "bool roughly fair" (!trues > 400 && !trues < 600)

let test_bits_log2 () =
  check_int "log2_floor 1" 0 (Bits.log2_floor 1);
  check_int "log2_floor 2" 1 (Bits.log2_floor 2);
  check_int "log2_floor 3" 1 (Bits.log2_floor 3);
  check_int "log2_floor 1024" 10 (Bits.log2_floor 1024);
  check_int "log2_ceil 1" 0 (Bits.log2_ceil 1);
  check_int "log2_ceil 2" 1 (Bits.log2_ceil 2);
  check_int "log2_ceil 3" 2 (Bits.log2_ceil 3);
  check_int "log2_ceil 1025" 11 (Bits.log2_ceil 1025)

let test_bits_for () =
  check_int "bits_for 0" 0 (Bits.bits_for 0);
  check_int "bits_for 1" 1 (Bits.bits_for 1);
  check_int "bits_for 2" 1 (Bits.bits_for 2);
  check_int "bits_for 256" 8 (Bits.bits_for 256);
  check_int "bits_for 257" 9 (Bits.bits_for 257);
  check_int "bits_for_value 255" 8 (Bits.bits_for_value 255);
  check_int "bits_for_value 256" 9 (Bits.bits_for_value 256)

let test_bits_pow2 () =
  check_int "pow2 0" 1 (Bits.pow2 0);
  check_int "pow2 10" 1024 (Bits.pow2 10);
  Alcotest.check_raises "pow2 rejects negatives" (Invalid_argument "Bits.pow2") (fun () ->
      ignore (Bits.pow2 (-1)))

let test_stats_summary () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check_int "n" 5 s.Stats.n;
  check_true "mean" (Float.abs (s.Stats.mean -. 3.0) < 1e-9);
  check_true "min" (s.Stats.min = 1.0);
  check_true "max" (s.Stats.max = 5.0);
  check_true "median" (s.Stats.median = 3.0);
  check_true "stddev" (Float.abs (s.Stats.stddev -. sqrt 2.5) < 1e-9)

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check_true "p50" (Stats.percentile 50.0 xs = 50.0);
  check_true "p90" (Stats.percentile 90.0 xs = 90.0);
  check_true "p100" (Stats.percentile 100.0 xs = 100.0)

let test_stats_empty_raises () =
  Alcotest.check_raises "mean of empty" (Invalid_argument "Stats.mean: empty sample")
    (fun () -> ignore (Stats.mean []))

let test_table_render () =
  let t = Table.create ~title:"demo" [ ("a", Table.Left); ("b", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_int_row t [ 7; 42 ];
  let s = Table.render t in
  check_true "title present" (String.length s > 0 && String.sub s 0 4 = "demo");
  check_true "contains row" (String.length s > 20)

let test_table_mismatched_row () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "row arity" (Invalid_argument "Table.add_row: cell count mismatch")
    (fun () -> Table.add_row t [ "x"; "y" ])

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"prng int always within bound" ~count:500
      (pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let g = Prng.create seed in
        let v = Prng.int g bound in
        v >= 0 && v < bound);
    Test.make ~name:"bits_for is monotone" ~count:200
      (pair (int_range 0 100000) (int_range 0 100000))
      (fun (a, b) ->
        let a, b = (min a b, max a b) in
        Bits.bits_for a <= Bits.bits_for b);
    Test.make ~name:"bits_for_value v fits v" ~count:500 (int_range 0 1000000) (fun v ->
        let w = Bits.bits_for_value v in
        v < 1 lsl (max w 1));
  ]

(* The published FNV-1a 64 vectors: the hash behind every job digest,
   derived seed, membership key and ring placement. *)
let test_fnv_vectors () =
  List.iter
    (fun (s, expect) ->
      Alcotest.(check string)
        (Printf.sprintf "fnv1a64 %S" s)
        expect
        (Printf.sprintf "%016Lx" (Ftagg_util.Fnv.hash s)))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c"); ("foobar", "85944171f73967e8") ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("prng: deterministic", test_prng_deterministic);
      ("prng: distinct seeds", test_prng_distinct_seeds);
      ("prng: int range", test_prng_int_range);
      ("prng: int covers range", test_prng_int_covers);
      ("prng: in_range", test_prng_in_range);
      ("prng: split independence", test_prng_split_independent);
      ("prng: copy", test_prng_copy);
      ("prng: shuffle permutes", test_prng_shuffle_permutation);
      ("prng: sample without replacement", test_prng_sample_without_replacement);
      ("prng: float bounds", test_prng_float_bounds);
      ("prng: bool balanced", test_prng_bool_balanced);
      ("bits: log2", test_bits_log2);
      ("bits: bits_for", test_bits_for);
      ("bits: pow2", test_bits_pow2);
      ("stats: summary", test_stats_summary);
      ("stats: percentile", test_stats_percentile);
      ("stats: empty raises", test_stats_empty_raises);
      ("table: render", test_table_render);
      ("table: row arity", test_table_mismatched_row);
      ("fnv: published FNV-1a 64 vectors", test_fnv_vectors);
    ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
