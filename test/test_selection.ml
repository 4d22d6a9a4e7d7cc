(* SELECTION / MEDIAN via binary search over fault-tolerant COUNT. *)

open Ftagg
open Helpers

let setup ?(n = 36) ?(max_input = 50) ~seed () =
  let g = Gen.grid n in
  let rng = Prng.create seed in
  let inputs = Params.random_inputs ~rng ~n ~max_input in
  let params = params_of g ~inputs in
  (g, inputs, params)

let test_select_exact_failure_free () =
  let g, inputs, params = setup ~seed:1 () in
  let n = Array.length inputs in
  List.iter
    (fun k ->
      let o =
        Selection.select ~graph:g ~failures:(Failure.none ~n) ~params ~b:50 ~f:2 ~k ~seed:k
      in
      check_int
        (Printf.sprintf "k=%d" k)
        (Selection.kth_smallest (Array.to_list inputs) k)
        o.Selection.value)
    [ 1; 5; 18; 36 ]

let test_median_exact_failure_free () =
  let g, inputs, params = setup ~seed:2 () in
  let n = Array.length inputs in
  let o = Selection.median ~graph:g ~failures:(Failure.none ~n) ~params ~b:50 ~f:2 ~seed:3 in
  check_int "median" (Selection.kth_smallest (Array.to_list inputs) ((n + 1) / 2)) o.Selection.value

let test_probe_count_logarithmic () =
  let g, _, params = setup ~max_input:63 ~seed:3 () in
  let o =
    Selection.select ~graph:g ~failures:(Failure.none ~n:36) ~params ~b:50 ~f:2 ~k:10 ~seed:4
  in
  (* binary search over [0, 63]: exactly 6 probes *)
  check_int "log2 probes" 6 o.Selection.probes

let test_select_interval_under_failures () =
  (* Under failures the result lies between the k-th smallest over all
     inputs and the k-th smallest over the survivors. *)
  let g, inputs, params = setup ~seed:5 () in
  List.iter
    (fun seed ->
      let max_round = 2000 in
      let failures = Failure.random g ~rng:(Prng.create (seed * 17)) ~budget:4 ~max_round in
      let k = 12 in
      let o = Selection.select ~graph:g ~failures ~params ~b:50 ~f:4 ~k ~seed in
      let all_kth = Selection.kth_smallest (Array.to_list inputs) k in
      let survivors = Checker.survivors ~graph:g ~failures ~round:max_round in
      let surv_inputs = List.filteri (fun i _ -> survivors.(i)) (Array.to_list inputs) in
      let surv_kth =
        if k <= List.length surv_inputs then Selection.kth_smallest surv_inputs k
        else params.Params.max_input
      in
      check_true
        (Printf.sprintf "seed %d: %d in [%d, %d]" seed o.Selection.value all_kth surv_kth)
        (o.Selection.value >= all_kth && o.Selection.value <= surv_kth))
    [ 1; 2; 3; 4 ]

let test_select_k_validation () =
  let g, _, params = setup ~seed:6 () in
  Alcotest.check_raises "k >= 1" (Invalid_argument "Selection.select: k must be >= 1")
    (fun () ->
      ignore
        (Selection.select ~graph:g ~failures:(Failure.none ~n:36) ~params ~b:50 ~f:2 ~k:0
           ~seed:1))

let test_kth_smallest_reference () =
  check_int "k=1" 1 (Selection.kth_smallest [ 3; 1; 2 ] 1);
  check_int "k=3" 3 (Selection.kth_smallest [ 3; 1; 2 ] 3);
  Alcotest.check_raises "k too large" (Invalid_argument "Selection.kth_smallest")
    (fun () -> ignore (Selection.kth_smallest [ 1 ] 2))

let test_metrics_accumulate_across_probes () =
  let g, _, params = setup ~seed:7 () in
  let o =
    Selection.select ~graph:g ~failures:(Failure.none ~n:36) ~params ~b:50 ~f:2 ~k:5 ~seed:8
  in
  check_true "positive cc" (Metrics.cc o.Selection.metrics > 0);
  check_true "rounds cover all probes" (o.Selection.rounds > o.Selection.probes * 100)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"selection exact failure-free on random inputs" ~count:20
      (pair (int_range 1 25) small_int)
      (fun (k, seed) ->
        let g = Topo.grid 25 in
        let rng = Prng.create seed in
        let inputs = Params.random_inputs ~rng ~n:25 ~max_input:40 in
        let params = params_of g ~inputs in
        let o =
          Selection.select ~graph:g ~failures:(Failure.none ~n:25) ~params ~b:50 ~f:1 ~k
            ~seed
        in
        o.Selection.value = Selection.kth_smallest (Array.to_list inputs) k);
  ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("select: exact failure-free", test_select_exact_failure_free);
      ("select: median", test_median_exact_failure_free);
      ("select: probe count", test_probe_count_logarithmic);
      ("select: interval under failures", test_select_interval_under_failures);
      ("select: k validation", test_select_k_validation);
      ("select: reference kth", test_kth_smallest_reference);
      ("select: metrics accumulate", test_metrics_accumulate_across_probes);
    ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
