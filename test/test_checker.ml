(* The ground-truth checker itself: correctness sets, critical-failure
   windows, LFC detection. *)

open Ftagg
open Helpers

let test_correctness_sets_failure_free () =
  let g = Gen.path 5 in
  let inputs = default_inputs 5 in
  let base, optional =
    Checker.correctness_sets ~graph:g ~failures:(Failure.none ~n:5) ~end_round:100 ~inputs
  in
  check_int "all in base" 5 (List.length base);
  check_int "none optional" 0 (List.length optional)

let test_correctness_sets_crash () =
  let g = Gen.path 5 in
  let inputs = default_inputs 5 in
  let failures = Failure.of_list ~n:5 [ (4, 50) ] in
  let base, optional =
    Checker.correctness_sets ~graph:g ~failures ~end_round:100 ~inputs
  in
  check_int "4 in base" 4 (List.length base);
  check_true "node 4's input optional" (optional = [ 5 ])

let test_correctness_sets_disconnection () =
  (* killing node 2 of a path also disconnects 3 and 4 *)
  let g = Gen.path 5 in
  let inputs = default_inputs 5 in
  let failures = Failure.of_list ~n:5 [ (2, 50) ] in
  let base, optional =
    Checker.correctness_sets ~graph:g ~failures ~end_round:100 ~inputs
  in
  check_true "base is 0,1" (List.sort compare base = [ 1; 2 ]);
  check_int "three optional" 3 (List.length optional)

let test_correctness_sets_before_crash () =
  (* a crash after end_round does not count *)
  let g = Gen.path 5 in
  let inputs = default_inputs 5 in
  let failures = Failure.of_list ~n:5 [ (2, 500) ] in
  let base, _ = Checker.correctness_sets ~graph:g ~failures ~end_round:100 ~inputs in
  check_int "still all alive" 5 (List.length base)

let test_result_correct_bounds () =
  let g = Gen.path 4 in
  let inputs = default_inputs 4 in
  let params = params_of g ~inputs in
  let failures = Failure.of_list ~n:4 [ (3, 10) ] in
  (* base = {1,2,3}, optional = {4}: valid sums are 6..10 *)
  List.iter
    (fun (v, ok) ->
      check_bool (Printf.sprintf "sum %d" v) ok
        (Checker.result_correct ~graph:g ~failures ~end_round:50 ~params v))
    [ (5, false); (6, true); (8, true); (10, true); (11, false) ]

(* Build an agg trace by running AGG for real. *)
let trace_of g ~t ~failures ~seed =
  let n = Graph.n g in
  let params = params_of ~t g ~inputs:(default_inputs n) in
  let o = Run.agg ~graph:g ~failures ~params ~seed () in
  (o.Run.trace, params)

let test_critical_failure_window () =
  let g = Gen.path 8 in
  let params = params_of ~t:2 g ~inputs:(default_inputs 8) in
  let cd = Params.cd params in
  (* node 3 at level 3: ack at phase round 6, action at 3cd+2-3 *)
  let in_window = (2 * 3) + 5 in
  let tr, _ = trace_of g ~t:2 ~failures:(Failure.of_list ~n:8 [ (3, in_window) ]) ~seed:1 in
  check_true "critical" (List.mem 3 (Checker.critical_failures tr));
  (* before the ack: not critical *)
  let tr, _ = trace_of g ~t:2 ~failures:(Failure.of_list ~n:8 [ (3, 2) ]) ~seed:2 in
  check_true "too early" (not (List.mem 3 (Checker.critical_failures tr)));
  (* after the action round: not critical *)
  let tr, _ =
    trace_of g ~t:2 ~failures:(Failure.of_list ~n:8 [ (3, (3 * cd) + 2) ]) ~seed:3
  in
  check_true "too late" (not (List.mem 3 (Checker.critical_failures tr)))

let test_lfc_requires_live_descendant () =
  (* chain at the end of a path: descendants all dead/disconnected => no LFC *)
  let g = Gen.path 12 in
  let tr, params = trace_of g ~t:3 ~failures:(Failure.chain ~n:12 ~first:1 ~len:3 ~round:60) ~seed:4 in
  check_true "path chain disconnects: no LFC"
    (not (Checker.has_lfc tr ~veri_end:(Agg.duration params + 100)))

let test_lfc_on_ring () =
  let g = Gen.ring 20 in
  let tr, params = trace_of g ~t:3 ~failures:(Failure.chain ~n:20 ~first:1 ~len:3 ~round:60) ~seed:5 in
  check_true "ring chain: LFC" (Checker.has_lfc tr ~veri_end:(Agg.duration params + 100))

let test_lfc_short_chain_is_not_lfc () =
  let g = Gen.ring 20 in
  let tr, params = trace_of g ~t:4 ~failures:(Failure.chain ~n:20 ~first:1 ~len:3 ~round:60) ~seed:6 in
  check_true "chain 3 < t=4: no LFC"
    (not (Checker.has_lfc tr ~veri_end:(Agg.duration params + 100)))

let test_lfc_late_failures_ignored () =
  (* nodes failing after AGG's end cannot form an LFC *)
  let g = Gen.ring 20 in
  let params = params_of ~t:3 g ~inputs:(default_inputs 20) in
  let late = Agg.duration params + 5 in
  let tr, _ = trace_of g ~t:3 ~failures:(Failure.chain ~n:20 ~first:1 ~len:3 ~round:late) ~seed:7 in
  check_true "late chain: no LFC" (not (Checker.has_lfc tr ~veri_end:(late + 100)))

let test_lfc_fragment_cut () =
  (* A visible critical failure between the chain and its descendants
     breaks "same fragment": kill nodes 1..3 in the critical window so
     node 1's criticality is visible, then an LFC of tail 3 exists only
     if 4+ is a local descendant within the same fragment.  We instead
     check: a chain whose member is itself a visible critical failure
     still yields an LFC when the tail's edge is intact (the cut is
     above, not below, the tail). *)
  let g = Gen.ring 20 in
  let params = params_of ~t:2 g ~inputs:(default_inputs 20) in
  let cd = Params.cd params in
  let tr, _ =
    trace_of g ~t:2
      ~failures:(Failure.chain ~n:20 ~first:1 ~len:2 ~round:((2 * cd) + 4))
      ~seed:8
  in
  check_true "critical chain is an LFC"
    (Checker.has_lfc tr ~veri_end:(Agg.duration params + 100))

(* [Checker.survivors] against a reference built here: reachability
   from the root in the graph without the crashed nodes' edges, minus the
   crashed nodes; and [model_edge_failures] against the edges with an
   endpoint outside that set.  Every family, n >= 9 (the torus's
   minimum). *)
let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"survivors = root reachability without the crashed nodes' edges" ~count:200
      (quad (int_range 0 10) (int_range 9 40) small_int (int_range 0 60))
      (fun (family, n, seed, round) ->
        let families = Topo.all_families ~seed in
        let _, fam = List.nth families (family mod List.length families) in
        let g = Topo.build fam ~n ~seed in
        let rng = Prng.create seed in
        let failures =
          Failure.of_list ~n
            (List.init (Prng.int rng n) (fun _ -> (1 + Prng.int rng (n - 1), 1 + Prng.int rng 50)))
        in
        let crashed u = not (Failure.is_alive failures ~node:u ~round) in
        let cut =
          Graph.of_edges ~n
            (Graph.fold_edges
               (fun u v acc -> if crashed u || crashed v then acc else (u, v) :: acc)
               g [])
        in
        let dist = Path.bfs cut Graph.root in
        let expect = Array.init n (fun u -> (not (crashed u)) && dist.(u) <> max_int) in
        let outside =
          Graph.fold_edges (fun u v k -> if expect.(u) && expect.(v) then k else k + 1) g 0
        in
        Checker.survivors ~graph:g ~failures ~round = expect
        && Checker.model_edge_failures ~graph:g ~failures ~round = outside);
  ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("checker: sets failure-free", test_correctness_sets_failure_free);
      ("checker: sets crash", test_correctness_sets_crash);
      ("checker: sets disconnection", test_correctness_sets_disconnection);
      ("checker: crash after end", test_correctness_sets_before_crash);
      ("checker: result bounds", test_result_correct_bounds);
      ("checker: critical window", test_critical_failure_window);
      ("checker: LFC needs live descendant", test_lfc_requires_live_descendant);
      ("checker: LFC on ring", test_lfc_on_ring);
      ("checker: short chain not LFC", test_lfc_short_chain_is_not_lfc);
      ("checker: late failures not LFC", test_lfc_late_failures_ignored);
      ("checker: critical chain LFC", test_lfc_fragment_cut);
    ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
