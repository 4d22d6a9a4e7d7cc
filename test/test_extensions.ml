(* Tests for the extension layer: trace recording, the approximate
   baselines (push-sum gossip, synopsis diffusion), the cut simulation,
   derived statistics, and the extra generators/adversaries. *)

open Ftagg
open Helpers

(* --- Trace --- *)

let test_trace_records_broadcasts () =
  let g = Gen.path 4 in
  let tr = Trace.create () in
  let proto =
    {
      Engine.init = (fun _ ~rng:_ -> ());
      step =
        (fun ~round ~me ~state:() ~inbox:_ ->
          ((), if me = 0 && round <= 2 then [ round ] else []));
      msg_bits = (fun _ -> 1);
      root_done = (fun _ -> false);
      wake = Engine.every_round;
    }
  in
  let _ =
    Engine.run ~observer:(Trace.observer tr) ~graph:g ~failures:(Failure.none ~n:4)
      ~max_rounds:5 ~seed:0 proto
  in
  check_int "two events (silent dropped)" 2 (Trace.length tr);
  check_true "root's rounds" (Trace.rounds_active tr ~node:0 = [ 1; 2 ]);
  check_true "others silent" (Trace.broadcasts_of tr ~node:2 = [])

let test_trace_keep_silent () =
  let g = Gen.path 3 in
  let tr = Trace.create ~keep_silent:true () in
  let proto =
    {
      Engine.init = (fun _ ~rng:_ -> ());
      step = (fun ~round:_ ~me:_ ~state:() ~inbox:_ -> ((), ([] : int list)));
      msg_bits = (fun _ -> 1);
      root_done = (fun _ -> false);
      wake = Engine.every_round;
    }
  in
  let _ =
    Engine.run ~observer:(Trace.observer tr) ~graph:g ~failures:(Failure.none ~n:3)
      ~max_rounds:2 ~seed:0 proto
  in
  check_int "3 nodes x 2 rounds" 6 (Trace.length tr)

let test_trace_pp () =
  let tr = Trace.create () in
  Trace.observer tr ~round:1 ~node:0 [ 42 ];
  let s = Format.asprintf "%a" (Trace.pp ~pp_msg:Format.pp_print_int) tr in
  check_true "renders" (String.length s > 5)

(* --- Gossip --- *)

(* The unified runner answers with a [Backend.outcome]; these helpers
   project the estimate fields the assertions care about. *)
let gossip ~graph ~failures ~inputs ~rounds ~seed =
  let params = Params.make ~graph ~inputs () in
  Gossip.run ~graph ~failures ~params ~rounds ~seed ()

let rel_err o =
  match o.Backend.result with
  | Backend.Estimate { relative_error; _ } -> relative_error
  | Backend.Exact _ -> invalid_arg "rel_err"

let test_gossip_converges_failure_free () =
  let n = 25 in
  let g = Gen.grid n in
  let inputs = Array.init n (fun i -> i + 1) in
  let o = gossip ~graph:g ~failures:(Failure.none ~n) ~inputs ~rounds:300 ~seed:1 in
  check_true
    (Printf.sprintf "estimate %.2f near %d" (Backend.estimate_of o) (total inputs))
    (rel_err o < 0.01)

let test_gossip_more_rounds_more_accuracy () =
  let n = 25 in
  let g = Gen.grid n in
  let inputs = Array.init n (fun i -> i + 1) in
  let err rounds =
    rel_err (gossip ~graph:g ~failures:(Failure.none ~n) ~inputs ~rounds ~seed:1)
  in
  check_true "error shrinks with rounds" (err 200 <= err 20 +. 1e-9)

let test_gossip_cc_linear_in_rounds () =
  let n = 16 in
  let g = Gen.grid n in
  let inputs = Array.make n 1 in
  let cc rounds =
    let o = gossip ~graph:g ~failures:(Failure.none ~n) ~inputs ~rounds ~seed:1 in
    Metrics.cc o.Backend.common.Backend.metrics
  in
  check_int "exact metering" (50 * (5 + 64)) (cc 50)

let test_gossip_degrades_under_failures () =
  (* mass destruction: killing nodes mid-run biases the estimate; the
     zero-error protocols would still be interval-correct *)
  let n = 25 in
  let g = Gen.grid n in
  let inputs = Array.make n 10 in
  let failures = Failure.kill_nodes ~n ~nodes:[ 5; 6; 7; 12 ] ~round:30 in
  let o = gossip ~graph:g ~failures ~inputs ~rounds:300 ~seed:2 in
  (* dead nodes took in-flight mass with them: the estimate is not exact
     and (generically) even below the survivors' total *)
  check_true "estimate is only approximate" (rel_err o > 0.001)

(* --- Synopsis diffusion --- *)

let test_synopsis_count_reasonable () =
  let n = 100 in
  let g = Gen.grid n in
  let params_d = match Path.diameter g with Some d -> d | None -> 0 in
  let o =
    Synopsis.run_count ~graph:g ~failures:(Failure.none ~n) ~k:32
      ~rounds:(params_d + 2) ~seed:1
  in
  check_true
    (Printf.sprintf "count estimate %.1f vs %d" o.Synopsis.estimate n)
    (o.Synopsis.relative_error < 0.8)

let test_synopsis_sum_reasonable () =
  let n = 36 in
  let g = Gen.grid n in
  let inputs = Array.make n 20 in
  let d = match Path.diameter g with Some d -> d | None -> 0 in
  let o =
    Synopsis.run_sum ~graph:g ~failures:(Failure.none ~n) ~inputs ~k:32 ~rounds:(d + 2)
      ~seed:2
  in
  check_true
    (Printf.sprintf "sum estimate %.1f vs %d" o.Synopsis.estimate (total inputs))
    (o.Synopsis.relative_error < 0.8)

let test_synopsis_duplicate_insensitive () =
  (* running twice as many rounds merges the same synopses again and must
     not change the estimate — the ODI property *)
  let n = 49 in
  let g = Gen.grid n in
  let short =
    Synopsis.run_count ~graph:g ~failures:(Failure.none ~n) ~k:16 ~rounds:15 ~seed:3
  in
  let long =
    Synopsis.run_count ~graph:g ~failures:(Failure.none ~n) ~k:16 ~rounds:60 ~seed:3
  in
  check_true "ODI: more merging, same answer" (short.Synopsis.estimate = long.Synopsis.estimate)

let test_synopsis_survives_failures () =
  (* multipath robustness: killing a few nodes after the first rounds on
     a well-connected graph leaves the estimate unchanged *)
  let n = 49 in
  let g = Gen.grid n in
  let clean =
    Synopsis.run_count ~graph:g ~failures:(Failure.none ~n) ~k:16 ~rounds:30 ~seed:4
  in
  let failures = Failure.kill_nodes ~n ~nodes:[ 10; 20; 30 ] ~round:15 in
  let faulty = Synopsis.run_count ~graph:g ~failures ~k:16 ~rounds:30 ~seed:4 in
  check_true "same estimate despite crashes"
    (clean.Synopsis.estimate = faulty.Synopsis.estimate)

(* --- Cut simulation --- *)

let test_cut_partition_structure () =
  let g = Gen.path 10 in
  let cut = Cut_sim.halves g in
  check_int "one cut edge on a path" 1 cut.Cut_sim.cut_edges;
  check_true "alice boundary" (cut.Cut_sim.boundary_alice = [ 4 ]);
  check_true "bob boundary" (cut.Cut_sim.boundary_bob = [ 5 ])

let test_cut_requires_root_on_alice () =
  let g = Gen.path 4 in
  Alcotest.check_raises "root side"
    (Invalid_argument "Cut_sim.partition: root must be on Alice's side") (fun () ->
      ignore (Cut_sim.partition g ~alice:(fun u -> u > 1)))

let test_cut_transcript_bounded_by_total () =
  let n = 30 in
  let g = Gen.path n in
  let params = params_of g ~inputs:(default_inputs n) in
  let cut = Cut_sim.halves g in
  let tr =
    Cut_sim.sum_transcript ~graph:g ~failures:(Failure.none ~n) ~params ~b:63 ~f:2 ~seed:1
      ~cut
  in
  check_true "transcript positive" (tr.Cut_sim.total_bits > 0);
  (* only 2 boundary nodes contribute, so transcript <= 2 * CC *)
  check_true "transcript <= 2 x CC" (tr.Cut_sim.total_bits <= 2 * tr.Cut_sim.protocol_cc)

let test_cut_narrow_vs_wide () =
  (* the same protocol run across a 1-edge cut vs a wide cut: the
     narrow-cut transcript is no larger *)
  let n = 36 in
  let g = Gen.grid n in
  let params = params_of g ~inputs:(default_inputs n) in
  let wide = Cut_sim.halves g in
  let narrow = Cut_sim.partition g ~alice:(fun u -> u < n - 1) in
  let t_of cut =
    (Cut_sim.sum_transcript ~graph:g ~failures:(Failure.none ~n) ~params ~b:63 ~f:2 ~seed:2
       ~cut)
      .Cut_sim.total_bits
  in
  check_true "narrow cut cheaper or equal"
    (t_of narrow <= t_of wide)

(* --- Derived statistics --- *)

let test_derived_exact_failure_free () =
  let n = 36 in
  let g = Gen.grid n in
  let rng = Prng.create 5 in
  let inputs = Params.random_inputs ~rng ~n ~max_input:30 in
  let params = params_of g ~inputs in
  let o = Derived.summary ~graph:g ~failures:(Failure.none ~n) ~params ~b:63 ~f:2 ~seed:1 in
  let fn = float_of_int n in
  let mean = float_of_int (total inputs) /. fn in
  let var =
    Array.fold_left (fun acc x -> acc +. ((float_of_int x -. mean) ** 2.0)) 0.0 inputs /. fn
  in
  check_int "population" n o.Derived.population;
  check_true "average exact" (Float.abs (o.Derived.average -. mean) < 1e-9);
  check_true "variance exact" (Float.abs (o.Derived.variance -. var) < 1e-6);
  check_int "range exact"
    (Array.fold_left max 0 inputs - Array.fold_left min max_int inputs)
    o.Derived.range

let test_derived_under_failures_sane () =
  let n = 36 in
  let g = Gen.grid n in
  let inputs = Array.make n 10 in
  let params = params_of g ~inputs in
  let failures = Failure.random g ~rng:(Prng.create 9) ~budget:4 ~max_round:4000 in
  let o = Derived.summary ~graph:g ~failures ~params ~b:63 ~f:4 ~seed:2 in
  (* constant inputs: whatever population is counted, the average is 10 *)
  check_true "average still 10" (Float.abs (o.Derived.average -. 10.0) < 1e-9);
  check_true "variance ~0" (o.Derived.variance < 1e-9);
  check_true "population within [survivors, n]" (o.Derived.population <= n)

(* --- New generators / adversaries --- *)

let test_hypercube () =
  let g = Gen.hypercube 4 in
  check_int "16 nodes" 16 (Graph.n g);
  check_int "degree 4" 4 (Graph.degree g 0);
  check_true "diameter = dims" (Path.diameter g = Some 4)

let test_torus_diameter_small () =
  let g = Gen.torus 36 in
  check_true "connected" (Path.is_connected g);
  let grid_d = match Path.diameter (Gen.grid 36) with Some d -> d | None -> 99 in
  let torus_d = match Path.diameter g with Some d -> d | None -> 99 in
  check_true "torus shrinks the diameter" (torus_d < grid_d)

let test_two_tier () =
  let g = Gen.two_tier ~clusters:4 ~cluster_size:5 in
  check_int "size" 25 (Graph.n g);
  check_true "connected" (Path.is_connected g);
  check_int "root degree = clusters" 4 (Graph.degree g 0);
  (* a dead head leaves its cluster reachable via the member detour *)
  let head1 = 1 + (1 * 6) in
  let failures = Failure.kill_nodes ~n:25 ~nodes:[ head1 ] ~round:1 in
  let survivors = Checker.survivors ~graph:g ~failures ~round:1 in
  check_true "detour keeps most of the cluster"
    (Array.fold_left (fun k ok -> if ok then k + 1 else k) 0 survivors >= 20)

let test_random_regular_shape () =
  let g = Gen.random_regular ~n:40 ~degree:4 ~seed:3 in
  check_true "connected" (Path.is_connected g);
  check_true "low diameter (expander-ish)"
    (match Path.diameter g with Some d -> d <= 8 | None -> false)

let test_high_degree_adversary () =
  let g = Gen.star 12 in
  (* the hub is the root, so the adversary must pick leaves *)
  let t = Failure.high_degree g ~budget:3 ~round:5 in
  check_int "3 leaves" 3 (List.length (Failure.crashed_nodes t));
  let g = Gen.two_tier ~clusters:3 ~cluster_size:4 in
  let t = Failure.high_degree g ~budget:20 ~round:5 in
  (* cluster heads have the highest degree among non-roots *)
  check_true "kills a head" (List.exists (fun u -> List.mem u [ 1; 6; 11 ]) (Failure.crashed_nodes t))

let test_per_interval_adversary () =
  let g = Gen.grid 49 in
  let t =
    Failure.per_interval g ~rng:(Prng.create 7) ~budget:16 ~interval_len:100 ~intervals:4
  in
  check_true "within budget" (Failure.edge_failures g t <= 16);
  (* each of the four windows gets at least one crash *)
  List.iteri
    (fun i () ->
      let first = (i * 100) + 1 and last = (i + 1) * 100 in
      check_true
        (Printf.sprintf "window %d hit" i)
        (Failure.edge_failures_in_window g t ~first ~last > 0))
    [ (); (); (); () ]

let test_tradeoff_correct_under_new_adversaries () =
  let n = 49 in
  let g = Gen.grid n in
  let params = params_of g ~inputs:(default_inputs n) in
  let b = 84 in
  let interval_len = 19 * Params.cd params in
  List.iter
    (fun (name, failures) ->
      let o = Run.tradeoff ~graph:g ~failures ~params ~b ~f:12 ~seed:5 () in
      check_true (name ^ ": correct") o.Run.common.Run.correct)
    [
      ("high-degree", Failure.high_degree g ~budget:12 ~round:50);
      ( "per-interval",
        Failure.per_interval g ~rng:(Prng.create 11) ~budget:12 ~interval_len
          ~intervals:(Tradeoff.intervals params ~b) );
    ]

let test_approximate_baselines_across_families () =
  (* gossip and synopsis must at least run and stay finite on every
     topology family *)
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let inputs = Array.make n 5 in
      let d = match Path.diameter g with Some d -> d | None -> 1 in
      let go = gossip ~graph:g ~failures:(Failure.none ~n) ~inputs ~rounds:(20 * d) ~seed:1 in
      check_true (name ^ ": gossip finite") (Float.is_finite (Backend.estimate_of go));
      let sy = Synopsis.run_count ~graph:g ~failures:(Failure.none ~n) ~k:16 ~rounds:(d + 2) ~seed:1 in
      check_true (name ^ ": synopsis positive") (sy.Synopsis.estimate > 0.0))
    (Lazy.force sweep_graphs)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"gossip conserves mass without failures" ~count:20
      (pair (int_range 9 36) small_int)
      (fun (n, seed) ->
        let g = Topo.grid n in
        let inputs = Array.init n (fun i -> i) in
        let o =
          gossip ~graph:g ~failures:(Failure.none ~n) ~inputs ~rounds:250 ~seed
        in
        rel_err o < 0.05);
    Test.make ~name:"synopsis count estimate within a small factor" ~count:20
      (pair (int_range 20 120) small_int)
      (fun (n, seed) ->
        let g = Topo.grid n in
        let d = match Path.diameter g with Some d -> d | None -> 0 in
        let o =
          Synopsis.run_count ~graph:g ~failures:(Failure.none ~n) ~k:24 ~rounds:(d + 2)
            ~seed
        in
        o.Synopsis.estimate > float_of_int n /. 3.0
        && o.Synopsis.estimate < float_of_int n *. 3.0);
    Test.make ~name:"per_interval stays within budget" ~count:40
      (triple (int_range 10 40) (int_range 1 15) small_int)
      (fun (n, budget, seed) ->
        let g = Topo.random_connected ~n ~p:0.1 ~seed in
        let t =
          Failure.per_interval g ~rng:(Prng.create seed) ~budget ~interval_len:50
            ~intervals:5
        in
        Failure.edge_failures g t <= budget);
  ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("trace: records broadcasts", test_trace_records_broadcasts);
      ("trace: keep silent", test_trace_keep_silent);
      ("trace: pp", test_trace_pp);
      ("gossip: converges", test_gossip_converges_failure_free);
      ("gossip: accuracy vs rounds", test_gossip_more_rounds_more_accuracy);
      ("gossip: CC metering", test_gossip_cc_linear_in_rounds);
      ("gossip: degrades under failures", test_gossip_degrades_under_failures);
      ("synopsis: count", test_synopsis_count_reasonable);
      ("synopsis: sum", test_synopsis_sum_reasonable);
      ("synopsis: duplicate insensitive", test_synopsis_duplicate_insensitive);
      ("synopsis: survives failures", test_synopsis_survives_failures);
      ("cut: partition structure", test_cut_partition_structure);
      ("cut: root side", test_cut_requires_root_on_alice);
      ("cut: transcript bounded", test_cut_transcript_bounded_by_total);
      ("cut: narrow vs wide", test_cut_narrow_vs_wide);
      ("derived: exact failure-free", test_derived_exact_failure_free);
      ("derived: sane under failures", test_derived_under_failures_sane);
      ("gen: hypercube", test_hypercube);
      ("gen: torus", test_torus_diameter_small);
      ("gen: two-tier", test_two_tier);
      ("gen: random regular", test_random_regular_shape);
      ("failure: high degree", test_high_degree_adversary);
      ("failure: per interval", test_per_interval_adversary);
      ("tradeoff: new adversaries", test_tradeoff_correct_under_new_adversaries);
      ("approx: all families", test_approximate_baselines_across_families);
    ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
