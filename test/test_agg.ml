(* AGG (§4): Theorems 3–5 exercised on concrete and randomized runs. *)

open Ftagg
open Helpers

let run_agg ?(c = 2) ?t ?caaf graph ~failures ~seed =
  let n = Graph.n graph in
  let inputs = default_inputs n in
  let t = Option.value t ~default:3 in
  let params = params_of ~c ~t ?caaf graph ~inputs in
  (Run.agg ~graph ~failures ~params ~seed (), params)

let test_failure_free_exact () =
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let o, _ = run_agg g ~failures:(Failure.none ~n) ~seed:1 in
      match o.Run.result with
      | Agg.Value v -> check_int (name ^ ": exact sum") (total (default_inputs n)) v
      | Agg.Aborted -> Alcotest.fail (name ^ ": aborted without failures"))
    (Lazy.force sweep_graphs)

let test_failure_free_all_caafs () =
  let g = Gen.grid 25 in
  let inputs = Array.init 25 (fun i -> (i mod 2) * (i + 3) mod 97) in
  List.iter
    (fun (caaf : Caaf.t) ->
      let params = params_of ~t:2 ~caaf g ~inputs in
      let o = Run.agg ~graph:g ~failures:(Failure.none ~n:25) ~params ~seed:2 () in
      match o.Run.result with
      | Agg.Value v ->
        check_int
          (caaf.Caaf.name ^ ": matches reference fold")
          (Caaf.aggregate caaf (Array.to_list inputs))
          v
      | Agg.Aborted -> Alcotest.fail (caaf.Caaf.name ^ ": aborted"))
    Instances.all

let test_theorem3_time_bound () =
  (* TC of AGG is 7cd+4 rounds <= 11c flooding rounds. *)
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let o, params = run_agg g ~failures:(Failure.none ~n) ~seed:3 in
      let c = params.Params.c in
      check_true (name ^ ": rounds = 7cd+4")
        (o.Run.common.Run.rounds = (7 * Params.cd params) + 4);
      check_true (name ^ ": <= 11c flooding rounds") (o.Run.common.Run.flooding_rounds <= 11 * c))
    (Lazy.force sweep_graphs)

let test_theorem3_bit_budget () =
  (* No node ever exceeds the (11t+14)(logN+5) threshold by more than the
     final abort symbol, under any of our adversaries. *)
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      List.iter
        (fun t ->
          let rng = Prng.create (t + 7) in
          let failures = Failure.random g ~rng ~budget:(2 * t) ~max_round:200 in
          let inputs = default_inputs n in
          let params = params_of ~t g ~inputs in
          let o = Run.agg ~graph:g ~failures ~params ~seed:t () in
          let budget = Params.agg_bit_budget params in
          let abort_width = Message.bits params Message.Agg_abort in
          for u = 0 to n - 1 do
            check_true
              (Printf.sprintf "%s t=%d node %d within budget" name t u)
              (Metrics.bits_sent o.Run.common.Run.metrics u <= budget + abort_width)
          done)
        [ 0; 1; 4 ])
    (Lazy.force sweep_graphs)

let test_theorem4_tolerates_t_failures () =
  (* With at most t edge failures AGG never aborts and is correct. *)
  let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      List.iter
        (fun seed ->
          let t = 5 in
          let rng = Prng.create (seed * 31) in
          let failures = Failure.random g ~rng ~budget:t ~max_round:250 in
          let inputs = default_inputs n in
          let params = params_of ~t g ~inputs in
          let o = Run.agg ~graph:g ~failures ~params ~seed () in
          (* Theorem 4's hypothesis is on the model's edge-failure count,
             which also charges the edges of disconnected nodes. *)
          let ef =
            Checker.model_edge_failures ~graph:g ~failures ~round:o.Run.common.Run.rounds
          in
          if ef <= t then begin
            check_true (name ^ ": no abort with <= t failures")
              (match o.Run.result with Agg.Value _ -> true | Agg.Aborted -> false);
            check_true (name ^ ": correct with <= t failures") o.Run.common.Run.correct
          end)
        seeds)
    (Lazy.force sweep_graphs)

let test_theorem5_no_lfc_correct_or_abort () =
  (* Kill whole subtrees (no live local descendants => no LFC): AGG must
     stay correct or abort even when failures exceed t. *)
  let g = Gen.ring 24 in
  let n = 24 in
  (* On a ring's BFS tree, the deepest nodes are around the antipode.
     Killing a contiguous arc ending at the antipode leaves no live
     descendants below it. *)
  let failures = Failure.kill_nodes ~n ~nodes:[ 9; 10; 11; 12 ] ~round:60 in
  let o, params = run_agg g ~t:1 ~failures ~seed:4 in
  let trace = o.Run.trace in
  let lfc = Checker.has_lfc trace ~veri_end:(Agg.duration params) in
  if not lfc then
    check_true "no-LFC run is correct or aborted" o.Run.common.Run.correct

let test_critical_failure_detection () =
  (* A node killed between ack and action must be flagged as a critical
     failure by the ground-truth checker, and its parent floods it. *)
  let g = Gen.path 8 in
  let n = 8 in
  let params = params_of ~t:2 g ~inputs:(default_inputs n) in
  let cd = Params.cd params in
  (* node 3 (level 3) acks at round 6; its action is at 3cd+2-3; kill in
     between *)
  let failures = Failure.kill_nodes ~n ~nodes:[ 3 ] ~round:(cd + 5) in
  let o = Run.agg ~graph:g ~failures ~params ~seed:5 () in
  let crits = Checker.critical_failures o.Run.trace in
  check_true "checker flags node 3" (List.mem 3 crits);
  (* the parent (node 2) floods the critical failure, so the root sees it *)
  check_true "root saw the critical failure"
    (Agg.saw_crit o.Run.trace.Checker.agg_nodes.(0) 3)

let test_blocked_psum_recovered_by_speculation () =
  (* Figure 3's point: node B dies right before it would flood, its
     children's speculative floods save the day. *)
  let g = Gen.ring 20 in
  let n = 20 in
  let params = params_of ~t:4 g ~inputs:(default_inputs n) in
  let cd = Params.cd params in
  (* kill node 2 just at the start of the speculative flooding phase: its
     psum (covering the whole arm 2..10ish) is blocked and lost *)
  let failures = Failure.kill_nodes ~n ~nodes:[ 2 ] ~round:((4 * cd) + 3) in
  let o = Run.agg ~graph:g ~failures ~params ~seed:6 () in
  check_true "speculation recovers the arm" o.Run.common.Run.correct;
  match o.Run.result with
  | Agg.Value v ->
    (* everything except possibly node 2's own input must be included *)
    check_true "only the dead node may be missing" (v >= total (default_inputs n) - 3)
  | Agg.Aborted -> Alcotest.fail "unexpected abort"

(* Shared scenario for the §4.3 ablation: a clean aggregation, then node 1
   dies at the start of the speculative-flooding phase, before forwarding
   the root's flood; its child (node 2) therefore speculatively floods the
   whole arm's partial sum, which overlaps the root's full partial sum. *)
let overlap_scenario () =
  let g = Gen.ring 20 in
  let n = 20 in
  let params = params_of ~t:4 g ~inputs:(default_inputs n) in
  let cd = Params.cd params in
  let failures = Failure.kill_nodes ~n ~nodes:[ 1 ] ~round:((4 * cd) + 3) in
  (g, n, params, failures)

let test_ablation_no_witnesses_double_counts () =
  (* Without the witness/domination analysis the root sums both its own
     full partial sum and node 2's overlapping arm. *)
  let g, n, params, failures = overlap_scenario () in
  let o = Run.agg ~ablation:Agg.No_witnesses ~graph:g ~failures ~params ~seed:7 () in
  (match o.Run.result with
  | Agg.Value v -> check_true "ablated AGG double counts" (v > total (default_inputs n))
  | Agg.Aborted -> Alcotest.fail "unexpected abort");
  (* The full protocol labels the overlapping sum dominated and stays
     exact on the identical schedule. *)
  let o = Run.agg ~graph:g ~failures ~params ~seed:7 () in
  match o.Run.result with
  | Agg.Value v -> check_int "full protocol stays exact" (total (default_inputs n)) v
  | Agg.Aborted -> Alcotest.fail "unexpected abort"

let test_ablation_no_speculation_loses_inputs () =
  (* The wait-and-see variant: node 1 dies mid-aggregation (blocking the
     arm's partial sum from the root), then node 2 is killed just before
     its delayed flood.  Node 3 has by then heard a forwarded flood from
     its parent (around the ring), so under wait-and-see nobody floods
     the blocked arm, and the live inputs of nodes 3..10 are lost.  The
     full protocol floods speculatively at phase round level+1 and stays
     correct. *)
  let g = Gen.ring 20 in
  let n = 20 in
  let inputs = default_inputs n in
  let params = params_of ~t:4 g ~inputs in
  let cd = Params.cd params in
  let spec_base = (4 * cd) + 2 in
  let failures =
    Failure.of_list ~n [ (1, (2 * cd) + 1 + 9); (2, spec_base + 2 + 1 + cd - 1) ]
  in
  let check_correct (o : Run.agg_outcome) =
    match o.Run.result with
    | Agg.Value v ->
      Checker.result_correct ~graph:g ~failures ~end_round:o.Run.common.Run.rounds ~params v
    | Agg.Aborted -> true
  in
  let ablated = Run.agg ~ablation:Agg.No_speculation ~graph:g ~failures ~params ~seed:8 () in
  check_true "wait-and-see loses live inputs" (not (check_correct ablated));
  let full = Run.agg ~graph:g ~failures ~params ~seed:8 () in
  check_true "full protocol correct on the same schedule" (check_correct full)

let test_abort_under_overwhelming_failures () =
  (* t = 0 gives a tiny byte budget; a massive mid-run burst triggers the
     flooding cascade that crosses it, and the abort symbol must reach the
     root (or the run must still be correct). *)
  let aborted = ref 0 in
  List.iter
    (fun seed ->
      let n = 36 in
      let g = Gen.grid n in
      let params = params_of ~t:0 g ~inputs:(default_inputs n) in
      let cd = Params.cd params in
      let failures =
        Failure.burst g ~rng:(Prng.create seed) ~budget:20 ~round:((2 * cd) + 5)
      in
      let o = Run.agg ~graph:g ~failures ~params ~seed () in
      (match o.Run.result with
      | Agg.Aborted -> incr aborted
      | Agg.Value _ -> ());
      (* either way, every node's bits stay within threshold + symbol *)
      let cap = Params.agg_bit_budget params + Message.bits params Message.Agg_abort in
      for u = 0 to n - 1 do
        check_true "bits capped" (Metrics.bits_sent o.Run.common.Run.metrics u <= cap)
      done)
    [ 1; 2; 3; 4; 5; 6 ];
  check_true "the abort path fired at least once" (!aborted >= 1)

let test_tradeoff_recovers_from_aborting_interval () =
  (* same burst inside Algorithm 1: the pair aborts or is rejected, and
     the protocol still ends with a correct value *)
  let n = 36 in
  let g = Gen.grid n in
  let params = params_of g ~inputs:(default_inputs n) in
  let cd = Params.cd params in
  List.iter
    (fun seed ->
      let failures =
        Failure.burst g ~rng:(Prng.create seed) ~budget:20 ~round:((2 * cd) + 5)
      in
      (* declare a tiny f so the per-interval t is small *)
      let o = Run.tradeoff ~graph:g ~failures ~params ~b:168 ~f:1 ~seed () in
      check_true "correct despite aborting interval" o.Run.common.Run.correct)
    [ 1; 2; 3 ]

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"Theorem 4: <= t edge failures => no abort and correct (random graphs)"
      ~count:40
      (triple (int_range 10 40) (int_range 0 6) small_int)
      (fun (n, t, seed) ->
        let g = Topo.random_connected ~n ~p:0.1 ~seed in
        let failures =
          Failure.random g ~rng:(Prng.create (seed + 1)) ~budget:t ~max_round:300
        in
        let params = params_of ~t g ~inputs:(default_inputs n) in
        let o = Run.agg ~graph:g ~failures ~params ~seed () in
        let ef =
          Checker.model_edge_failures ~graph:g ~failures ~round:o.Run.common.Run.rounds
        in
        ef > t
        ||
        match o.Run.result with
        | Agg.Value _ -> o.Run.common.Run.correct
        | Agg.Aborted -> false);
    Test.make
      ~name:"Theorem 5: no LFC => correct or abort (adversarial bursts, random graphs)"
      ~count:40
      (triple (int_range 10 36) (int_range 2 5) small_int)
      (fun (n, t, seed) ->
        let g = Topo.random_connected ~n ~p:0.08 ~seed in
        let params = params_of ~t g ~inputs:(default_inputs n) in
        let failures =
          Failure.burst g
            ~rng:(Prng.create (seed + 2))
            ~budget:(3 * t)
            ~round:(1 + (seed mod (Agg.duration params)))
        in
        let o = Run.agg ~graph:g ~failures ~params ~seed () in
        let lfc = Checker.has_lfc o.Run.trace ~veri_end:(Agg.duration params) in
        lfc
        ||
        match o.Run.result with
        | Agg.Value _ -> o.Run.common.Run.correct
        | Agg.Aborted -> true);
  ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("agg: failure-free exact on every family", test_failure_free_exact);
      ("agg: all CAAF instances", test_failure_free_all_caafs);
      ("agg: Theorem 3 time bound", test_theorem3_time_bound);
      ("agg: Theorem 3 bit budget", test_theorem3_bit_budget);
      ("agg: Theorem 4 tolerance", test_theorem4_tolerates_t_failures);
      ("agg: Theorem 5 no-LFC", test_theorem5_no_lfc_correct_or_abort);
      ("agg: critical failure detection", test_critical_failure_detection);
      ("agg: speculation recovers blocked sums", test_blocked_psum_recovered_by_speculation);
      ("agg: ablation no-witnesses double counts", test_ablation_no_witnesses_double_counts);
      ("agg: ablation no-speculation loses inputs", test_ablation_no_speculation_loses_inputs);
      ("agg: abort path under overwhelming failures", test_abort_under_overwhelming_failures);
      ("agg: Algorithm 1 recovers from aborts", test_tradeoff_recovers_from_aborting_interval);
    ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
