(* Cross-protocol consistency and remaining edge cases. *)

open Ftagg
open Helpers

let test_all_protocols_agree_failure_free () =
  (* on a failure-free instance every protocol must return the exact
     aggregate, for every CAAF it can carry *)
  let n = 30 in
  let g = Gen.grid n in
  List.iter
    (fun (caaf : Caaf.t) ->
      let inputs =
        if caaf.Caaf.name = "or" || caaf.Caaf.name = "and" then
          Array.init n (fun i -> i mod 2)
        else Array.init n (fun i -> (i mod 11) + 1)
      in
      let params = Params.make ~c:2 ~t:2 ~caaf ~graph:g ~inputs () in
      let want = Caaf.aggregate caaf (Array.to_list inputs) in
      let failures = Failure.none ~n in
      let tr = Run.tradeoff ~graph:g ~failures ~params ~b:63 ~f:2 ~seed:1 () in
      let bf = Run.brute_force ~graph:g ~failures ~params ~seed:1 () in
      let fo = Run.folklore ~graph:g ~failures ~params ~mode:(Folklore.Retry 2) ~seed:1 () in
      let uf = Run.unknown_f ~graph:g ~failures ~params ~seed:1 () in
      check_int (caaf.Caaf.name ^ ": tradeoff") want (Run.value_exn tr.Run.result);
      check_int (caaf.Caaf.name ^ ": brute") want (Run.value_exn bf.Run.result);
      (match fo.Run.f_result with
      | Folklore.Value v -> check_int (caaf.Caaf.name ^ ": folklore") want v
      | Folklore.No_clean_epoch -> Alcotest.fail "folklore dirty without failures");
      check_int (caaf.Caaf.name ^ ": unknown-f") want (Run.value_exn uf.Run.result))
    [ Instances.sum; Instances.count; Instances.max_; Instances.bool_or; Instances.gcd ]

let test_pair_on_hypercube_and_two_tier () =
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let params = params_of ~t:3 g ~inputs:(default_inputs n) in
      let clean = Run.pair ~graph:g ~failures:(Failure.none ~n) ~params ~seed:1 () in
      (match clean.Run.verdict.Pair.result with
      | Agg.Value v -> check_int (name ^ ": exact") (total (default_inputs n)) v
      | Agg.Aborted -> Alcotest.fail (name ^ ": aborted"));
      List.iter
        (fun seed ->
          let failures =
            Failure.random g ~rng:(Prng.create (seed * 23)) ~budget:3 ~max_round:300
          in
          let o = Run.pair ~graph:g ~failures ~params ~seed () in
          check_pair_guarantees o ~t:3)
        [ 1; 2; 3 ])
    [ ("hypercube", Gen.hypercube 5); ("two_tier", Gen.two_tier ~clusters:5 ~cluster_size:5) ]

let test_engine_loss_validation () =
  let g = Gen.path 3 in
  let proto =
    {
      Engine.init = (fun _ ~rng:_ -> ());
      step = (fun ~round:_ ~me:_ ~state:() ~inbox:_ -> ((), ([] : int list)));
      msg_bits = (fun _ -> 0);
      root_done = (fun _ -> false);
      wake = Engine.every_round;
    }
  in
  let failures = Failure.none ~n:3 in
  Alcotest.check_raises "reference: loss >= 1 rejected"
    (Invalid_argument "Engine.run_reference: loss must be in [0, 1)") (fun () ->
      ignore (Engine.run_reference ~loss:1.0 ~graph:g ~failures ~max_rounds:1 ~seed:0 proto));
  (* run_chaos takes each fault probability in [0, 1], ends included. *)
  let chaos faults =
    ignore (Engine.run_chaos ~faults ~graph:g ~failures ~max_rounds:1 ~seed:0 proto)
  in
  List.iter
    (fun (name, set) ->
      List.iter
        (fun p ->
          Alcotest.check_raises
            (Printf.sprintf "%s %g rejected" name p)
            (Invalid_argument (Printf.sprintf "Engine.run_chaos: %s must be in [0, 1]" name))
            (fun () -> chaos (set p)))
        [ -0.1; 1.5 ];
      List.iter (fun p -> chaos (set p)) [ 0.0; 1.0 ])
    [
      ("loss", fun p -> { Engine.no_faults with loss = p });
      ("dup", fun p -> { Engine.no_faults with dup = p });
      ("delay", fun p -> { Engine.no_faults with delay = p });
    ]

let test_engine_loss_zero_identical () =
  (* zero fault probabilities must leave runs bit-for-bit identical to
     the model's engine *)
  let n = 25 in
  let g = Gen.grid n in
  let params = params_of ~t:2 g ~inputs:(default_inputs n) in
  let proto = Pair.protocol params in
  let dur = Pair.duration params in
  let _, m0 =
    Engine.run ~graph:g ~failures:(Failure.none ~n) ~max_rounds:dur ~seed:1 proto
  in
  let m1 =
    (Engine.run_chaos ~faults:Engine.no_faults ~graph:g ~failures:(Failure.none ~n)
       ~max_rounds:dur ~seed:1 proto)
      .Engine.c_metrics
  in
  for u = 0 to n - 1 do
    check_int "identical bits" (Metrics.bits_sent m0 u) (Metrics.bits_sent m1 u)
  done

let test_tradeoff_rejects_aborted_pair_result () =
  (* Algorithm 1 accepts only (no abort && VERI true); an LFC-chain in the
     first interval must never surface a wrong value *)
  let n = 30 in
  let g = Gen.ring n in
  let params = params_of g ~inputs:(default_inputs n) in
  List.iter
    (fun len ->
      let failures = Failure.chain ~n ~first:1 ~len ~round:70 in
      let o = Run.tradeoff ~graph:g ~failures ~params ~b:84 ~f:4 ~seed:3 () in
      check_true (Printf.sprintf "chain %d: correct" len) o.Run.common.Run.correct)
    [ 2; 4; 8; 12 ]

let test_network_report_consistency () =
  (* the facade's report fields must agree with the underlying run *)
  let net = Network.create Gen.Grid ~n:25 ~seed:8 () in
  let inputs = Array.make 25 4 in
  let r = Network.sum net ~inputs ~b:63 ~f:2 in
  check_true "rounds vs flooding rounds"
    (r.Network.flooding_rounds = (r.Network.rounds + Network.diameter net - 1) / Network.diameter net);
  check_int "value" 100 (Network.value_exn r)

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("cross: protocols agree failure-free", test_all_protocols_agree_failure_free);
      ("cross: hypercube and two-tier", test_pair_on_hypercube_and_two_tier);
      ("engine: loss validation", test_engine_loss_validation);
      ("engine: loss 0 identical", test_engine_loss_zero_identical);
      ("cross: LFC chains never surface wrong values", test_tradeoff_rejects_aborted_pair_result);
      ("cross: facade report consistency", test_network_report_consistency);
    ]
