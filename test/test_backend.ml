(* The backend interface (lib/proto/backend.ml): the rows and their two
   name views, differential pins of Backend.exec against hand-driven
   runs, flow-updating's convergence and crash recovery, and the chaos
   harness (exec_chaos, the pair row's watchdog, campaigns over
   non-default backends, Backend_run incidents). *)

open Ftagg
open Helpers

(* --- registry --- *)

let test_registry () =
  let names = List.map fst Run.backends in
  List.iter
    (fun bk -> check_true (bk ^ " registered") (List.mem bk names))
    [ "agg"; "flood"; "folklore"; "pushsum"; "flowupdating"; "flowupdating-avg" ];
  List.iter
    (fun (bk, backend) -> check_true (bk ^ " keyed by its own name") (Backend.name backend = bk))
    Run.backends;
  check_true "lookup is case-insensitive"
    (match Run.backend_of_string "PushSum" with
    | Some b -> Backend.name b = "pushsum"
    | None -> false);
  check_true "unknown name rejected" (Run.backend_of_string "raft" = None);
  check_true "agg is exact" (Backend.exact (Option.get (Run.backend_of_string "agg")));
  check_true "pushsum is approximate"
    (not (Backend.exact (Option.get (Run.backend_of_string "pushsum"))))

let test_views () =
  let same a b = Option.get a == Option.get b in
  check_true "seven protocol names"
    (List.map fst Run.protocols
    = [ "tradeoff"; "brute"; "folklore"; "naive"; "unknown-f"; "pair"; "agg" ]);
  check_true "unknown_f is an alias"
    (same (Run.protocol_of_string "Unknown_F") (Run.protocol_of_string "unknown-f"));
  check_true "pair is the agg backend"
    (same (Run.protocol_of_string "pair") (Run.backend_of_string "agg"));
  check_true "brute is the flood backend"
    (same (Run.protocol_of_string "brute") (Run.backend_of_string "flood"));
  let alone = Option.get (Run.protocol_of_string "agg") in
  check_true "AGG alone is in no backend view"
    (not (List.exists (fun (_, b) -> b == alone) Run.backends));
  check_true "nor shares a backend's name"
    (Run.backend_of_string (Backend.name alone) = None)

(* --- Backend.exec vs driving the row by hand: identical outcomes --- *)

let test_exec_differential () =
  let n = 25 in
  let g = Gen.grid n in
  let inputs = default_inputs n in
  let params = Params.make ~c:2 ~t:2 ~graph:g ~inputs () in
  let failures = Failure.kill_nodes ~n ~nodes:[ 7; 13 ] ~round:9 in
  (* b >= 21c, Algorithm 1's minimum *)
  let b = 42 and f = 3 and seed = 5 in
  List.iter
    (fun (bk, backend) ->
      let via_exec = Backend.exec ~backend ~graph:g ~failures ~params ~b ~f ~seed () in
      let by_hand =
        let module B = (val backend : Backend.S) in
        let states, metrics =
          Engine.run ~graph:g ~failures
            ~max_rounds:(B.max_rounds ~params ~b ~f)
            ~seed
            (B.protocol ~graph:g ~params ~b ~f)
        in
        B.finish ~graph:g ~failures ~params ~b ~f ~states ~metrics
      in
      check_true (bk ^ ": same result") (via_exec.Backend.result = by_hand.Backend.result);
      check_true (bk ^ ": same evidence") (via_exec.Backend.evidence = by_hand.Backend.evidence);
      check_true (bk ^ ": same correctness")
        (via_exec.Backend.common.Backend.correct = by_hand.Backend.common.Backend.correct);
      check_int (bk ^ ": same rounds") by_hand.Backend.common.Backend.rounds
        via_exec.Backend.common.Backend.rounds;
      check_int (bk ^ ": same CC")
        (Metrics.cc by_hand.Backend.common.Backend.metrics)
        (Metrics.cc via_exec.Backend.common.Backend.metrics))
    (Run.backends @ Run.protocols)

(* Every row of both views runs failure-free and correct with the CLI's
   defaults (b = 63, f = 8, t = 2f) on a 36-node grid. *)
let test_every_row_failure_free () =
  let n = 36 in
  let g = Gen.grid n in
  let inputs = Params.random_inputs ~rng:(Prng.create 18) ~n ~max_input:100 in
  let params = Params.make ~c:2 ~t:16 ~graph:g ~inputs () in
  List.iter
    (fun (key, backend) ->
      let o =
        Backend.exec ~backend ~graph:g ~failures:(Failure.none ~n) ~params ~b:63 ~f:8 ~seed:1 ()
      in
      check_true (key ^ ": correct") o.Backend.common.Backend.correct;
      check_true (key ^ ": an answer")
        (match o.Backend.result with
        | Backend.Exact (Agg.Value _) | Backend.Estimate _ -> true
        | Backend.Exact Agg.Aborted -> false))
    (Run.protocols @ Run.backends)

(* exec_chaos with every knob at its default is observationally the
   plain exec. *)
let test_exec_chaos_defaults_match_exec () =
  let n = 16 in
  let g = Gen.grid n in
  let params = Params.make ~graph:g ~inputs:(default_inputs n) () in
  let failures = Failure.none ~n in
  List.iter
    (fun (bk, backend) ->
      let plain = Backend.exec ~backend ~graph:g ~failures ~params ~b:12 ~f:2 ~seed:3 () in
      let chaos = Backend.exec_chaos ~backend ~graph:g ~failures ~params ~b:12 ~f:2 ~seed:3 () in
      check_true (bk ^ ": no violation") (chaos.Backend.c_violation = None);
      check_true (bk ^ ": completed") chaos.Backend.c_completed;
      check_true (bk ^ ": same result")
        (chaos.Backend.c_outcome.Backend.result = plain.Backend.result);
      check_int (bk ^ ": same CC")
        (Metrics.cc plain.Backend.common.Backend.metrics)
        (Metrics.cc chaos.Backend.c_outcome.Backend.common.Backend.metrics))
    Run.backends

(* every backend honours a planted bit cap *)
let test_exec_chaos_bit_cap_fires () =
  let n = 16 in
  let g = Gen.grid n in
  let params = Params.make ~graph:g ~inputs:(default_inputs n) () in
  let failures = Failure.none ~n in
  List.iter
    (fun (bk, backend) ->
      let c =
        Backend.exec_chaos ~bit_cap:3 ~backend ~graph:g ~failures ~params ~b:12 ~f:2 ~seed:3 ()
      in
      match c.Backend.c_violation with
      | Some v ->
        check_true (bk ^ ": bit_budget invariant") (v.Engine.invariant = "bit_budget");
        check_true (bk ^ ": not completed") (not c.Backend.c_completed)
      | None -> Alcotest.failf "%s: a 3-bit cap did not fire" bk)
    Run.backends

(* --- the one watched pair --- *)

(* Light loss, duplication and delay on three of the campaign's
   families: the pair watchdog fires on some of these runs and not on
   others. *)
let light_fault_scenarios =
  List.concat_map
    (fun (family, n) ->
      List.concat_map
        (fun faults ->
          List.map
            (fun seed ->
              {
                Incident.family;
                n;
                topo_seed = seed;
                run_seed = seed + 100;
                c = 2;
                t = 2;
                inputs = Array.init n (fun k -> (k * 7 mod 50) + 1);
                schedule = [];
                faults;
                kind = Incident.Pair_run;
                bit_cap = None;
              })
            [ 1; 2; 3 ])
        [
          { Engine.loss = 0.05; dup = 0.0; delay = 0.0 };
          { Engine.loss = 0.0; dup = 0.05; delay = 0.0 };
          { Engine.loss = 0.0; dup = 0.0; delay = 0.05 };
        ])
    [ (Gen.Grid, 25); (Gen.Ring, 16); (Gen.Random_regular 4, 20) ]

(* The "agg" row under chaos, as the campaign runs it, reports the first
   violation, round and detail included, and the CC and rounds of the
   pair driven by hand through Engine.run_chaos under
   Watchdog.pair_watch. *)
let test_agg_row_watch_is_the_pair_watch () =
  let fired = ref 0 in
  List.iteri
    (fun i (sc : Incident.scenario) ->
      let graph = Campaign.graph_of sc in
      let params = Campaign.params_of sc graph in
      let failures = Failure.of_list ~n:sc.Incident.n sc.Incident.schedule in
      let hand =
        Engine.run_chaos ~faults:sc.Incident.faults
          ~watch:(Watchdog.pair_watch ~params ~graph ())
          ~graph ~failures ~max_rounds:(Pair.duration params) ~seed:sc.Incident.run_seed
          (Pair.protocol params)
      in
      let row = Campaign.exec sc in
      let common = row.Campaign.outcome.Backend.common in
      check_true
        (Printf.sprintf "scenario %d: same first violation" i)
        (row.Campaign.violation = hand.Engine.c_violation);
      check_int
        (Printf.sprintf "scenario %d: same CC" i)
        (Metrics.cc hand.Engine.c_metrics) (Metrics.cc common.Backend.metrics);
      check_int
        (Printf.sprintf "scenario %d: same rounds" i)
        (Metrics.rounds hand.Engine.c_metrics) common.Backend.rounds;
      if hand.Engine.c_violation <> None then incr fired)
    light_fault_scenarios;
  check_true "the watch fires on some runs" (!fired > 0);
  check_true "and stays silent on others" (!fired < List.length light_fault_scenarios)

(* A saved Backend_run incident for "agg" (what `ftagg scenarios -o`
   writes) replays under the pair watchdog. *)
let test_agg_backend_incident_replays_pair_watch () =
  let sc, v =
    List.find_map
      (fun sc -> Option.map (fun v -> (sc, v)) (Campaign.run_pair sc).Campaign.violation)
      light_fault_scenarios
    |> Option.get
  in
  let inc =
    {
      Incident.adversary = "schedule:test";
      scenario =
        { sc with Incident.kind = Incident.Backend_run { backend = "agg"; b = 40; f = 4 } };
      violation = v;
      shrink = None;
    }
  in
  match Incident.of_json (Incident.to_json inc) with
  | Error e -> Alcotest.fail e
  | Ok loaded ->
    check_true "replays the pair watchdog's violation" (Campaign.replay loaded = Some v)

(* --- flow updating --- *)

let test_flow_updating_converges () =
  let n = 36 in
  let g = Gen.grid n in
  let inputs = default_inputs n in
  let params = Params.make ~graph:g ~inputs () in
  let o = Flow_updating.run ~graph:g ~failures:(Failure.none ~n) ~params ~rounds:400 ~seed:1 () in
  (match o.Backend.result with
  | Backend.Estimate { value; relative_error } ->
    check_true
      (Printf.sprintf "estimate %.3f near %d" value (total inputs))
      (relative_error < 1e-6)
  | Backend.Exact _ -> Alcotest.fail "flow updating answered Exact");
  check_true "correct under the interval checker" o.Backend.common.Backend.correct

(* At the fixed point the flow identity e_i = v_i − ΣF_i holds exactly
   and the estimates sum back to the total: nothing leaked. *)
let test_flow_updating_mass_conservation () =
  let n = 36 in
  let g = Gen.grid n in
  let inputs = default_inputs n in
  let params = Params.make ~graph:g ~inputs () in
  let states, _ =
    Flow_updating.run_states ~graph:g ~failures:(Failure.none ~n) ~params ~rounds:400 ~seed:1 ()
  in
  Array.iteri
    (fun u st ->
      let e = Flow_updating.node_estimate st in
      check_true
        (Printf.sprintf "node %d flow identity" u)
        (Float.abs (e -. (float_of_int inputs.(u) -. Flow_updating.node_net_flow st)) < 1e-9))
    states;
  let sum_est = Array.fold_left (fun acc st -> acc +. Flow_updating.node_estimate st) 0.0 states in
  check_true
    (Printf.sprintf "estimates sum to the total (%.6f vs %d)" sum_est (total inputs))
    (Float.abs (sum_est -. float_of_int (total inputs)) < 1e-4)

(* The contrast the backend exists for: under the same crash schedule,
   flow-updating's reset flows recover the routed mass while push-sum's
   destroyed mass leaves a permanent bias. *)
let test_flow_updating_crash_recovery_beats_pushsum () =
  let n = 36 in
  let g = Gen.grid n in
  let inputs = Array.make n 10 in
  let params = Params.make ~graph:g ~inputs () in
  let failures = Failure.kill_nodes ~n ~nodes:[ 5; 6; 7 ] ~round:5 in
  let rel o =
    match o.Backend.result with
    | Backend.Estimate { relative_error; _ } -> relative_error
    | Backend.Exact _ -> Alcotest.fail "expected an estimate"
  in
  let fu = rel (Flow_updating.run ~graph:g ~failures ~params ~rounds:400 ~seed:1 ()) in
  let ps = rel (Gossip.run ~graph:g ~failures ~params ~rounds:400 ~seed:1 ()) in
  check_true "some crash recovery kicked in" (fu < 0.01);
  check_true
    (Printf.sprintf "flow-updating %.4g strictly beats push-sum %.4g" fu ps)
    (fu < ps);
  (* dead links were actually declared: the crashed nodes' neighbours
     reset their flows *)
  let states, _ = Flow_updating.run_states ~graph:g ~failures ~params ~rounds:400 ~seed:1 () in
  let dead = Array.fold_left (fun acc st -> acc + Flow_updating.dead_links st) 0 states in
  check_true "dead links declared" (dead > 0)

(* avg backend reports the average, sum backend n times it *)
let test_flow_updating_modes_consistent () =
  let n = 16 in
  let g = Gen.grid n in
  let params = Params.make ~graph:g ~inputs:(default_inputs n) () in
  let failures = Failure.none ~n in
  let est backend =
    Backend.estimate_of (Backend.exec ~backend ~graph:g ~failures ~params ~b:25 ~f:0 ~seed:2 ())
  in
  let s = est Flow_updating.backend and a = est Flow_updating.avg_backend in
  check_true "sum = n x avg" (Float.abs (s -. (float_of_int n *. a)) < 1e-6)

(* --- campaigns over a non-default backend --- *)

let test_campaign_backend_smoke () =
  let config =
    {
      Campaign.default_config with
      Campaign.trials = 3;
      seed = 11;
      max_n = 12;
      log = ignore;
      backend = "pushsum";
    }
  in
  let o = Campaign.run config in
  check_int "all trials ran" 3 o.Campaign.o_trials;
  check_int "none rejected" 0 o.Campaign.o_rejected_trials

let test_campaign_unknown_backend_rejected () =
  let config =
    { Campaign.default_config with Campaign.trials = 1; log = ignore; backend = "paxos" }
  in
  check_true "fails fast"
    (match Campaign.run config with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The backend name is matched as the registry does, case-insensitively:
   "AGG" runs the watched pair, through the [via] transport. *)
let test_campaign_backend_name_case () =
  let calls = ref 0 in
  let via sc =
    incr calls;
    check_true "a pair scenario" (sc.Incident.kind = Incident.Pair_run);
    Some (Campaign.check sc)
  in
  let config =
    {
      Campaign.default_config with
      Campaign.trials = 6;
      seed = 11;
      max_n = 12;
      log = ignore;
      via = Some via;
      backend = "AGG";
    }
  in
  let o = Campaign.run config in
  check_int "every trial went through via" 6 !calls;
  check_int "none rejected" 0 o.Campaign.o_rejected_trials

(* a planted cap fires identically through the campaign's backend path *)
let test_campaign_backend_planted_cap () =
  let config =
    {
      Campaign.default_config with
      Campaign.trials = 2;
      seed = 11;
      max_n = 12;
      bit_cap = Some 8;
      log = ignore;
      backend = "flowupdating";
    }
  in
  let o = Campaign.run config in
  check_true "planted cap caught" (o.Campaign.o_violating_trials > 0);
  List.iter
    (fun ((inc : Incident.t), _) ->
      check_true "bit_budget invariant" (inc.Incident.violation.Engine.invariant = "bit_budget");
      match inc.Incident.scenario.Incident.kind with
      | Incident.Backend_run { backend; _ } -> check_true "backend kind" (backend = "flowupdating")
      | _ -> Alcotest.fail "expected a Backend_run scenario")
    o.Campaign.o_incidents

(* --- Backend_run incidents roundtrip through JSON --- *)

let test_incident_backend_roundtrip () =
  let scenario =
    {
      Incident.family = Gen.Grid;
      n = 9;
      topo_seed = 3;
      run_seed = 4;
      c = 2;
      t = 1;
      inputs = Array.init 9 (fun i -> i);
      schedule = [ (2, 5) ];
      faults = Engine.no_faults;
      kind = Incident.Backend_run { backend = "pushsum"; b = 7; f = 2 };
      bit_cap = Some 12;
    }
  in
  let inc =
    {
      Incident.adversary = "test";
      scenario;
      violation = { Engine.at_round = 5; invariant = "bit_budget"; detail = "x" };
      shrink = None;
    }
  in
  match Incident.of_json (Incident.to_json inc) with
  | Error e -> Alcotest.fail e
  | Ok back ->
    check_true "kind survives"
      (back.Incident.scenario.Incident.kind
      = Incident.Backend_run { backend = "pushsum"; b = 7; f = 2 });
    check_true "everything survives" (back = inc)

let suite =
  [
    Alcotest.test_case "registry: names, lookup, exactness" `Quick test_registry;
    Alcotest.test_case "views: protocol names, aliases, shared rows" `Quick test_views;
    Alcotest.test_case "exec == hand-driven run, every backend" `Quick test_exec_differential;
    Alcotest.test_case "every row of both views failure-free and correct" `Quick
      test_every_row_failure_free;
    Alcotest.test_case "exec_chaos defaults == exec, every backend" `Quick
      test_exec_chaos_defaults_match_exec;
    Alcotest.test_case "planted bit cap fires, every backend" `Quick test_exec_chaos_bit_cap_fires;
    Alcotest.test_case "agg row's watch is the pair watchdog" `Quick
      test_agg_row_watch_is_the_pair_watch;
    Alcotest.test_case "agg Backend_run incident replays the pair watchdog" `Quick
      test_agg_backend_incident_replays_pair_watch;
    Alcotest.test_case "flow updating converges failure-free" `Quick test_flow_updating_converges;
    Alcotest.test_case "flow updating conserves mass at the fixed point" `Quick
      test_flow_updating_mass_conservation;
    Alcotest.test_case "flow updating recovers from crashes, push-sum cannot" `Quick
      test_flow_updating_crash_recovery_beats_pushsum;
    Alcotest.test_case "flow updating sum/avg modes consistent" `Quick
      test_flow_updating_modes_consistent;
    Alcotest.test_case "campaign runs a non-default backend" `Quick test_campaign_backend_smoke;
    Alcotest.test_case "campaign rejects an unknown backend" `Quick
      test_campaign_unknown_backend_rejected;
    Alcotest.test_case "campaign catches a planted cap via Backend_run" `Quick
      test_campaign_backend_planted_cap;
    Alcotest.test_case "Backend_run incident JSON roundtrip" `Quick
      test_incident_backend_roundtrip;
    Alcotest.test_case "campaign matches the backend name case-insensitively" `Quick
      test_campaign_backend_name_case;
  ]
