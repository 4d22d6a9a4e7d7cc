(* Tests for ftagg_sim: Failure schedules, Metrics, and the Engine's
   delivery/crash semantics. *)

open Ftagg
open Helpers

(* --- Failure schedules --- *)

let test_failure_none () =
  let t = Failure.none ~n:5 in
  check_true "no crashes" (Failure.crashed_nodes t = []);
  check_int "edge failures 0" 0 (Failure.edge_failures (Gen.path 5) t)

let test_failure_of_list () =
  let t = Failure.of_list ~n:5 [ (2, 10); (3, 4) ] in
  check_int "crash round 2" 10 (Failure.crash_round t 2);
  check_true "alive before" (Failure.is_alive t ~node:2 ~round:9);
  check_true "dead at crash round" (not (Failure.is_alive t ~node:2 ~round:10));
  check_true "crashed_by" (Failure.crashed_by t ~round:5 = [ 3 ])

let test_failure_rejects_root () =
  Alcotest.check_raises "root cannot crash"
    (Invalid_argument "Failure.of_list: node out of range or root") (fun () ->
      ignore (Failure.of_list ~n:5 [ (0, 1) ]))

let test_failure_earliest_round_wins () =
  let t = Failure.of_list ~n:5 [ (2, 10); (2, 4) ] in
  check_int "min round kept" 4 (Failure.crash_round t 2)

let test_edge_failures_counting () =
  let g = Gen.star 6 in
  (* killing one leaf of a star fails exactly 1 edge *)
  let t = Failure.of_list ~n:6 [ (3, 1) ] in
  check_int "one leaf" 1 (Failure.edge_failures g t);
  (* two leaves: 2 edges *)
  let t = Failure.of_list ~n:6 [ (3, 1); (4, 2) ] in
  check_int "two leaves" 2 (Failure.edge_failures g t)

let test_edge_failures_window () =
  let g = Gen.path 6 in
  let t = Failure.of_list ~n:6 [ (2, 5); (4, 50) ] in
  check_int "early window" 2 (Failure.edge_failures_in_window g t ~first:1 ~last:10);
  check_int "late window" 2 (Failure.edge_failures_in_window g t ~first:11 ~last:100);
  check_int "whole window" 4 (Failure.edge_failures_in_window g t ~first:1 ~last:100)

let test_random_respects_budget () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun budget ->
          let t = Failure.random g ~rng:(Prng.create 3) ~budget ~max_round:50 in
          let ef = Failure.edge_failures g t in
          check_true
            (Printf.sprintf "%s budget %d: got %d" name budget ef)
            (ef <= budget))
        [ 0; 1; 3; 8 ])
    (Lazy.force sweep_graphs)

let test_burst_single_round () =
  let g = Gen.grid 25 in
  let t = Failure.burst g ~rng:(Prng.create 4) ~budget:6 ~round:17 in
  List.iter
    (fun u -> check_int "burst round" 17 (Failure.crash_round t u))
    (Failure.crashed_nodes t)

let test_chain_schedule () =
  let t = Failure.chain ~n:10 ~first:2 ~len:3 ~round:9 in
  check_true "chain nodes" (Failure.crashed_nodes t = [ 2; 3; 4 ]);
  check_int "chain round" 9 (Failure.crash_round t 3)

let test_neighborhood_excludes_root () =
  let g = Gen.star 8 in
  let t = Failure.neighborhood g ~center:3 ~round:5 in
  (* 3's neighbourhood is {0 (root), 3}; the root must survive *)
  check_true "root survives" (Failure.crash_round t 0 = Failure.never);
  check_true "center dies" (Failure.crash_round t 3 = 5)

let test_shift () =
  let t = Failure.of_list ~n:4 [ (1, 10); (2, 3) ] in
  let s = Failure.shift t ~by:5 in
  check_int "shifted" 5 (Failure.crash_round s 1);
  check_int "clamped at 1" 1 (Failure.crash_round s 2);
  check_true "never stays never" (Failure.crash_round s 3 = Failure.never)

(* --- Metrics --- *)

let test_metrics_accounting () =
  let m = Metrics.create 3 in
  Metrics.charge m ~node:0 ~bits:10;
  Metrics.charge m ~node:0 ~bits:5;
  Metrics.charge m ~node:1 ~bits:7;
  Metrics.charge m ~node:2 ~bits:0;
  check_int "bits node 0" 15 (Metrics.bits_sent m 0);
  check_int "msgs node 0" 2 (Metrics.msgs_sent m 0);
  check_int "zero-bit send not a message" 0 (Metrics.msgs_sent m 2);
  check_int "cc is max" 15 (Metrics.cc m);
  check_int "total" 22 (Metrics.total_bits m)

let test_metrics_merge () =
  let a = Metrics.create 2 and b = Metrics.create 2 in
  Metrics.charge a ~node:0 ~bits:3;
  Metrics.note_round a 10;
  Metrics.charge b ~node:0 ~bits:4;
  Metrics.note_round b 7;
  Metrics.merge_into a b;
  check_int "merged bits" 7 (Metrics.bits_sent a 0);
  check_int "merged rounds add" 17 (Metrics.rounds a)

(* Sequential composition: the merged accounting of two sub-runs must
   read exactly as if one run had done both — per-node bits, message
   counts, rounds, and the derived cc/total. *)
let test_metrics_merge_sequential () =
  let a = Metrics.create 3 and b = Metrics.create 3 in
  Metrics.charge a ~node:0 ~bits:10;
  Metrics.charge a ~node:1 ~bits:2;
  Metrics.note_round a 5;
  Metrics.charge b ~node:1 ~bits:9;
  Metrics.charge b ~node:2 ~bits:4;
  Metrics.charge b ~node:1 ~bits:1;
  Metrics.note_round b 3;
  Metrics.merge_into a b;
  check_int "node 0 bits" 10 (Metrics.bits_sent a 0);
  check_int "node 1 bits accumulate" 12 (Metrics.bits_sent a 1);
  check_int "node 2 bits" 4 (Metrics.bits_sent a 2);
  check_int "node 1 msgs accumulate" 3 (Metrics.msgs_sent a 1);
  check_int "rounds add" 8 (Metrics.rounds a);
  check_int "cc recomputed over merged bits" 12 (Metrics.cc a);
  check_int "total is sum of both runs" 26 (Metrics.total_bits a)

(* --- Trace recorder --- *)

let test_trace_keep_silent () =
  let record keep_silent =
    let tr = Trace.create ~keep_silent () in
    Trace.observer tr ~round:1 ~node:0 [ "a" ];
    Trace.observer tr ~round:1 ~node:1 [];
    Trace.observer tr ~round:2 ~node:0 [];
    Trace.observer tr ~round:2 ~node:1 [ "b"; "c" ];
    tr
  in
  let noisy = record true and quiet = record false in
  check_int "keep_silent:true records every callback" 4 (Trace.length noisy);
  check_int "default drops silent rounds" 2 (Trace.length quiet);
  check_true "silent events kept verbatim"
    (List.exists (fun e -> e.Trace.payloads = []) (Trace.events noisy));
  check_true "no silent events in the quiet trace"
    (List.for_all (fun e -> e.Trace.payloads <> []) (Trace.events quiet))

let test_trace_per_node_views () =
  let tr = Trace.create ~keep_silent:true () in
  Trace.observer tr ~round:1 ~node:0 [ "x" ];
  Trace.observer tr ~round:2 ~node:1 [ "y" ];
  Trace.observer tr ~round:3 ~node:0 [];
  Trace.observer tr ~round:4 ~node:0 [ "z"; "w" ];
  let mine = Trace.broadcasts_of tr ~node:0 in
  check_int "broadcasts_of filters by node" 3 (List.length mine);
  check_true "broadcasts_of chronological"
    (List.map (fun e -> e.Trace.round) mine = [ 1; 3; 4 ]);
  check_true "rounds_active skips silent rounds"
    (Trace.rounds_active tr ~node:0 = [ 1; 4 ]);
  check_true "rounds_active other node" (Trace.rounds_active tr ~node:1 = [ 2 ])

(* --- Engine semantics --- *)

(* A probe protocol: every node broadcasts its id each round and records
   everything it hears as (round, sender) pairs. *)
type probe = { mutable heard : (int * int) list }

let probe_protocol ~n:_ ~bits =
  {
    Engine.init = (fun _ ~rng:_ -> { heard = [] });
    step =
      (fun ~round ~me ~state ~inbox ->
        List.iter (fun (s, _) -> state.heard <- (round, s) :: state.heard) inbox;
        (state, [ me ]));
    msg_bits = (fun _ -> bits);
    root_done = (fun _ -> false);
    wake = Engine.every_round;
  }

let test_engine_delivery_next_round () =
  let g = Gen.path 3 in
  let states, _ =
    Engine.run ~graph:g ~failures:(Failure.none ~n:3) ~max_rounds:3 ~seed:0
      (probe_protocol ~n:3 ~bits:1)
  in
  (* node 1 hears node 0 and 2 starting at round 2 *)
  check_true "nothing in round 1" (not (List.mem (1, 0) states.(1).heard));
  check_true "delivery at round 2" (List.mem (2, 0) states.(1).heard);
  check_true "both neighbors" (List.mem (2, 2) states.(1).heard);
  (* non-neighbors never deliver *)
  check_true "no skip-hop delivery" (not (List.exists (fun (_, s) -> s = 2) states.(0).heard))

let test_engine_crash_stops_sending () =
  let g = Gen.path 3 in
  let failures = Failure.of_list ~n:3 [ (2, 2) ] in
  let states, _ =
    Engine.run ~graph:g ~failures ~max_rounds:5 ~seed:0 (probe_protocol ~n:3 ~bits:1)
  in
  (* node 2 sent in round 1 (delivered round 2) but not afterwards *)
  check_true "in-flight message delivered" (List.mem (2, 2) states.(1).heard);
  check_true "no post-crash sends"
    (not (List.exists (fun (r, s) -> s = 2 && r > 2) states.(1).heard))

let test_engine_crashed_receive_nothing () =
  let g = Gen.path 3 in
  let failures = Failure.of_list ~n:3 [ (2, 1) ] in
  let states, _ =
    Engine.run ~graph:g ~failures ~max_rounds:4 ~seed:0 (probe_protocol ~n:3 ~bits:1)
  in
  check_true "crashed node never stepped" (states.(2).heard = [])

(* A schedule for fewer nodes than the graph has is rejected up front,
   as run_reference's bounds-checked lookups do, not read past its end. *)
let test_engine_short_schedule_rejected () =
  Alcotest.check_raises "n-1 schedule" (Invalid_argument "Engine: failure schedule size mismatch")
    (fun () ->
      ignore
        (Engine.run ~graph:(Gen.path 3) ~failures:(Failure.none ~n:2) ~max_rounds:3 ~seed:0
           (probe_protocol ~n:3 ~bits:1)))

let test_engine_bit_metering () =
  let g = Gen.ring 4 in
  let _, m =
    Engine.run ~graph:g ~failures:(Failure.none ~n:4) ~max_rounds:5 ~seed:0
      (probe_protocol ~n:4 ~bits:3)
  in
  (* every node sends 3 bits x 5 rounds *)
  check_int "metering" 15 (Metrics.bits_sent m 0);
  check_int "cc" 15 (Metrics.cc m);
  check_int "rounds" 5 (Metrics.rounds m)

let test_engine_root_done_halts () =
  let g = Gen.path 4 in
  let proto =
    {
      Engine.init = (fun _ ~rng:_ -> ref 0);
      step = (fun ~round ~me:_ ~state ~inbox:_ -> state := round; (state, []));
      msg_bits = (fun _ -> 0);
      root_done = (fun s -> !s >= 3);
      wake = Engine.every_round;
    }
  in
  let _, m = Engine.run ~graph:g ~failures:(Failure.none ~n:4) ~max_rounds:100 ~seed:0 proto in
  check_int "halted at 3" 3 (Metrics.rounds m)

let test_engine_per_node_rng_deterministic () =
  let g = Gen.path 3 in
  let proto seedcell =
    {
      Engine.init = (fun u ~rng -> seedcell.(u) <- Prng.int rng 1000000; ());
      step = (fun ~round:_ ~me:_ ~state ~inbox:_ -> (state, []));
      msg_bits = (fun _ -> 0);
      root_done = (fun _ -> false);
      wake = Engine.every_round;
    }
  in
  let a = Array.make 3 0 and b = Array.make 3 0 and c = Array.make 3 0 in
  ignore (Engine.run ~graph:g ~failures:(Failure.none ~n:3) ~max_rounds:1 ~seed:5 (proto a));
  ignore (Engine.run ~graph:g ~failures:(Failure.none ~n:3) ~max_rounds:1 ~seed:5 (proto b));
  ignore (Engine.run ~graph:g ~failures:(Failure.none ~n:3) ~max_rounds:1 ~seed:6 (proto c));
  check_true "same seed same coins" (a = b);
  check_true "different seed different coins" (a <> c);
  check_true "nodes get distinct streams" (a.(0) <> a.(1) || a.(1) <> a.(2))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"random failure schedules stay within budget on random graphs"
      ~count:60
      (triple (int_range 5 40) (int_range 0 15) small_int)
      (fun (n, budget, seed) ->
        let g = Topo.random_connected ~n ~p:0.1 ~seed in
        let t = Failure.random g ~rng:(Prng.create (seed + 1)) ~budget ~max_round:30 in
        Failure.edge_failures g t <= budget);
    Test.make ~name:"shift then shift composes" ~count:100
      (pair (int_range 1 20) (int_range 1 20))
      (fun (a, b) ->
        let t = Failure.of_list ~n:3 [ (1, 50) ] in
        let one = Failure.shift (Failure.shift t ~by:a) ~by:b in
        let two = Failure.shift t ~by:(a + b) in
        Failure.crash_round one 1 = Failure.crash_round two 1);
  ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("failure: none", test_failure_none);
      ("failure: of_list", test_failure_of_list);
      ("failure: root protected", test_failure_rejects_root);
      ("failure: earliest round wins", test_failure_earliest_round_wins);
      ("failure: edge counting", test_edge_failures_counting);
      ("failure: edge window", test_edge_failures_window);
      ("failure: random budget", test_random_respects_budget);
      ("failure: burst", test_burst_single_round);
      ("failure: chain", test_chain_schedule);
      ("failure: neighborhood excludes root", test_neighborhood_excludes_root);
      ("failure: shift", test_shift);
      ("metrics: accounting", test_metrics_accounting);
      ("metrics: merge", test_metrics_merge);
      ("metrics: merge = sequential composition", test_metrics_merge_sequential);
      ("trace: keep_silent on/off", test_trace_keep_silent);
      ("trace: per-node views", test_trace_per_node_views);
      ("engine: delivery next round", test_engine_delivery_next_round);
      ("engine: crash stops sending", test_engine_crash_stops_sending);
      ("engine: crashed nodes inert", test_engine_crashed_receive_nothing);
      ("engine: short crash schedule rejected", test_engine_short_schedule_rejected);
      ("engine: bit metering", test_engine_bit_metering);
      ("engine: root_done halts", test_engine_root_done_halts);
      ("engine: per-node rng", test_engine_per_node_rng_deterministic);
    ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
