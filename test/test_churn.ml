(* Tests for lib/churn: topology generations (Membership), churn
   schedules (Schedule) and the scenario runner (Scenario).  The
   load-bearing properties:

   - memberships are pure functions of (family, n, seed) and the event
     history — equal seeds evolve identically, and the generation-keyed
     digest changes on every advance;
   - schedule draws never depend on the backend, so equal seeds subject
     every backend to the same joins and crashes;
   - the scenario matrix is replay-deterministic end to end: identical
     seeds produce identical percentile reports. *)

open Ftagg
open Helpers

let edge_list g = List.rev (Graph.fold_edges (fun u v acc -> (u, v) :: acc) g [])

(* --- membership --- *)

let test_membership_base () =
  let m = Membership.create ~family:Topo.Grid ~n:16 ~seed:7 in
  let base = Topo.build Topo.Grid ~n:16 ~seed:7 in
  check_int "generation 0" 0 (Membership.generation m);
  check_int "base size" 16 (Membership.total_n m);
  check_true "generation 0 is exactly the base graph"
    (edge_list (Membership.graph m) = edge_list base);
  check_int "nobody retired" 0 (List.length (Membership.retired m));
  check_int "everyone live" 16 (List.length (Membership.live m));
  check_true "retirement schedule is empty"
    (Failure.to_list (Membership.retirement m) = [])

let test_membership_joins_and_leaves () =
  let m = Membership.create ~family:Topo.Grid ~n:16 ~seed:7 in
  let m, node = Membership.join m in
  check_int "join takes the next fresh id" 16 node;
  check_int "id space grew" 17 (Membership.total_n m);
  check_int "generation bumped" 1 (Membership.generation m);
  let g = Membership.graph m in
  check_int "joined node has 2 attachment edges" 2 (Graph.degree g node);
  check_true "attachment targets are live base nodes"
    (List.for_all (fun v -> v < 16) (Graph.neighbors g node));
  let m = Membership.leave m ~node:5 in
  check_true "left node is retired" (Membership.retired m = [ 5 ]);
  check_int "left node stays in the graph" (Graph.degree g 5)
    (Graph.degree (Membership.graph m) 5);
  check_true "left node is not live" (not (List.mem 5 (Membership.live m)));
  check_true "retirement crashes it at round 1"
    (Failure.to_list (Membership.retirement m) = [ (5, 1) ]);
  Alcotest.check_raises "the root never leaves"
    (Invalid_argument "Membership.leave: the root never leaves") (fun () ->
      ignore (Membership.leave m ~node:Graph.root));
  Alcotest.check_raises "double retirement rejected"
    (Invalid_argument "Membership.leave: node already retired") (fun () ->
      ignore (Membership.leave m ~node:5))

let test_membership_determinism () =
  let evolve () =
    let m = ref (Membership.create ~family:Topo.Grid ~n:16 ~seed:3) in
    for _ = 1 to 4 do
      m := Membership.advance !m ~joins:2 ~leaves:1
    done;
    !m
  in
  let a = evolve () and b = evolve () in
  check_true "equal seeds evolve identically" (Membership.key a = Membership.key b);
  check_true "graphs identical" (edge_list (Membership.graph a) = edge_list (Membership.graph b));
  check_true "live sets identical" (Membership.live a = Membership.live b);
  let c = Membership.advance (Membership.create ~family:Topo.Grid ~n:16 ~seed:4) ~joins:2 ~leaves:1 in
  check_true "different seeds diverge" (Membership.key a <> Membership.key c)

let test_membership_key_invalidation () =
  let m = Membership.create ~family:Topo.Grid ~n:16 ~seed:7 in
  let keys = ref [ Membership.key m ] in
  let m1 = Membership.advance m ~joins:1 ~leaves:0 in
  keys := Membership.key m1 :: !keys;
  (* an advance with zero effective events still bumps the generation
     and must still change the key — staleness is about admission time,
     not graph shape *)
  let m2 = Membership.advance m1 ~joins:0 ~leaves:0 in
  keys := Membership.key m2 :: !keys;
  check_int "all keys distinct" 3 (List.length (List.sort_uniq compare !keys));
  check_true "key carries the generation prefix"
    (String.length (Membership.key m2) > 3 && String.sub (Membership.key m2) 0 3 = "g2:")

(* The key pinned byte-exact over two generations with joins and leaves:
   it keys the service's cache across processes. *)
let test_membership_key_pinned () =
  let m = Membership.create ~family:Topo.Grid ~n:16 ~seed:7 in
  let m = Membership.advance m ~joins:2 ~leaves:1 in
  let m = Membership.advance m ~joins:1 ~leaves:1 in
  Alcotest.(check string) "two-generation key" "g2:5d7336d00afee439" (Membership.key m)

let test_merge_failures () =
  let a = Failure.of_list ~n:4 [ (1, 5); (2, 3) ] in
  let b = Failure.of_list ~n:4 [ (1, 2); (3, 7) ] in
  let merged = Failure.crash_rounds (Membership.merge_failures a b) in
  check_int "earlier round wins" 2 merged.(1);
  check_int "a-only entry kept" 3 merged.(2);
  check_int "b-only entry kept" 7 merged.(3);
  check_true "unmentioned node never crashes" (merged.(0) = Failure.never);
  Alcotest.check_raises "size mismatch rejected"
    (Invalid_argument "Membership.merge_failures: schedules over different node counts")
    (fun () -> ignore (Membership.merge_failures a (Failure.none ~n:5)))

(* --- schedules --- *)

let test_schedule_names () =
  check_int "four schedules" 4 (List.length Schedule.all);
  List.iter
    (fun s ->
      match Schedule.of_name (Schedule.name s) with
      | Some s' -> check_true ("name round-trips: " ^ Schedule.name s) (Schedule.kind s' = Schedule.kind s)
      | None -> Alcotest.fail ("of_name failed on " ^ Schedule.name s))
    Schedule.all;
  check_true "dashes accepted" (Schedule.of_name "clear-skies" <> None);
  check_true "unknown rejected" (Schedule.of_name "sunny" = None)

let test_schedule_clear_skies () =
  let g = Topo.build Topo.Grid ~n:16 ~seed:7 in
  for gen = 0 to 4 do
    check_true "clear skies never churns"
      (Schedule.churn Schedule.clear_skies ~generation:gen ~seed:7 = (0, 0));
    let failures, online =
      Schedule.failures Schedule.clear_skies ~graph:g ~generation:gen ~seed:7 ~budget:4 ~window:30
    in
    check_true "clear skies never crashes" (Failure.to_list failures = []);
    check_true "no online adversary" (online = None)
  done

let test_schedule_determinism () =
  let g = Topo.build Topo.Grid ~n:16 ~seed:7 in
  List.iter
    (fun s ->
      for gen = 0 to 3 do
        check_true
          (Printf.sprintf "%s churn deterministic at g%d" (Schedule.name s) gen)
          (Schedule.churn s ~generation:gen ~seed:5 = Schedule.churn s ~generation:gen ~seed:5);
        let f1, _ = Schedule.failures s ~graph:g ~generation:gen ~seed:5 ~budget:4 ~window:30 in
        let f2, _ = Schedule.failures s ~graph:g ~generation:gen ~seed:5 ~budget:4 ~window:30 in
        check_true
          (Printf.sprintf "%s crash draw deterministic at g%d" (Schedule.name s) gen)
          (Failure.to_list f1 = Failure.to_list f2)
      done)
    Schedule.all;
  (* steady churn must actually churn, and burst must actually burst *)
  let some_churn =
    List.exists
      (fun gen -> Schedule.churn Schedule.steady_churn ~generation:gen ~seed:5 <> (0, 0))
      [ 1; 2; 3; 4 ]
  in
  check_true "steady churn churns" some_churn;
  let some_burst =
    List.exists
      (fun gen ->
        let f, _ =
          Schedule.failures Schedule.burst_failure ~graph:g ~generation:gen ~seed:5 ~budget:4
            ~window:30
        in
        Failure.to_list f <> [])
      [ 0; 1; 2; 3; 4 ]
  in
  check_true "burst failure bursts" some_burst

(* --- scenario runner --- *)

let small_spec =
  {
    Scenario.default with
    Scenario.n = 16;
    backends = [ "agg"; "flowupdating" ];
    schedules = [ Schedule.clear_skies; Schedule.steady_churn ];
    generations = 2;
    runs_per_generation = 2;
    seed = 11;
  }

let test_scenario_matrix () =
  let registry = Registry.create () in
  let reports = Scenario.run ~registry small_spec in
  check_int "one report per cell" 4 (List.length reports);
  List.iter
    (fun (r : Scenario.report) ->
      check_int (r.Scenario.r_schedule ^ ": all runs accounted") 4 r.Scenario.r_runs;
      if r.Scenario.r_schedule = "clear_skies" then begin
        check_int (r.Scenario.r_backend ^ ": clear skies completes everything") 4
          r.Scenario.r_completed;
        check_int (r.Scenario.r_backend ^ ": clear skies never crashes") 0 r.Scenario.r_crashes
      end;
      if r.Scenario.r_completed > 0 then begin
        let p = r.Scenario.r_latency in
        check_true (r.Scenario.r_backend ^ ": percentiles ordered")
          (p.Scenario.p90 <= p.Scenario.p95
          && p.Scenario.p95 <= p.Scenario.p99
          && p.Scenario.p99 <= p.Scenario.p100);
        check_true (r.Scenario.r_backend ^ ": node bandwidth measured")
          (Float.is_finite r.Scenario.r_p95_node_bits)
      end)
    reports;
  (* the histograms really land in the supplied registry *)
  check_true "latency histogram in the registry"
    (Registry.histogram registry
       ~labels:[ ("schedule", "clear_skies"); ("backend", "agg") ]
       "scenario_latency_rounds"
    <> None);
  (* agg is exact: under clear skies its worst relative error is 0 *)
  let agg_clear =
    List.find
      (fun (r : Scenario.report) ->
        r.Scenario.r_schedule = "clear_skies" && r.Scenario.r_backend = "agg")
      reports
  in
  check_true "exact backend, clear skies: zero error" (agg_clear.Scenario.r_max_rel_err = 0.0)

let test_scenario_determinism () =
  let a = Scenario.run small_spec and b = Scenario.run small_spec in
  check_true "equal seeds give identical reports" (a = b);
  let c = Scenario.run { small_spec with Scenario.seed = 12 } in
  check_true "different seed, same shape" (List.length c = List.length a)

let test_scenario_json_and_table () =
  let reports = Scenario.run small_spec in
  let json = Bench_io.List (List.map Scenario.report_to_json reports) in
  (match Bench_io.of_string (Bench_io.to_string json) with
  | Ok j -> check_true "report JSON round-trips" (j = json)
  | Error e -> Alcotest.fail e);
  let rendered = Table.render (Scenario.table reports) in
  check_true "table mentions every schedule"
    (List.for_all
       (fun (r : Scenario.report) -> string_contains ~needle:r.Scenario.r_schedule rendered)
       reports);
  check_true "table has the percentile columns" (string_contains ~needle:"lat p95" rendered)

let test_scenario_bad_input () =
  Alcotest.check_raises "unknown backend"
    (Invalid_argument "Scenario.run: unknown backend \"warp\"") (fun () ->
      ignore (Scenario.run { small_spec with Scenario.backends = [ "warp" ] }));
  Alcotest.check_raises "empty schedule list"
    (Invalid_argument "Scenario.run: empty backend or schedule list") (fun () ->
      ignore (Scenario.run { small_spec with Scenario.schedules = [] }))

let suite =
  [
    Alcotest.test_case "membership: generation 0 is the base graph" `Quick test_membership_base;
    Alcotest.test_case "membership: joins attach, leaves retire" `Quick
      test_membership_joins_and_leaves;
    Alcotest.test_case "membership: seeded evolution is deterministic" `Quick
      test_membership_determinism;
    Alcotest.test_case "membership: every advance changes the key" `Quick
      test_membership_key_invalidation;
    Alcotest.test_case "membership: key pinned byte-exact" `Quick test_membership_key_pinned;
    Alcotest.test_case "membership: merge_failures takes the earlier crash" `Quick
      test_merge_failures;
    Alcotest.test_case "schedule: names round-trip" `Quick test_schedule_names;
    Alcotest.test_case "schedule: clear skies is truly clear" `Quick test_schedule_clear_skies;
    Alcotest.test_case "schedule: draws are seed-deterministic" `Quick test_schedule_determinism;
    Alcotest.test_case "scenario: matrix shape + completion + percentiles" `Quick
      test_scenario_matrix;
    Alcotest.test_case "scenario: replay determinism" `Quick test_scenario_determinism;
    Alcotest.test_case "scenario: JSON + table rendering" `Quick test_scenario_json_and_table;
    Alcotest.test_case "scenario: bad input rejected" `Quick test_scenario_bad_input;
  ]
