(* lib/scale: streaming CSR graphs, the partitioned executor and memory
   metering.

   The load-bearing suite is the differential pin: the executor must be
   byte-identical to Engine.run_reference, the every-node spec — same
   results, same per-node bit/msg accounting, same round counts — on the
   same topology/seed/failures, for every domain count. *)

open Ftagg
open Helpers

let seed = 11

(* ---------------------------------------------------------------- *)
(* Bigraph                                                           *)
(* ---------------------------------------------------------------- *)

(* [Bigraph.of_iter] ([Csr.of_iter]) against rows computed here: each
   node's emitted neighbours, sorted and deduplicated. *)
let model_rows ~n iter =
  let rows = Array.make n [] in
  iter (fun u v ->
      rows.(u) <- v :: rows.(u);
      rows.(v) <- u :: rows.(v));
  Array.map (List.sort_uniq compare) rows

let row g u =
  let r = ref [] in
  Bigraph.iter_neighbors g u (fun w -> r := w :: !r);
  List.rev !r

let of_iter_matches_model ~n iter =
  let g = Bigraph.of_iter ~n iter in
  let rows = model_rows ~n iter in
  Array.init n (row g) = rows
  && 2 * Bigraph.num_edges g = Array.fold_left (fun k r -> k + List.length r) 0 rows

(* Every edge twice more, once reversed: duplicates in both directions. *)
let doubled iter emit =
  iter (fun u v ->
      emit u v;
      emit v u;
      emit u v)

let test_bigraph_matches_csr () =
  List.iter
    (fun (name, fam) ->
      List.iter
        (fun n ->
          let iter = Topo.iter_edges fam ~n ~seed in
          check_true
            (Printf.sprintf "%s n=%d: streamed CSR = model rows" name n)
            (of_iter_matches_model ~n iter);
          check_true
            (Printf.sprintf "%s n=%d: doubled emission = model rows" name n)
            (of_iter_matches_model ~n (doubled iter));
          check_true
            (Printf.sprintf "%s n=%d: the generator is of_iter of its emission" name n)
            (Topo.build fam ~n ~seed = Bigraph.of_iter ~n iter))
        [ 12; 40 ])
    (Topo.all_families ~seed);
  (* 89,700 endpoints: past six chunk boundaries (2^10, 2^11, ...). *)
  check_true "complete n=300 = model rows"
    (of_iter_matches_model ~n:300 (Topo.iter_edges Topo.Complete ~n:300 ~seed));
  check_true "complete n=300 doubled = model rows"
    (of_iter_matches_model ~n:300 (doubled (Topo.iter_edges Topo.Complete ~n:300 ~seed)))

let test_bigraph_dedup_and_rejects () =
  let bg = Bigraph.of_iter ~n:3 (fun emit -> emit 0 1; emit 1 0; emit 0 1; emit 1 2) in
  check_int "duplicates collapse" 2 (Bigraph.num_edges bg);
  Alcotest.check_raises "self-loop" (Invalid_argument "Csr.of_iter: self-loop") (fun () ->
      ignore (Bigraph.of_iter ~n:3 (fun emit -> emit 1 1)));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Csr.of_iter: endpoint out of range") (fun () ->
      ignore (Bigraph.of_iter ~n:3 (fun emit -> emit 0 3)))

let test_degree_histogram () =
  let bg = Topo.star 10 in
  check_true "star histogram" (Bigraph.degree_histogram bg = [ (1, 9); (9, 1) ])

let test_validate_specs () =
  List.iter
    (fun spec ->
      let bg = Bigraph.build spec ~n:300 ~seed in
      match Bigraph.validate ~spec bg with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s invalid: %s" (Bigraph.spec_name spec) e)
    [ Bigraph.Grid; Bigraph.Torus; Bigraph.Random_regular 4; Bigraph.Pref_attach 2 ]

let test_validate_disconnected () =
  let bg = Bigraph.of_iter ~n:4 (fun emit -> emit 0 1) in
  match Bigraph.validate bg with
  | Ok () -> Alcotest.fail "disconnected graph validated"
  | Error e -> check_true "mentions disconnection" (string_contains ~needle:"disconnected" e)

let test_pref_attach_shape () =
  let m = 2 in
  let bg = Bigraph.build (Bigraph.Pref_attach m) ~n:500 ~seed in
  check_int "n" 500 (Bigraph.n bg);
  check_true "connected" (Path.is_connected bg);
  check_true "root is a hub" (Bigraph.degree bg Graph.root >= m);
  let min_deg = ref max_int in
  for u = 0 to 499 do
    min_deg := min !min_deg (Bigraph.degree bg u)
  done;
  check_true "min degree >= 1" (!min_deg >= 1);
  (* determinism *)
  let bg' = Bigraph.build (Bigraph.Pref_attach m) ~n:500 ~seed in
  check_true "same seed, same graph" (bg = bg')

let test_pseudo_diameter () =
  List.iter
    (fun (name, g) ->
      let exact = match Path.diameter g with Some d -> d | None -> assert false in
      check_int (name ^ " pseudo-diameter exact") exact (Bigraph.pseudo_diameter g))
    [ ("path", Topo.path 50); ("grid", Topo.grid 49); ("star", Topo.star 20);
      ("binary_tree", Topo.binary_tree 31) ]

(* ---------------------------------------------------------------- *)
(* Mem                                                               *)
(* ---------------------------------------------------------------- *)

let test_mem_meter () =
  check_true "live bytes positive" (Scale_mem.live_bytes () > 0);
  (match Scale_mem.peak_rss_kb () with
  | Some kb -> check_true "peak rss positive" (kb > 0)
  | None -> ());
  let m = Scale_mem.create ~limit_bytes:1 ~check_every:1 ~n:10 () in
  (try
     Scale_mem.check m ~round:1;
     Alcotest.fail "ceiling not enforced"
   with Scale_mem.Ceiling_exceeded { limit_bytes; live_bytes; round } ->
     check_int "limit" 1 limit_bytes;
     check_int "round" 1 round;
     check_true "live > limit" (live_bytes > limit_bytes));
  check_true "peak recorded" (Scale_mem.peak_live_bytes m > 0);
  (* off-cadence rounds are not sampled *)
  let m2 = Scale_mem.create ~limit_bytes:1 ~check_every:64 ~n:10 () in
  Scale_mem.check m2 ~round:63

(* ---------------------------------------------------------------- *)
(* Executor: differential pin vs Engine.run_reference                *)
(* ---------------------------------------------------------------- *)

(* The reference side is the every-node spec, so the executor's frontier
   rounds are checked against it, not against another frontier run. *)
let check_pin name ~graph ~failures ~params ~domains =
  let spec = Scale_run.reference ~graph ~failures ~params ~seed in
  let scale = Scale_run.agg ~domains ~graph ~failures ~params ~seed () in
  check_true (name ^ ": result") (spec.Scale_run.result = scale.Scale_run.result);
  check_int (name ^ ": rounds") spec.Scale_run.rounds scale.Scale_run.rounds;
  check_int (name ^ ": cc") (Metrics.cc spec.Scale_run.metrics) (Metrics.cc scale.Scale_run.metrics);
  for u = 0 to Graph.n graph - 1 do
    check_int
      (Printf.sprintf "%s: bits(%d)" name u)
      (Metrics.bits_sent spec.Scale_run.metrics u)
      (Metrics.bits_sent scale.Scale_run.metrics u);
    check_int
      (Printf.sprintf "%s: msgs(%d)" name u)
      (Metrics.msgs_sent spec.Scale_run.metrics u)
      (Metrics.msgs_sent scale.Scale_run.metrics u)
  done;
  check_true (name ^ ": agrees") (Scale_run.agrees spec scale)

let test_differential_pin () =
  List.iter
    (fun (fname, fam) ->
      let n = 24 in
      let graph = Topo.build fam ~n ~seed in
      let params = params_of ~t:1 graph ~inputs:(default_inputs n) in
      List.iter
        (fun domains ->
          let name = Printf.sprintf "%s d=%d" fname domains in
          check_pin name ~graph ~failures:(Failure.none ~n) ~params ~domains;
          check_pin (name ^ " +crash") ~graph
            ~failures:(Failure.kill_nodes ~n ~nodes:[ n - 1; n / 2 ] ~round:3)
            ~params ~domains)
        [ 1; 2; 4 ])
    [ ("grid", Topo.Grid); ("torus", Topo.Torus); ("regular", Topo.Random_regular 4) ]

let test_pin_across_seeds () =
  let n = 30 in
  let graph = Topo.build (Topo.Random 0.08) ~n ~seed:3 in
  let params = params_of ~t:1 graph ~inputs:(default_inputs n) in
  List.iter
    (fun s ->
      let out = Run.agg ~graph ~failures:(Failure.none ~n) ~params ~seed:s () in
      let scale =
        Scale_run.agg ~domains:3 ~graph ~failures:(Failure.none ~n) ~params ~seed:s ()
      in
      check_true (Printf.sprintf "seed %d result" s) (out.Run.result = scale.Scale_run.result);
      check_int
        (Printf.sprintf "seed %d total bits" s)
        (Metrics.total_bits out.Run.common.Run.metrics)
        (Metrics.total_bits scale.Scale_run.metrics))
    [ 1; 2; 5; 42 ]

let test_scale_run_correct () =
  let n = 200 in
  let bg = Bigraph.build (Bigraph.Random_regular 4) ~n ~seed in
  let inputs = default_inputs n in
  let params = Scale_run.params ~graph:bg ~inputs () in
  let out = Scale_run.agg ~domains:2 ~graph:bg ~failures:(Failure.none ~n) ~params ~seed () in
  check_true "failure-free AGG computes the sum"
    (out.Scale_run.result = Agg.Value (Scale_run.expected_sum params))

let test_partitions_cover () =
  let parts = Scale_executor.partitions ~n:10 ~domains:3 in
  check_true "partition bounds" (parts = [| (0, 3); (3, 6); (6, 10) |]);
  let parts = Scale_executor.partitions ~n:5 ~domains:8 in
  let covered = Array.make 5 0 in
  Array.iter
    (fun (lo, hi) ->
      for u = lo to hi - 1 do
        covered.(u) <- covered.(u) + 1
      done)
    parts;
  Array.iteri (fun u c -> check_int (Printf.sprintf "node %d owned once" u) 1 c) covered

let test_frontier_edges () =
  let bg = Topo.path 10 in
  check_int "path split in two" 1 (Scale_executor.frontier_edges bg ~domains:2);
  check_int "one partition, no frontier" 0 (Scale_executor.frontier_edges bg ~domains:1)

let test_executor_counters () =
  let reg = Registry.create () in
  let n = 60 in
  let bg = Bigraph.build Bigraph.Grid ~n ~seed in
  let inputs = default_inputs n in
  let params = Scale_run.params ~graph:bg ~inputs () in
  let meter = Scale_mem.create ~registry:reg ~n () in
  let out =
    Scale_run.agg ~domains:2 ~registry:reg ~meter ~graph:bg ~failures:(Failure.none ~n) ~params
      ~seed ()
  in
  check_int "rounds counter" out.Scale_run.rounds (Registry.counter reg "scale_rounds_total");
  check_true "domains gauge" (Registry.gauge reg "scale_domains" = Some 2.0);
  check_true "live bytes gauge"
    (match Registry.gauge reg "scale_live_bytes" with Some b -> b > 0.0 | None -> false);
  check_true "minor words gauge present"
    (Registry.gauge reg "scale_minor_words_per_round" <> None)

(* ---------------------------------------------------------------- *)
(* Layout: BFS order from the root, dealt over the partitions        *)
(* ---------------------------------------------------------------- *)

let layout_specs =
  [ Bigraph.Grid; Bigraph.Torus; Bigraph.Random_regular 4; Bigraph.Pref_attach 2 ]

let test_layout_shape () =
  List.iter
    (fun spec ->
      List.iter
        (fun domains ->
          let n = 60 in
          let bg = Bigraph.build spec ~n ~seed in
          let l = Scale_layout.make bg ~domains in
          let name = Printf.sprintf "%s d=%d" (Bigraph.spec_name spec) domains in
          let caller v = l.Scale_layout.caller_id.{v} in
          check_int (name ^ ": root stays 0") Graph.root (caller Graph.root);
          let layout_id = Array.make n (-1) in
          for v = 0 to n - 1 do
            layout_id.(caller v) <- v
          done;
          check_true (name ^ ": bijection") (Array.for_all (fun v -> v >= 0) layout_id);
          let lg = l.Scale_layout.graph in
          check_int (name ^ ": edges") (Bigraph.num_edges bg) (Bigraph.num_edges lg);
          for v = 0 to n - 1 do
            check_true
              (Printf.sprintf "%s: row %d keeps its source order" name v)
              (row lg v = List.map (fun w -> layout_id.(w)) (row bg (caller v)))
          done;
          (* Each partition holds its share of every BFS level, levels in
             order; with n a multiple of [domains] the shares differ by at
             most one node. *)
          let dist = Array.make n (-1) and queue = Queue.create () in
          dist.(Graph.root) <- 0;
          Queue.push Graph.root queue;
          while not (Queue.is_empty queue) do
            let u = Queue.pop queue in
            Bigraph.iter_neighbors bg u (fun w ->
                if dist.(w) < 0 then begin
                  dist.(w) <- dist.(u) + 1;
                  Queue.push w queue
                end)
          done;
          let ecc = Array.fold_left max 0 dist in
          let parts = Scale_executor.partitions ~n ~domains in
          let share = Array.make_matrix domains (ecc + 1) 0 in
          Array.iteri
            (fun k (lo, hi) ->
              for v = lo to hi - 1 do
                let level = dist.(caller v) in
                share.(k).(level) <- share.(k).(level) + 1;
                if v > lo then
                  check_true
                    (Printf.sprintf "%s: partition %d levels in order at %d" name k v)
                    (dist.(caller (v - 1)) <= level)
              done)
            parts;
          for level = 0 to ecc do
            let counts = Array.map (fun row -> row.(level)) share in
            check_true
              (Printf.sprintf "%s: level %d dealt evenly" name level)
              (Array.fold_left max 0 counts - Array.fold_left min max_int counts <= 1)
          done)
        [ 1; 2; 3; 4 ])
    layout_specs

let test_layout_small_and_disconnected () =
  (* more partitions than nodes: empty ranges are skipped, the root still
     lands on 0 *)
  List.iter
    (fun n ->
      let l = Scale_layout.make (Bigraph.build Bigraph.Grid ~n ~seed) ~domains:4 in
      check_int (Printf.sprintf "n=%d < domains: root stays 0" n) 0 l.Scale_layout.caller_id.{0};
      check_true
        (Printf.sprintf "n=%d < domains: bijection" n)
        (List.sort compare (List.init n (fun v -> l.Scale_layout.caller_id.{v}))
        = List.init n Fun.id))
    [ 2; 3 ];
  (* nodes the BFS never reaches follow the reached ones, ascending *)
  let bg = Bigraph.of_iter ~n:6 (fun emit -> emit 0 3; emit 3 5; emit 1 4) in
  let l = Scale_layout.make bg ~domains:1 in
  check_true "unreached nodes last, ascending"
    (List.init 6 (fun v -> l.Scale_layout.caller_id.{v}) = [ 0; 3; 5; 1; 2; 4 ])

(* A layout's rows keep their source rows' order, so they are not
   ascending: [Graph.has_edge] and [Graph.neighbors] must not assume they
   are.  The reference is the generated graph's adjacency under the
   permutation. *)
let test_layout_unsorted_rows () =
  let n = 60 in
  let g = Bigraph.build (Bigraph.Random_regular 4) ~n ~seed in
  let l = Scale_layout.make g ~domains:2 in
  let lg = l.Scale_layout.graph and caller v = l.Scale_layout.caller_id.{v} in
  let layout_id = Array.make n (-1) in
  for v = 0 to n - 1 do
    layout_id.(caller v) <- v
  done;
  let adjacent = Array.make_matrix n n false in
  Graph.iter_edges g (fun u v ->
      adjacent.(u).(v) <- true;
      adjacent.(v).(u) <- true);
  check_true "some row is not ascending"
    (List.exists (fun v -> row lg v <> List.sort compare (row lg v)) (List.init n Fun.id));
  let all = List.init n Fun.id in
  for v = 0 to n - 1 do
    check_true
      (Printf.sprintf "neighbors %d: the source row's order" v)
      (Graph.neighbors lg v = List.map (fun w -> layout_id.(w)) (row g (caller v)));
    check_true
      (Printf.sprintf "has_edge %d: exactly the permuted adjacency" v)
      (List.filter (Graph.has_edge lg v) all
      = List.filter (fun w -> adjacent.(caller v).(caller w)) all)
  done;
  check_true "has_edge is false out of range"
    (not (Graph.has_edge lg 0 n || Graph.has_edge lg (-1) 0));
  check_int "iter_edges: each edge once, u < v" (Graph.num_edges g)
    (Graph.fold_edges (fun u v k -> if u < v then k + 1 else k) lg 0)

(* A run on the layout against the run on the generated labels, under the
   permutation: result, rounds, CC, total bits, node visits and steps,
   every node's bits and messages, and every node's parent. *)
let layout_run_matches ~spec ~n ~seed ~t ~domains ~crashes =
  let graph = Bigraph.build spec ~n ~seed in
  let params = Scale_run.params ~t ~graph ~inputs:(default_inputs n) () in
  let rng = Prng.create seed in
  let failures =
    Failure.of_list ~n
      (List.init crashes (fun _ ->
           (1 + Prng.int rng (n - 1), 1 + Prng.int rng (Agg.duration params))))
  in
  let states, metrics =
    Scale_executor.run ~domains ~graph ~failures ~max_rounds:(Agg.duration params) ~seed
      (Scale_run.protocol params)
  in
  let o = Scale_run.agg ~domains ~graph ~failures ~params ~seed () in
  let m = o.Scale_run.metrics in
  Agg.root_result states.(Graph.root) = o.Scale_run.result
  && Metrics.rounds metrics = o.Scale_run.rounds
  && Metrics.cc metrics = Metrics.cc m
  && Metrics.total_bits metrics = Metrics.total_bits m
  && Metrics.node_visits metrics = Metrics.node_visits m
  && Metrics.node_steps metrics = Metrics.node_steps m
  && List.for_all
       (fun u ->
         Metrics.bits_sent metrics u = Metrics.bits_sent m u
         && Metrics.msgs_sent metrics u = Metrics.msgs_sent m u
         && Agg.parent states.(u)
            = (match Agg.parent o.Scale_run.states.(u) with -1 -> -1 | p -> o.Scale_run.caller_id p))
       (List.init n Fun.id)

let test_layout_run_small () =
  List.iter
    (fun n ->
      check_true
        (Printf.sprintf "grid n=%d on 4 domains: layout run = generated-label run" n)
        (layout_run_matches ~spec:Bigraph.Grid ~n ~seed ~t:1 ~domains:4 ~crashes:1))
    [ 2; 3 ]

(* A trivial counting protocol for executor-mechanics tests: every node
   broadcasts its id every round. *)
let chatty_protocol ?(raise_at = -1) ?(raise_me = -1) () =
  {
    Engine.init = (fun u ~rng:_ -> u);
    step =
      (fun ~round ~me ~state ~inbox:_ ->
        if round = raise_at && me = raise_me then failwith "boom";
        (state, [ me ]));
    msg_bits = (fun _ -> 8);
    root_done = (fun _ -> false);
    wake = Engine.every_round;
  }

let test_torn_barrier () =
  let n = 40 in
  let bg = Topo.ring n in
  (try
     ignore
       (Scale_executor.run ~domains:2 ~graph:bg ~failures:(Failure.none ~n) ~max_rounds:10
          ~seed
          (chatty_protocol ~raise_at:3 ~raise_me:(n - 1) ()));
     Alcotest.fail "partition failure not propagated"
   with Scale_executor.Partition_failed { round; partition; exn } ->
     check_int "failed at round" 3 round;
     check_int "failing partition" 1 partition;
     check_true "original exn" (exn = Failure "boom"));
  (* clean abort: the executor is reusable *)
  let states, metrics =
    Scale_executor.run ~domains:2 ~graph:bg ~failures:(Failure.none ~n) ~max_rounds:5 ~seed
      (chatty_protocol ())
  in
  check_int "rounds" 5 (Metrics.rounds metrics);
  check_int "states intact" n (Array.length states)

let test_ceiling_aborts_run () =
  let n = 40 in
  let bg = Topo.ring n in
  let meter = Scale_mem.create ~limit_bytes:1 ~check_every:2 ~n () in
  (try
     ignore
       (Scale_executor.run ~domains:2 ~meter ~graph:bg ~failures:(Failure.none ~n)
          ~max_rounds:10 ~seed (chatty_protocol ()));
     Alcotest.fail "ceiling not enforced"
   with Scale_mem.Ceiling_exceeded { round; _ } -> check_int "tripped at first sample" 2 round)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"partition boundaries never change outcomes" ~count:30
      (triple (int_range 8 60) (int_range 0 1000) (int_range 2 5))
      (fun (n, s, domains) ->
        let graph = Topo.build (Topo.Random 0.1) ~n ~seed:s in
        let params = Params.make ~c:2 ~t:1 ~graph ~inputs:(Array.make n 1) () in
        let failures = Failure.none ~n in
        let base = Scale_run.agg ~domains:1 ~graph ~failures ~params ~seed:s () in
        let split = Scale_run.agg ~domains ~graph ~failures ~params ~seed:s () in
        base.Scale_run.result = split.Scale_run.result
        && base.Scale_run.rounds = split.Scale_run.rounds
        && Metrics.cc base.Scale_run.metrics = Metrics.cc split.Scale_run.metrics
        && Metrics.total_bits base.Scale_run.metrics
           = Metrics.total_bits split.Scale_run.metrics);
    Test.make ~name:"a run on the layout is the generated-label run, relabelled" ~count:60
      (quad (int_range 0 3) (int_range 0 46) (int_range 0 1000)
         (triple (int_range 1 3) (int_range 0 2) (int_range 0 3)))
      (fun (family, size, s, (t, d, crashes)) ->
        let spec = List.nth layout_specs family in
        let n = size + (match spec with Bigraph.Torus -> 9 | Bigraph.Grid -> 2 | _ -> 5) in
        layout_run_matches ~spec ~n ~seed:s ~t ~domains:(List.nth [ 1; 2; 4 ] d) ~crashes);
    (* Every family, n >= 9 (the torus's minimum). *)
    Test.make ~name:"streamed CSR equals materialised CSR rows: every family, doubled emissions"
      ~count:40
      (quad (int_range 0 10) (int_range 9 80) (int_range 0 1000) bool)
      (fun (family, n, s, twice) ->
        let families = Topo.all_families ~seed:s in
        let _, fam = List.nth families (family mod List.length families) in
        let iter = Topo.iter_edges fam ~n ~seed:s in
        of_iter_matches_model ~n (if twice then doubled iter else iter));
  ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("bigraph: streamed = materialised CSR", test_bigraph_matches_csr);
      ("bigraph: dedup and rejects", test_bigraph_dedup_and_rejects);
      ("bigraph: degree histogram", test_degree_histogram);
      ("bigraph: validate specs", test_validate_specs);
      ("bigraph: validate disconnected", test_validate_disconnected);
      ("bigraph: pref_attach shape", test_pref_attach_shape);
      ("bigraph: pseudo-diameter", test_pseudo_diameter);
      ("mem: meter and ceiling", test_mem_meter);
      ("executor: differential pin vs Engine.run", test_differential_pin);
      ("executor: pin across seeds", test_pin_across_seeds);
      ("executor: scale AGG correct", test_scale_run_correct);
      ("executor: partitions cover", test_partitions_cover);
      ("executor: frontier edges", test_frontier_edges);
      ("executor: registry counters", test_executor_counters);
      ("layout: root, bijection, row order, dealt levels", test_layout_shape);
      ("layout: n < domains, unreached nodes", test_layout_small_and_disconnected);
      ("layout: has_edge and neighbors on unsorted rows", test_layout_unsorted_rows);
      ("layout: run with n < domains", test_layout_run_small);
      ("executor: torn barrier aborts cleanly", test_torn_barrier);
      ("executor: memory ceiling aborts run", test_ceiling_aborts_run);
    ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
