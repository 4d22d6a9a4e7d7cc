(* End-to-end protocol tests: brute force, folklore, naive TAG,
   Algorithm 1 (Theorem 1), and the unknown-f doubling protocol. *)

open Ftagg
open Helpers

(* --- Brute force --- *)

let test_brute_force_exact_failure_free () =
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let params = params_of g ~inputs:(default_inputs n) in
      let o = Run.brute_force ~graph:g ~failures:(Failure.none ~n) ~params ~seed:1 () in
      check_int (name ^ ": exact") (total (default_inputs n)) (Run.value_exn o.Run.result))
    (Lazy.force sweep_graphs)

let test_brute_force_always_correct () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          let n = Graph.n g in
          let params = params_of g ~inputs:(default_inputs n) in
          let failures =
            Failure.random g ~rng:(Prng.create seed) ~budget:(n / 2) ~max_round:50
          in
          let o = Run.brute_force ~graph:g ~failures ~params ~seed () in
          check_true (name ^ ": correct under heavy failures") o.Run.common.Run.correct)
        [ 1; 2; 3; 4; 5 ])
    (Lazy.force sweep_graphs)

let test_brute_force_cc_order_n_log_n () =
  (* CC grows like N log N: every node forwards every value. *)
  let cc_of n =
    let g = Gen.grid n in
    let params = params_of g ~inputs:(default_inputs n) in
    let o = Run.brute_force ~graph:g ~failures:(Failure.none ~n) ~params ~seed:1 () in
    Metrics.cc o.Run.common.Run.metrics
  in
  let c25 = cc_of 25 and c100 = cc_of 100 in
  check_true "superlinear growth" (c100 > 3 * c25);
  check_true "within N log N scale" (c100 < 100 * 10 * 30)

(* --- Folklore and naive TAG --- *)

let test_folklore_exact_failure_free () =
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let params = params_of g ~inputs:(default_inputs n) in
      let o =
        Run.folklore ~graph:g ~failures:(Failure.none ~n) ~params
          ~mode:(Folklore.Retry 3) ~seed:1 ()
      in
      (match o.Run.f_result with
      | Folklore.Value v -> check_int (name ^ ": exact") (total (default_inputs n)) v
      | Folklore.No_clean_epoch -> Alcotest.fail (name ^ ": dirty without failures"));
      check_int (name ^ ": one epoch suffices") 1 o.Run.epochs)
    (Lazy.force sweep_graphs)

let test_folklore_retries_until_clean () =
  (* One node dies mid-epoch-1: the root must detect the dirty epoch and
     succeed on a retry. *)
  let g = Gen.grid 25 in
  let params = params_of g ~inputs:(default_inputs 25) in
  let epoch = Folklore.epoch_duration params in
  (* kill node 5 during epoch 1's aggregation but after its ack *)
  let failures = Failure.kill_nodes ~n:25 ~nodes:[ 5 ] ~round:(epoch - Params.cd params) in
  let o = Run.folklore ~graph:g ~failures ~params ~mode:(Folklore.Retry 4) ~seed:2 () in
  check_true "took more than one epoch" (o.Run.epochs > 1);
  (match o.Run.f_result with
  | Folklore.Value _ -> ()
  | Folklore.No_clean_epoch -> Alcotest.fail "never clean");
  check_true "correct" o.Run.common.Run.correct

let test_folklore_correct_random () =
  List.iter
    (fun seed ->
      let g = Gen.grid 36 in
      let params = params_of g ~inputs:(default_inputs 36) in
      let f = 6 in
      let mode = Folklore.Retry (f + 1) in
      let failures =
        Failure.random g ~rng:(Prng.create seed) ~budget:f
          ~max_round:(Folklore.duration params mode)
      in
      let o = Run.folklore ~graph:g ~failures ~params ~mode ~seed () in
      check_true "folklore correct" o.Run.common.Run.correct)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_naive_tag_breaks_under_failures () =
  (* The motivating baseline: killing an internal node mid-aggregation
     silently loses its whole subtree. *)
  let g = Gen.path 12 in
  let params = params_of g ~inputs:(default_inputs 12) in
  let cd = Params.cd params in
  (* node 1 dies after acking, before its aggregation action *)
  let failures = Failure.kill_nodes ~n:12 ~nodes:[ 1 ] ~round:((2 * cd) + 3) in
  let o = Run.folklore ~graph:g ~failures ~params ~mode:Folklore.Naive ~seed:3 () in
  match o.Run.f_result with
  | Folklore.Value v ->
    (* nodes 2..11 are disconnected (path), so "correct" would allow the
       loss; the point is the naive protocol cannot tell anything
       happened — on a ring where the subtree stays alive it is plainly
       wrong: *)
    check_int "path: subtree lost" 1 v;
    let g = Gen.ring 12 in
    let params = params_of g ~inputs:(default_inputs 12) in
    let cd = Params.cd params in
    let failures = Failure.kill_nodes ~n:12 ~nodes:[ 1 ] ~round:((2 * cd) + 3) in
    let o = Run.folklore ~graph:g ~failures ~params ~mode:Folklore.Naive ~seed:3 () in
    (match o.Run.f_result with
    | Folklore.Value v -> check_true "ring: naive TAG is incorrect" (not
        (Checker.result_correct ~graph:g ~failures ~end_round:o.Run.common.Run.rounds ~params v))
    | Folklore.No_clean_epoch -> Alcotest.fail "naive mode always outputs")
  | Folklore.No_clean_epoch -> Alcotest.fail "naive mode always outputs"

(* --- Algorithm 1 (Theorem 1) --- *)

let tradeoff_on g ~b ~f ~seed =
  let n = Graph.n g in
  let params = params_of g ~inputs:(default_inputs n) in
  let failures =
    Failure.random g ~rng:(Prng.create (seed * 3)) ~budget:f ~max_round:(b * params.Params.d)
  in
  Run.tradeoff ~graph:g ~failures ~params ~b ~f ~seed ()

let test_tradeoff_requires_b_21c () =
  let g = Gen.grid 16 in
  let params = params_of g ~inputs:(default_inputs 16) in
  Alcotest.check_raises "b >= 21c" (Invalid_argument "Tradeoff: need b >= 21c") (fun () ->
      ignore (Run.tradeoff ~graph:g ~failures:(Failure.none ~n:16) ~params ~b:41 ~f:1 ~seed:1 ()))

let test_tradeoff_exact_failure_free () =
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let params = params_of g ~inputs:(default_inputs n) in
      let o = Run.tradeoff ~graph:g ~failures:(Failure.none ~n) ~params ~b:63 ~f:4 ~seed:1 () in
      check_int (name ^ ": exact") (total (default_inputs n)) (Run.value_exn o.Run.result);
      check_true (name ^ ": accepted via a pair")
        (match o.Run.how with Tradeoff.Via_pair _ -> true | Tradeoff.Via_brute_force -> false))
    (Lazy.force sweep_graphs)

let test_theorem1_always_correct () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          let o = tradeoff_on g ~b:63 ~f:6 ~seed in
          check_true (name ^ ": Theorem 1 correctness") o.Run.common.Run.correct)
        [ 1; 2; 3; 4; 5 ])
    (Lazy.force sweep_graphs)

let test_theorem1_time_bound () =
  List.iter
    (fun (name, g) ->
      let o = tradeoff_on g ~b:63 ~f:6 ~seed:2 in
      check_true (name ^ ": TC <= b flooding rounds") (o.Run.common.Run.flooding_rounds <= 63))
    (Lazy.force sweep_graphs)

let test_tradeoff_interval_arithmetic () =
  let g = Gen.grid 64 in
  let params = params_of g ~inputs:(default_inputs 64) in
  check_int "x at b=21c" 1 (Tradeoff.intervals params ~b:42);
  check_int "x at b=40c" 2 (Tradeoff.intervals params ~b:80);
  check_int "t = 2f/x" 16 (Tradeoff.pair_t params ~b:42 ~f:8);
  check_int "t halves with x" 8 (Tradeoff.pair_t params ~b:80 ~f:8)

let test_tradeoff_survives_concentrated_burst () =
  (* All failures land in one early interval; the protocol must still
     output a correct value (possibly via a later interval or the
     brute-force fallback). *)
  let g = Gen.grid 49 in
  let params = params_of g ~inputs:(default_inputs 49) in
  List.iter
    (fun seed ->
      let failures = Failure.burst g ~rng:(Prng.create seed) ~budget:12 ~round:40 in
      let o = Run.tradeoff ~graph:g ~failures ~params ~b:120 ~f:12 ~seed () in
      check_true "correct under burst" o.Run.common.Run.correct)
    [ 1; 2; 3; 4; 5 ]

let test_tradeoff_lfc_never_accepted () =
  (* A chain failure forcing an LFC in interval 1: VERI must reject it and
     the run must still end correctly. *)
  let g = Gen.ring 30 in
  let params = params_of g ~inputs:(default_inputs 30) in
  let failures = Failure.chain ~n:30 ~first:1 ~len:8 ~round:70 in
  let o = Run.tradeoff ~graph:g ~failures ~params ~b:63 ~f:4 ~seed:4 () in
  check_true "correct despite LFC" o.Run.common.Run.correct

let test_folklore_worst_case_epochs () =
  (* one fresh crash per epoch: the folklore protocol pays one epoch per
     failure — its O(f) TC worst case *)
  let n = 25 in
  let g = Gen.grid n in
  let params = params_of g ~inputs:(default_inputs n) in
  let epoch = Folklore.epoch_duration params in
  let cd = Params.cd params in
  let crashes = 3 in
  (* node k+1 dies during epoch k+1's aggregation window (after its ack) *)
  let failures =
    Failure.of_list ~n
      (List.init crashes (fun k -> (k + 1, (k * epoch) + (2 * cd) + 10)))
  in
  let o = Run.folklore ~graph:g ~failures ~params ~mode:(Folklore.Retry (crashes + 2)) ~seed:4 () in
  check_true "paid one epoch per crash" (o.Run.epochs >= crashes);
  check_true "still correct" o.Run.common.Run.correct

(* --- Sequential (derandomized) strategy --- *)

let test_sequential_strategy_correct () =
  let g = Gen.grid 49 in
  let params = params_of g ~inputs:(default_inputs 49) in
  List.iter
    (fun seed ->
      let failures =
        Failure.random g ~rng:(Prng.create seed) ~budget:8
          ~max_round:(84 * params.Params.d)
      in
      let o =
        Run.tradeoff ~strategy:Tradeoff.Sequential ~graph:g ~failures ~params ~b:84
          ~f:8 ~seed ()
      in
      check_true "sequential correct" o.Run.common.Run.correct;
      check_true "sequential within budget" (o.Run.common.Run.flooding_rounds <= 84))
    [ 1; 2; 3 ]

let test_sequential_pays_for_dirty_intervals () =
  (* an LFC chain in interval 1 forces the sequential scan to burn that
     interval; the failure-free tail still succeeds *)
  let n = 64 in
  let w = 8 in
  let g = Gen.grid n in
  let params = params_of g ~inputs:(default_inputs n) in
  let b = 764 in
  let f = 50 in
  let t = Tradeoff.pair_t params ~b ~f in
  let kill_round = (2 * Params.cd params) + 5 in
  let failures =
    Failure.of_list ~n (List.init t (fun r -> (((r + 1) * w) + 1, kill_round)))
  in
  let seq =
    Run.tradeoff ~strategy:Tradeoff.Sequential ~graph:g ~failures ~params ~b ~f
      ~seed:1 ()
  in
  check_true "still correct" seq.Run.common.Run.correct;
  (match seq.Run.how with
  | Tradeoff.Via_pair y -> check_true "skipped the dirty interval" (y >= 2)
  | Tradeoff.Via_brute_force -> ());
  (* a clean schedule accepts at interval 1 *)
  let clean =
    Run.tradeoff ~strategy:Tradeoff.Sequential ~graph:g
      ~failures:(Failure.none ~n) ~params ~b ~f ~seed:1 ()
  in
  check_true "clean accepts immediately"
    (match clean.Run.how with Tradeoff.Via_pair 1 -> true | _ -> false)

(* --- Unknown f --- *)

let test_unknown_f_exact_failure_free () =
  let g = Gen.grid 36 in
  let params = params_of g ~inputs:(default_inputs 36) in
  let o = Run.unknown_f ~graph:g ~failures:(Failure.none ~n:36) ~params ~seed:1 () in
  check_int "exact" (total (default_inputs 36)) (Run.value_exn o.Run.result);
  check_true "accepted in slot 0"
    (match o.Run.how with Unknown_f.Via_slot 0 -> true | _ -> false)

let test_unknown_f_correct_random () =
  List.iter
    (fun seed ->
      let g = Gen.grid 36 in
      let params = params_of g ~inputs:(default_inputs 36) in
      let failures =
        Failure.random g ~rng:(Prng.create seed) ~budget:8
          ~max_round:(Unknown_f.max_rounds params)
      in
      let o = Run.unknown_f ~graph:g ~failures ~params ~seed () in
      check_true "unknown-f correct" o.Run.common.Run.correct)
    [ 1; 2; 3; 4; 5; 6 ]

let test_unknown_f_early_termination () =
  (* With few actual failures the protocol stops in an early slot, so its
     CC tracks the actual failure count, not a worst-case bound. *)
  let g = Gen.grid 64 in
  let params = params_of g ~inputs:(default_inputs 64) in
  let few = Failure.random g ~rng:(Prng.create 2) ~budget:2 ~max_round:100 in
  let o_few = Run.unknown_f ~graph:g ~failures:few ~params ~seed:2 () in
  let many = Failure.burst g ~rng:(Prng.create 3) ~budget:24 ~round:60 in
  let o_many = Run.unknown_f ~graph:g ~failures:many ~params ~seed:3 () in
  let slot = function Unknown_f.Via_slot gx -> gx | Unknown_f.Via_brute_force -> 99 in
  check_true "few failures end in an early slot" (slot o_few.Run.how <= 2);
  check_true "more failures need later slots or fallback"
    (slot o_many.Run.how >= slot o_few.Run.how);
  check_true "both correct" (o_few.Run.common.Run.correct && o_many.Run.common.Run.correct)

(* --- Interval driver pin: golden schedules --- *)

(* Algorithm 1 (both strategies) and the unknown-f doubling run the same
   AGG+VERI interval driver.  These vectors pin its exact schedule — the
   value, which interval or slot accepted, CC, rounds, total bits and
   every node's bits — on three families x two seeds x three crash
   schedules, so a change to the driver that keeps results correct but
   moves a single bit fails here. *)
let driver_fingerprint ~n result how (c : Run.common) =
  let m = c.Run.metrics in
  let per_node = Buffer.create 256 in
  for u = 0 to n - 1 do
    Printf.bprintf per_node "%d;" (Metrics.bits_sent m u)
  done;
  Printf.sprintf "v=%d how=%s cc=%d rounds=%d bits=%d %s" (Run.value_exn result) how
    (Metrics.cc m) c.Run.rounds (Metrics.total_bits m)
    (Digest.to_hex (Digest.string (Buffer.contents per_node)))

let tradeoff_vector strategy ~b ~f ~graph ~failures ~params ~seed =
  let o = Run.tradeoff ~strategy ~graph ~failures ~params ~b ~f ~seed () in
  let how =
    match o.Run.how with
    | Tradeoff.Via_pair y -> Printf.sprintf "pair#%d" y
    | Tradeoff.Via_brute_force -> "bf"
  in
  driver_fingerprint ~n:(Graph.n graph) o.Run.result how o.Run.common

let unknown_f_vector ~graph ~failures ~params ~seed =
  let o = Run.unknown_f ~graph ~failures ~params ~seed () in
  let how =
    match o.Run.how with
    | Unknown_f.Via_slot g -> Printf.sprintf "slot#%d" g
    | Unknown_f.Via_brute_force -> "bf"
  in
  driver_fingerprint ~n:(Graph.n graph) o.Run.result how o.Run.common

(* b = 200 gives five intervals and, at f = 6, pairs with t = 2. *)
let driver_runners =
  [
    ("sampled", tradeoff_vector Tradeoff.Sampled ~b:200 ~f:6);
    ("sequential", tradeoff_vector Tradeoff.Sequential ~b:200 ~f:6);
    ("unknown-f", unknown_f_vector);
  ]

(* No crashes; 6 random crashes over the first two intervals; a 4-node
   chain killed inside interval 1, after its tree is built. *)
let driver_schedules graph params ~seed =
  let n = Graph.n graph in
  let cd = Params.cd params in
  [
    Failure.none ~n;
    Failure.random graph ~rng:(Prng.create (seed * 31)) ~budget:6 ~max_round:(38 * cd);
    Failure.chain ~n ~first:1 ~len:4 ~round:((2 * cd) + 5);
  ]

let golden_driver =
  [
    ( "sampled",
      [
        "v=210 how=pair#1 cc=131 rounds=175 bits=2505 dca7e8e118542bdf561d8fde958e4d3a";
        "v=210 how=pair#1 cc=131 rounds=175 bits=2505 dca7e8e118542bdf561d8fde958e4d3a";
        "v=1 how=pair#1 cc=404 rounds=175 bits=6322 620a299c9c71364ebbdadb8ae2e49e6a";
        "v=210 how=pair#3 cc=131 rounds=707 bits=2505 dca7e8e118542bdf561d8fde958e4d3a";
        "v=179 how=pair#3 cc=131 rounds=707 bits=2243 03f26737e976ab883845e85f2cfeb56f";
        "v=1 how=pair#3 cc=96 rounds=707 bits=96 33e78a89f6ce10dd79d7846ccdb68cc9";
        "v=210 how=pair#1 cc=133 rounds=247 bits=2565 68619927d74e73e18d4d8a85d23da6d3";
        "v=210 how=pair#1 cc=133 rounds=247 bits=2565 68619927d74e73e18d4d8a85d23da6d3";
        "v=196 how=pair#2 cc=385 rounds=627 bits=6200 43fd5093a9c7af03bfb7b9117d4b7505";
        "v=210 how=pair#3 cc=133 rounds=1007 bits=2565 68619927d74e73e18d4d8a85d23da6d3";
        "v=45 how=pair#3 cc=133 rounds=1007 bits=1132 62470047ca7e2fbb1149180f76e43568";
        "v=196 how=pair#3 cc=133 rounds=1007 bits=2063 eaf3e297313284d215e934817b655182";
        "v=210 how=pair#1 cc=124 rounds=79 bits=2340 caebf221a17706ace2a0560a03d5ba82";
        "v=210 how=pair#1 cc=139 rounds=79 bits=2566 1aeeb332e357fbb84041493829a4d8c9";
        "v=196 how=pair#2 cc=683 rounds=193 bits=10860 99c6c9d502f3bf1e2b3179016092e310";
        "v=210 how=pair#3 cc=119 rounds=307 bits=2325 65dd46e3aa2815a9ec2e082f55ba1b0b";
        "v=199 how=pair#3 cc=119 rounds=307 bits=2206 f82cb388665adf247eab3062f0fac9aa";
        "v=196 how=pair#3 cc=124 rounds=307 bits=1864 bbbbc10b5de96284784e9fa4c016a526";
      ] );
    ( "sequential",
      [
        "v=210 how=pair#1 cc=131 rounds=175 bits=2505 dca7e8e118542bdf561d8fde958e4d3a";
        "v=210 how=pair#1 cc=131 rounds=175 bits=2505 dca7e8e118542bdf561d8fde958e4d3a";
        "v=1 how=pair#1 cc=404 rounds=175 bits=6322 620a299c9c71364ebbdadb8ae2e49e6a";
        "v=210 how=pair#1 cc=131 rounds=175 bits=2505 dca7e8e118542bdf561d8fde958e4d3a";
        "v=210 how=pair#1 cc=195 rounds=175 bits=3602 2ed9c030bb8ad21336bd668b520dce4a";
        "v=1 how=pair#1 cc=404 rounds=175 bits=6322 620a299c9c71364ebbdadb8ae2e49e6a";
        "v=210 how=pair#1 cc=133 rounds=247 bits=2565 68619927d74e73e18d4d8a85d23da6d3";
        "v=210 how=pair#1 cc=133 rounds=247 bits=2565 68619927d74e73e18d4d8a85d23da6d3";
        "v=196 how=pair#2 cc=385 rounds=627 bits=6200 43fd5093a9c7af03bfb7b9117d4b7505";
        "v=210 how=pair#1 cc=133 rounds=247 bits=2565 68619927d74e73e18d4d8a85d23da6d3";
        "v=210 how=pair#1 cc=153 rounds=247 bits=2617 5f925c2b27fc2aa0bed0b27449fbed2b";
        "v=196 how=pair#2 cc=385 rounds=627 bits=6200 43fd5093a9c7af03bfb7b9117d4b7505";
        "v=210 how=pair#1 cc=124 rounds=79 bits=2340 caebf221a17706ace2a0560a03d5ba82";
        "v=210 how=pair#1 cc=139 rounds=79 bits=2566 1aeeb332e357fbb84041493829a4d8c9";
        "v=196 how=pair#2 cc=683 rounds=193 bits=10860 99c6c9d502f3bf1e2b3179016092e310";
        "v=210 how=pair#1 cc=119 rounds=79 bits=2325 65dd46e3aa2815a9ec2e082f55ba1b0b";
        "v=199 how=pair#1 cc=119 rounds=79 bits=2206 f82cb388665adf247eab3062f0fac9aa";
        "v=196 how=pair#2 cc=613 rounds=193 bits=9575 08b45a09cf31665a49967547ca1294f6";
      ] );
    ( "unknown-f",
      [
        "v=210 how=slot#0 cc=121 rounds=175 bits=2385 4d45d5d8d1b7a5c2d33e628d0b2c2028";
        "v=210 how=slot#0 cc=121 rounds=175 bits=2385 4d45d5d8d1b7a5c2d33e628d0b2c2028";
        "v=1 how=slot#0 cc=394 rounds=175 bits=6202 b2741b19ec7250bed253932c26012e4d";
        "v=210 how=slot#0 cc=121 rounds=175 bits=2385 4d45d5d8d1b7a5c2d33e628d0b2c2028";
        "v=179 how=slot#1 cc=316 rounds=441 bits=5725 f7b82b00e2004bb59b55cabacd8c1d49";
        "v=1 how=slot#0 cc=394 rounds=175 bits=6202 b2741b19ec7250bed253932c26012e4d";
        "v=210 how=slot#0 cc=123 rounds=247 bits=2425 9cbdf34df795981ac8c48a5d4c62bd60";
        "v=210 how=slot#0 cc=123 rounds=247 bits=2425 9cbdf34df795981ac8c48a5d4c62bd60";
        "v=196 how=slot#1 cc=360 rounds=627 bits=5820 7cec4d8a8af952a018d0711799e762b3";
        "v=210 how=slot#0 cc=123 rounds=247 bits=2425 9cbdf34df795981ac8c48a5d4c62bd60";
        "v=210 how=slot#0 cc=143 rounds=247 bits=2477 e77d5e621bd8a4b8d0dae7463b41c1d7";
        "v=196 how=slot#1 cc=360 rounds=627 bits=5820 7cec4d8a8af952a018d0711799e762b3";
        "v=210 how=slot#0 cc=119 rounds=79 bits=2325 8afa6e3558d0defed61ff0439c65650d";
        "v=210 how=slot#0 cc=134 rounds=79 bits=2551 b2a8a4da874b7164dddfc7517e263000";
        "v=196 how=slot#1 cc=598 rounds=193 bits=9580 7ee7491e2b2c2ed4cc108fa0d825a751";
        "v=210 how=slot#0 cc=119 rounds=79 bits=2325 65dd46e3aa2815a9ec2e082f55ba1b0b";
        "v=199 how=slot#0 cc=119 rounds=79 bits=2206 f82cb388665adf247eab3062f0fac9aa";
        "v=196 how=slot#1 cc=509 rounds=193 bits=7673 6fba20cbcfb5c0d0fb719eabbd9ac377";
      ] );
  ]

(* The brute-force fallback: at b = 63 there is one interval (t = 0 at
   f = 0); the chain dirties it on the ring and the random-regular graph,
   so Algorithm 1 falls back.  On the grid the chain cuts the root off and
   the pair accepts its lone input. *)
let golden_fallback =
  [
    "v=1 how=pair#1 cc=220 rounds=175 bits=3322 2c0992cc449a04e4de0d3b9cca6442e3";
    "v=196 how=bf cc=507 rounds=630 bits=8217 46d11ed15938e951fbf08a8c5afc833d";
    "v=196 how=bf cc=594 rounds=189 bits=9481 cc2534fa97d4a820456c7c586393dbd3";
  ]

let test_driver_golden_fallback () =
  let n = 20 in
  let got =
    List.map
      (fun family ->
        let graph = Gen.build family ~n ~seed:1 in
        let params = params_of graph ~inputs:(default_inputs n) in
        let failures = Failure.chain ~n ~first:1 ~len:4 ~round:((2 * Params.cd params) + 5) in
        tradeoff_vector Tradeoff.Sampled ~b:63 ~f:0 ~graph ~failures ~params ~seed:1)
      [ Gen.Grid; Gen.Ring; Gen.Random_regular 4 ]
  in
  Alcotest.(check (list string)) "fallback" golden_fallback got

let test_driver_golden () =
  let n = 20 in
  List.iter
    (fun (runner, run) ->
      let got =
        List.concat_map
          (fun (family, seed) ->
            let graph = Gen.build family ~n ~seed in
            let params = params_of graph ~inputs:(default_inputs n) in
            List.map
              (fun failures -> run ~graph ~failures ~params ~seed)
              (driver_schedules graph params ~seed))
          [ (Gen.Grid, 1); (Gen.Grid, 2); (Gen.Ring, 1); (Gen.Ring, 2);
            (Gen.Random_regular 4, 1); (Gen.Random_regular 4, 2) ]
      in
      Alcotest.(check (list string)) runner (List.assoc runner golden_driver) got)
    driver_runners

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"Theorem 1: Algorithm 1 always correct (random graphs+adversaries)"
      ~count:30
      (quad (int_range 12 36) (int_range 0 10) (int_range 63 130) small_int)
      (fun (n, f, b, seed) ->
        let g = Topo.random_connected ~n ~p:0.1 ~seed in
        let params = params_of g ~inputs:(default_inputs n) in
        let failures =
          Failure.random g ~rng:(Prng.create (seed + 11)) ~budget:f
            ~max_round:(b * params.Params.d)
        in
        let o = Run.tradeoff ~graph:g ~failures ~params ~b ~f ~seed () in
        o.Run.common.Run.correct && o.Run.common.Run.flooding_rounds <= b);
    Test.make ~name:"brute force: always correct under arbitrary crash schedules" ~count:30
      (triple (int_range 8 30) (int_range 0 20) small_int)
      (fun (n, budget, seed) ->
        let g = Topo.random_connected ~n ~p:0.15 ~seed in
        let params = params_of g ~inputs:(default_inputs n) in
        let failures =
          Failure.random g ~rng:(Prng.create (seed + 1)) ~budget ~max_round:80
        in
        let o = Run.brute_force ~graph:g ~failures ~params ~seed () in
        o.Run.common.Run.correct);
    Test.make ~name:"folklore: correct whenever it reports a value" ~count:30
      (triple (int_range 8 30) (int_range 0 8) small_int)
      (fun (n, f, seed) ->
        let g = Topo.random_connected ~n ~p:0.15 ~seed in
        let params = params_of g ~inputs:(default_inputs n) in
        let mode = Folklore.Retry (f + 1) in
        let failures =
          Failure.random g ~rng:(Prng.create (seed + 2)) ~budget:f
            ~max_round:(Folklore.duration params mode)
        in
        let o = Run.folklore ~graph:g ~failures ~params ~mode ~seed () in
        o.Run.common.Run.correct);
  ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("brute: exact failure-free", test_brute_force_exact_failure_free);
      ("brute: always correct", test_brute_force_always_correct);
      ("brute: CC scale", test_brute_force_cc_order_n_log_n);
      ("folklore: exact failure-free", test_folklore_exact_failure_free);
      ("folklore: retries until clean", test_folklore_retries_until_clean);
      ("folklore: correct random", test_folklore_correct_random);
      ("naive TAG: breaks under failures", test_naive_tag_breaks_under_failures);
      ("folklore: worst-case epochs", test_folklore_worst_case_epochs);
      ("tradeoff: b >= 21c", test_tradeoff_requires_b_21c);
      ("tradeoff: exact failure-free", test_tradeoff_exact_failure_free);
      ("tradeoff: Theorem 1 correctness", test_theorem1_always_correct);
      ("tradeoff: Theorem 1 time bound", test_theorem1_time_bound);
      ("tradeoff: interval arithmetic", test_tradeoff_interval_arithmetic);
      ("tradeoff: concentrated burst", test_tradeoff_survives_concentrated_burst);
      ("tradeoff: LFC never accepted", test_tradeoff_lfc_never_accepted);
      ("sequential: correct", test_sequential_strategy_correct);
      ("sequential: dirty interval skipped", test_sequential_pays_for_dirty_intervals);
      ("unknown-f: exact failure-free", test_unknown_f_exact_failure_free);
      ("unknown-f: correct random", test_unknown_f_correct_random);
      ("unknown-f: early termination", test_unknown_f_early_termination);
    ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
  @ [
      Alcotest.test_case "driver: golden schedules" `Quick test_driver_golden;
      Alcotest.test_case "driver: golden fallback" `Quick test_driver_golden_fallback;
    ]
