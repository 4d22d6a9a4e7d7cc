(* Differential check of the CSR engine hot path against the list-based
   reference engine (the executable specification kept as
   Engine.run_reference), plus determinism of the multicore sweep
   runner.  The perf claim in bench `perf` rests on these being
   observationally identical. *)

open Ftagg
open Helpers

(* Drive the same protocol through both engines and insist on identical
   metrics (per-node bits AND messages) and identical final states under
   a projection chosen per protocol.  With [loss], the hot path is
   [run_chaos] with only that fault set. *)
let both ?loss ~graph ~failures ~max_rounds ~seed ~project proto =
  let s_ref, m_ref = Engine.run_reference ?loss ~graph ~failures ~max_rounds ~seed proto in
  let s_new, m_new =
    match loss with
    | None -> Engine.run ~graph ~failures ~max_rounds ~seed proto
    | Some loss ->
      let c =
        Engine.run_chaos ~faults:{ Engine.no_faults with loss } ~graph ~failures ~max_rounds
          ~seed proto
      in
      (c.Engine.c_states, c.Engine.c_metrics)
  in
  check_int "rounds" (Metrics.rounds m_ref) (Metrics.rounds m_new);
  check_int "cc" (Metrics.cc m_ref) (Metrics.cc m_new);
  Array.iteri
    (fun u _ ->
      check_int (Printf.sprintf "bits@%d" u) (Metrics.bits_sent m_ref u) (Metrics.bits_sent m_new u);
      check_int (Printf.sprintf "msgs@%d" u) (Metrics.msgs_sent m_ref u) (Metrics.msgs_sent m_new u))
    s_ref;
  Array.iteri
    (fun u st -> check_true (Printf.sprintf "state@%d" u) (project st = project s_new.(u)))
    s_ref

let agg_project st = (Agg.level st, Agg.parent st, Agg.psum st, Agg.max_level st, Agg.aborted st)

let families =
  [ ("grid", Gen.Grid); ("ring", Gen.Ring); ("caterpillar", Gen.Caterpillar); ("random", Gen.Random 0.12) ]

let seeds = [ 1; 2; 3; 4; 5 ]

let test_agg_equivalence () =
  List.iter
    (fun (name, fam) ->
      let g = Gen.build fam ~n:36 ~seed:3 in
      let inputs = default_inputs 36 in
      let params = params_of g ~inputs in
      List.iter
        (fun seed ->
          let failures =
            Failure.random g ~rng:(Prng.create (seed * 13)) ~budget:6 ~max_round:200
          in
          Alcotest.(check unit)
            (Printf.sprintf "agg %s seed %d" name seed)
            ()
            (both ~graph:g ~failures ~max_rounds:(Agg.duration params) ~seed
               ~project:agg_project (Agg.protocol params)))
        seeds)
    families

let test_tradeoff_equivalence () =
  List.iter
    (fun (name, fam) ->
      let g = Gen.build fam ~n:30 ~seed:7 in
      let inputs = default_inputs 30 in
      let params = params_of g ~inputs in
      let b = 63 and f = 4 in
      let proto = Tradeoff.protocol params ~b ~f in
      List.iter
        (fun seed ->
          let failures =
            Failure.random g ~rng:(Prng.create (seed + 29)) ~budget:f ~max_round:300
          in
          both ~graph:g ~failures ~max_rounds:(Tradeoff.max_rounds params ~b) ~seed
            ~project:(fun _ -> ())
            proto;
          (* root_done-halting runs must also agree on the result itself *)
          let o1 = Run.tradeoff ~graph:g ~failures ~params ~b ~f ~seed () in
          check_true
            (Printf.sprintf "tradeoff %s seed %d correct" name seed)
            o1.Run.common.Run.correct)
        seeds)
    families

(* The root's verdict is in the projection: the run must end with the
   same AGG result and the same VERI verdict. *)
let pair_project st =
  ( agg_project (Pair.agg st),
    match Pair.root_verdict st with v -> Some v | exception Invalid_argument _ -> None )

let test_pair_equivalence () =
  let g = Gen.grid 25 in
  let params = params_of ~t:2 g ~inputs:(default_inputs 25) in
  let proto = Pair.protocol params in
  List.iter
    (fun seed ->
      let failures = Failure.random g ~rng:(Prng.create (seed * 5)) ~budget:4 ~max_round:250 in
      both ~graph:g ~failures ~max_rounds:(Pair.duration params) ~seed ~project:pair_project
        proto)
    seeds

(* Under message loss the chaos loop and the reference must consume the
   loss PRNG stream in the same order, so states and metrics stay
   identical draw for draw. *)
let test_lossy_equivalence () =
  let g = Gen.grid 25 in
  let params = params_of g ~inputs:(default_inputs 25) in
  List.iter
    (fun loss ->
      List.iter
        (fun seed ->
          let failures = Failure.random g ~rng:(Prng.create seed) ~budget:4 ~max_round:200 in
          both ~loss ~graph:g ~failures ~max_rounds:(Agg.duration params) ~seed
            ~project:agg_project (Agg.protocol params))
        seeds)
    [ 0.05; 0.3 ]

(* A crashed node's slot must clear even when the fast path skips work. *)
let test_crash_equivalence () =
  let g = Gen.ring 20 in
  let params = params_of g ~inputs:(default_inputs 20) in
  let failures = Failure.chain ~n:20 ~first:5 ~len:4 ~round:7 in
  List.iter
    (fun seed ->
      both ~graph:g ~failures ~max_rounds:(Agg.duration params) ~seed ~project:agg_project
        (Agg.protocol params))
    seeds

(* ---------- frontier rounds: the wake schedules ---------- *)

(* The whole state, closures and hash tables included. *)
let marshalled st = Marshal.to_string st [ Marshal.Closures ]

(* The declaration itself, not only the end results: drive [proto]
   through every round with a wrapper that remembers each node's last
   [wake].  Every step before that round with an empty inbox must be
   silent and leave the state's fingerprint as it was. *)
let wake_is_sound ?(fingerprint = marshalled) ~graph ~failures ~max_rounds ~seed proto =
  let due = Array.make (Graph.n graph) 0 and sound = ref true in
  let init u ~rng =
    let st = proto.Engine.init u ~rng in
    due.(u) <- proto.Engine.wake st ~round:0;
    st
  in
  let step ~round ~me ~state ~inbox =
    let before = fingerprint state in
    let ((st, out) as stepped) = proto.Engine.step ~round ~me ~state ~inbox in
    if inbox = [] && round < due.(me) && (out <> [] || fingerprint st <> before) then
      sound := false;
    due.(me) <- proto.Engine.wake st ~round;
    stepped
  in
  ignore
    (Engine.run ~graph ~failures ~max_rounds ~seed
       { proto with Engine.init; step; wake = Engine.every_round });
  !sound

(* A random graph of [n] nodes, its params at tolerance [t], and up to
   [budget] random crashes within [window] rounds. *)
let random_case ~n ~s ~t ~budget ~window =
  let g = Topo.build (Topo.Random 0.15) ~n ~seed:s in
  let params = params_of ~t g ~inputs:(default_inputs n) in
  let failures = Failure.random g ~rng:(Prng.create (s + 7)) ~budget ~max_round:(window params) in
  (g, params, failures)

let wake_soundness =
  QCheck.Test.make ~name:"agg: wake is sound on random graphs and crashes" ~count:40
    QCheck.(quad (int_range 6 40) (int_range 0 1000) (int_range 0 2) (int_range 0 8))
    (fun (n, s, t, budget) ->
      let g, params, failures = random_case ~n ~s ~t ~budget ~window:Agg.duration in
      wake_is_sound ~graph:g ~failures ~max_rounds:(Agg.duration params) ~seed:s
        (Agg.protocol params))

(* How many times one run calls [step], checked against the engine's
   own step count; and how many nodes the run visited. *)
let count_steps ~graph ~failures ~max_rounds proto =
  let steps = ref 0 in
  let step ~round ~me ~state ~inbox =
    incr steps;
    proto.Engine.step ~round ~me ~state ~inbox
  in
  let _, m = Engine.run ~graph ~failures ~max_rounds ~seed:1 { proto with Engine.step } in
  check_int "Metrics.node_steps" !steps (Metrics.node_steps m);
  (!steps, Metrics.node_visits m, Metrics.rounds m)

(* The frontier's saving, as an exact count: AGG on a failure-free
   100-node grid steps 1,191 of its 25,600 node-rounds (256 rounds), under
   5% of them — and, failure-free and lossless, visits exactly the nodes
   it steps. *)
let test_frontier_step_count () =
  let n = 100 in
  let g = Gen.grid n in
  let params = params_of g ~inputs:(default_inputs n) in
  let steps, visits, rounds =
    count_steps ~graph:g ~failures:(Failure.none ~n) ~max_rounds:(Agg.duration params)
      (Agg.protocol params)
  in
  check_int "rounds" 256 rounds;
  check_int "node steps" 1191 steps;
  check_int "node visits" 1191 visits;
  check_true "under 20% of node-rounds" (5 * steps < n * rounds)

(* The pair's schedule crosses the AGG/VERI boundary: under every
   ablation, with crashes anywhere in the pair. *)
let pair_wake_soundness =
  QCheck.Test.make ~name:"pair: wake is sound under every ablation" ~count:30
    QCheck.(quad (int_range 6 30) (int_range 0 1000) (int_range 0 2) (int_range 0 8))
    (fun (n, s, t, budget) ->
      let g, params, failures = random_case ~n ~s ~t ~budget ~window:Pair.duration in
      List.for_all
        (fun ablation ->
          wake_is_sound ~graph:g ~failures ~max_rounds:(Pair.duration params) ~seed:s
            (Pair.protocol ~ablation params))
        [ Agg.Full; Agg.No_speculation; Agg.No_witnesses ])

(* The interval driver under both of Algorithm 1's strategies and the
   unknown-f plan, at b = 120 (three intervals) with up to 12 crashes over
   the run, so some runs reject pairs and a few reach the fallback. *)
let driver_wake_soundness =
  QCheck.Test.make ~name:"driver: wake is sound for Algorithm 1 and unknown-f" ~count:15
    QCheck.(quad (int_range 6 24) (int_range 0 1000) (int_range 0 6) (int_range 0 12))
    (fun (n, s, f, budget) ->
      let b = 120 in
      let g, params, failures =
        random_case ~n ~s ~t:0 ~budget ~window:(fun p -> Tradeoff.max_rounds p ~b)
      in
      let sound ~max_rounds proto = wake_is_sound ~graph:g ~failures ~max_rounds ~seed:s proto in
      List.for_all
        (fun strategy ->
          sound ~max_rounds:(Tradeoff.max_rounds params ~b)
            (Tradeoff.protocol ~strategy params ~b ~f))
        [ Tradeoff.Sampled; Tradeoff.Sequential ]
      && sound ~max_rounds:(Unknown_f.max_rounds params) (Unknown_f.protocol params))

let brute_force_wake_soundness =
  QCheck.Test.make ~name:"brute force: wake is sound" ~count:30
    QCheck.(triple (int_range 2 40) (int_range 0 1000) (int_range 0 8))
    (fun (n, s, budget) ->
      let g, params, failures = random_case ~n ~s ~t:0 ~budget ~window:Brute_force.duration in
      wake_is_sound ~graph:g ~failures ~max_rounds:(Brute_force.duration params) ~seed:s
        (Brute_force.protocol params))

(* The pair's saving, as an exact count: on a failure-free 100-node grid
   at t = 3 it steps 1,685 of its 43,900 node-rounds (439 rounds), under
   4% of them. *)
let test_pair_step_count () =
  let n = 100 in
  let g = Gen.grid n in
  let params = params_of ~t:3 g ~inputs:(default_inputs n) in
  let steps, visits, rounds =
    count_steps ~graph:g ~failures:(Failure.none ~n) ~max_rounds:(Pair.duration params)
      (Pair.protocol params)
  in
  check_int "rounds" 439 rounds;
  check_int "node steps" 1685 steps;
  check_int "node visits" 1685 visits;
  check_true "under 20% of node-rounds" (5 * steps < n * rounds)

(* Algorithm 1 at b = 63, f = 8 on a failure-free 36-node grid (the
   service's job): 568 node steps of its 8,892 node-rounds, under 7%. *)
let test_tradeoff_step_count () =
  let n = 36 in
  let g = Gen.grid n in
  let params = params_of g ~inputs:(default_inputs n) in
  let b = 63 and f = 8 in
  let steps, visits, rounds =
    count_steps ~graph:g ~failures:(Failure.none ~n) ~max_rounds:(Tradeoff.max_rounds params ~b)
      (Tradeoff.protocol params ~b ~f)
  in
  check_int "rounds" 247 rounds;
  check_int "node steps" 568 steps;
  check_int "node visits" 568 visits;
  check_true "under 20% of node-rounds" (5 * steps < n * rounds)

(* ---------- sparse visits: a synthetic protocol with random alarms ---------- *)

(* A node keeps an alarm round and a digest of what it heard.  It
   changes state or broadcasts only when mail arrives or its alarm has
   come, so [wake] (the alarm) is sound by construction.  Every step
   re-arms the alarm from a hash of (node, round, digest): at or before
   the current round, a few rounds ahead, more than 64 rounds ahead,
   past [max_rounds], or [max_int] — every way a wake round can land in
   the engine's calendar or miss it. *)
type alarm = {
  alarm : int;
  heard : int;
  sent : int;
}

let rearm ~salt ~max_rounds ~me ~round ~heard =
  let h = Hashtbl.hash (salt, me, round, heard) in
  let k = h / 6 in
  match h mod 6 with
  | 0 -> round - (k mod 3)
  | 1 | 2 -> round + 1 + (k mod 6)
  | 3 -> round + 65 + (k mod 30)
  | 4 -> max_rounds + 1 + (k mod 5)
  | _ -> max_int

let alarm_protocol ~salt ~max_rounds =
  {
    Engine.init =
      (fun me ~rng ->
        let heard = Prng.int rng 1000 in
        { alarm = rearm ~salt ~max_rounds ~me ~round:0 ~heard; heard; sent = 0 });
    step =
      (fun ~round ~me ~state ~inbox ->
        if inbox = [] && round < state.alarm then (state, [])
        else begin
          let heard =
            List.fold_left (fun h (s, m) -> ((h * 31) + s + m) mod 1_000_003) state.heard inbox
          in
          let fire = round >= state.alarm || Hashtbl.hash (salt, me, heard) mod 3 = 0 in
          let out = if fire then [ heard mod 100 ] else [] in
          ( {
              alarm = rearm ~salt ~max_rounds ~me ~round ~heard;
              heard;
              sent = state.sent + List.length out;
            },
            out )
        end);
    msg_bits = (fun m -> 1 + (m mod 7));
    root_done = (fun _ -> false);
    wake = (fun st ~round:_ -> st.alarm);
  }

(* Per-node bits and messages, and rounds. *)
let same_accounting n a b =
  Metrics.rounds a = Metrics.rounds b
  && List.for_all
       (fun u ->
         Metrics.bits_sent a u = Metrics.bits_sent b u
         && Metrics.msgs_sent a u = Metrics.msgs_sent b u)
       (List.init n Fun.id)

(* [run_chaos] with only [loss] set and an observer that fails the test
   if a (round, node) pair is observed twice. *)
let run_observed ~loss ~graph ~failures ~max_rounds ~seed proto =
  let seen = Hashtbl.create 64 and once = ref true in
  let observer ~round ~node _ =
    if Hashtbl.mem seen (round, node) then once := false;
    Hashtbl.replace seen (round, node) ()
  in
  let c =
    Engine.run_chaos ~observer ~faults:{ Engine.no_faults with loss } ~graph ~failures
      ~max_rounds ~seed proto
  in
  (c.Engine.c_states, c.Engine.c_metrics, !once)

let sparse_visits =
  QCheck.Test.make ~name:"engine: sparse visits = every node, on random alarms" ~count:60
    QCheck.(quad (int_range 5 40) (int_range 0 1000) (int_range 30 200) (int_range 0 8))
    (fun (n, s, max_rounds, budget) ->
      let g = Topo.build (Topo.Random 0.15) ~n ~seed:s in
      let proto = alarm_protocol ~salt:s ~max_rounds in
      let failures = Failure.random g ~rng:(Prng.create (s + 3)) ~budget ~max_round:max_rounds in
      let loss = [| 0.0; 0.1; 0.3 |].(s mod 3) in
      let seed = s + 1 in
      (* oblivious crashes, with loss *)
      let ref_states, ref_m =
        Engine.run_reference ~loss ~graph:g ~failures ~max_rounds ~seed proto
      in
      let states, m, once = run_observed ~loss ~graph:g ~failures ~max_rounds ~seed proto in
      let oblivious =
        once && states = ref_states && same_accounting n m ref_m
        && Metrics.node_steps m <= Metrics.node_visits m
        && Metrics.node_visits m <= n * Metrics.rounds m
      in
      (* online crashes, with loss: the materialised schedule replays *)
      let online (report : Engine.round_report) =
        match report.Engine.rr_broadcasters with
        | [] -> []
        | l ->
          if Hashtbl.hash (s, report.Engine.rr_round) mod 4 = 0 then
            [ List.nth l (s mod List.length l) ]
          else []
      in
      let c =
        Engine.run_chaos ~faults:{ Engine.no_faults with loss } ~online ~graph:g ~failures
          ~max_rounds ~seed proto
      in
      let replay_states, replay_m =
        Engine.run_reference ~loss ~graph:g ~failures:c.Engine.c_schedule ~max_rounds ~seed proto
      in
      let adaptive =
        c.Engine.c_states = replay_states && same_accounting n c.Engine.c_metrics replay_m
      in
      (* the executor's partitions, lossless *)
      let base_states, base_m = Engine.run ~graph:g ~failures ~max_rounds ~seed proto in
      let split =
        List.for_all
          (fun domains ->
            let st, m =
              Scale_executor.run ~domains ~graph:g ~failures ~max_rounds ~seed proto
            in
            st = base_states && same_accounting n m base_m
            && Metrics.node_visits m = Metrics.node_visits base_m
            && Metrics.node_steps m = Metrics.node_steps base_m)
          [ 1; 2; 4 ]
      in
      oblivious && adaptive && split)

(* A node with mail whose wake round has also come is stepped once: node
   0 fires its alarm in round 1, and node 1, due in round 2, hears it
   then and fires; node 0 hears that in round 3.  Mail alone only
   counts. *)
let test_mail_and_due_once () =
  let g = Gen.path 2 in
  let proto =
    {
      Engine.init = (fun me ~rng:_ -> { alarm = me + 1; heard = 0; sent = 0 });
      step =
        (fun ~round ~me:_ ~state ~inbox ->
          if inbox = [] && round < state.alarm then (state, [])
          else
            let fire = round >= state.alarm in
            ( {
                alarm = (if fire then max_int else state.alarm);
                heard = state.heard + List.length inbox;
                sent = state.sent + if fire then 1 else 0;
              },
              if fire then [ round ] else [] ));
      msg_bits = (fun _ -> 1);
      root_done = (fun _ -> false);
      wake = (fun st ~round:_ -> st.alarm);
    }
  in
  let log = ref [] in
  let observer ~round ~node _ = log := (round, node) :: !log in
  let states, m =
    Engine.run ~observer ~graph:g ~failures:(Failure.none ~n:2) ~max_rounds:5 ~seed:1 proto
  in
  Alcotest.(check (list (pair int int))) "steps" [ (1, 0); (2, 1); (3, 0) ] (List.rev !log);
  check_int "node 1 heard once" 1 states.(1).heard;
  check_int "node 1 sent once" 1 states.(1).sent;
  check_int "visits" 3 (Metrics.node_visits m);
  check_int "steps" 3 (Metrics.node_steps m)

(* Live bytes per node of a failure-free run's final states, counting the
   [Params] record they all share once and leaving it out, as
   benchmark/scale_agg.ml counts them. *)
let state_bytes_per_node ~graph ~max_rounds params proto =
  let n = Graph.n graph in
  let states, _ = Engine.run ~graph ~failures:(Failure.none ~n) ~max_rounds ~seed:1 proto in
  let words v = Obj.reachable_words (Obj.repr v) in
  (Sys.word_size / 8) * (words (states, params) - words params) / n

(* A node keeps only what it learned: AGG at t = 1 on a failure-free
   100-node grid ends at 464 B/node (1,488 B when every node built its
   hash tables up front).  A bound, not the exact count, so the compiler
   versions CI runs agree. *)
let test_agg_state_bytes () =
  let n = 100 in
  let g = Gen.grid n in
  let params = params_of ~t:1 g ~inputs:(default_inputs n) in
  let bytes =
    state_bytes_per_node ~graph:g ~max_rounds:(Agg.duration params) params (Agg.protocol params)
  in
  check_true (Printf.sprintf "AGG %d B/node <= 600" bytes) (bytes <= 600)

(* The AGG+VERI pair at t = 3 on the same grid: 689 B/node (2,746 B with
   eager tables). *)
let test_pair_state_bytes () =
  let n = 100 in
  let g = Gen.grid n in
  let params = params_of ~t:3 g ~inputs:(default_inputs n) in
  let bytes =
    state_bytes_per_node ~graph:g ~max_rounds:(Pair.duration params) params (Pair.protocol params)
  in
  check_true (Printf.sprintf "pair %d B/node <= 900" bytes) (bytes <= 900)

let test_sweep_matches_list_map () =
  let xs = List.init 37 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int)) "map ≡ List.map" (List.map f xs) (Sweep.map f xs);
  Alcotest.(check (list int)) "empty" [] (Sweep.map f []);
  Alcotest.(check (list int)) "singleton" [ f 9 ] (Sweep.map f [ 9 ])

(* The result order must be the input order whatever the pool size, and
   real simulation sweeps must be bit-identical across pool sizes. *)
let test_sweep_determinism () =
  let g = Gen.grid 25 in
  let params = params_of g ~inputs:(default_inputs 25) in
  let job s =
    let failures = Failure.random g ~rng:(Prng.create s) ~budget:4 ~max_round:200 in
    let o = Run.agg ~graph:g ~failures ~params ~seed:s () in
    (Metrics.cc o.Run.common.Run.metrics, o.Run.common.Run.rounds, o.Run.common.Run.correct)
  in
  let seeds = List.init 12 (fun i -> i + 1) in
  let serial = Sweep.map ~domains:1 job seeds in
  let parallel = Sweep.map ~domains:4 job seeds in
  check_true "1 domain ≡ 4 domains" (serial = parallel);
  check_true "matches direct map" (List.map job seeds = serial)

let test_sweep_errors () =
  (match Sweep.map ~domains:0 (fun x -> x) [ 1 ] with
  | _ -> Alcotest.fail "domains:0 should raise"
  | exception Invalid_argument _ -> ());
  match Sweep.map ~domains:3 (fun x -> if x = 5 then failwith "boom" else x) (List.init 10 Fun.id) with
  | _ -> Alcotest.fail "failing job should raise"
  | exception Sweep.Job_failed (i, Failure _) -> check_int "failing job index" 5 i

(* The failure report must carry the index AND the payload of the first
   failing job (by index, not by wall clock), even with several failures
   in flight. *)
let test_sweep_error_payload () =
  let job x = if x mod 2 = 1 then failwith (Printf.sprintf "boom%d" x) else x in
  match Sweep.map ~domains:4 job (List.init 12 Fun.id) with
  | _ -> Alcotest.fail "failing jobs should raise"
  | exception Sweep.Job_failed (i, Failure msg) ->
    check_int "first failing index" 1 i;
    check_true "payload of the first failing job" (msg = "boom1")

(* domains:1 must run every job in the calling domain (no spawns), with
   the same results and the same error protocol as the parallel path. *)
let test_sweep_sequential_path () =
  let log = ref [] in
  let f x =
    log := x :: !log;
    x * 2
  in
  Alcotest.(check (list int))
    "results in input order"
    (List.map (fun x -> x * 2) [ 5; 1; 4 ])
    (Sweep.map ~domains:1 f [ 5; 1; 4 ]);
  Alcotest.(check (list int)) "jobs ran in input order" [ 5; 1; 4 ] (List.rev !log);
  match Sweep.map ~domains:1 (fun x -> if x = 2 then raise Exit else x) [ 0; 1; 2; 3 ] with
  | _ -> Alcotest.fail "failing job should raise"
  | exception Sweep.Job_failed (i, Exit) -> check_int "sequential failure index" 2 i

(* Fewer jobs than domains: the pool must not over-spawn or deadlock, and
   results still match List.map. *)
let test_sweep_fewer_jobs_than_domains () =
  let f x = x + 100 in
  Alcotest.(check (list int)) "n=3 < domains=8" (List.map f [ 7; 8; 9 ]) (Sweep.map ~domains:8 f [ 7; 8; 9 ]);
  Alcotest.(check (list int)) "n=1 < domains=8" [ f 42 ] (Sweep.map ~domains:8 f [ 42 ]);
  match Sweep.map ~domains:8 (fun _ -> failwith "solo") [ 0 ] with
  | _ -> Alcotest.fail "failing job should raise"
  | exception Sweep.Job_failed (i, Failure msg) ->
    check_int "index with tiny input" 0 i;
    check_true "payload with tiny input" (msg = "solo")

let suite =
  [
    Alcotest.test_case "engine: AGG equivalence (4 families x 5 seeds)" `Quick
      test_agg_equivalence;
    Alcotest.test_case "engine: tradeoff equivalence" `Quick test_tradeoff_equivalence;
    Alcotest.test_case "engine: pair equivalence" `Quick test_pair_equivalence;
    Alcotest.test_case "engine: lossy equivalence" `Quick test_lossy_equivalence;
    Alcotest.test_case "engine: crash-schedule equivalence" `Quick test_crash_equivalence;
    Alcotest.test_case "engine: AGG frontier step count" `Quick test_frontier_step_count;
    QCheck_alcotest.to_alcotest wake_soundness;
    Alcotest.test_case "sweep: matches List.map" `Quick test_sweep_matches_list_map;
    Alcotest.test_case "sweep: deterministic across pool sizes" `Quick test_sweep_determinism;
    Alcotest.test_case "sweep: error reporting" `Quick test_sweep_errors;
    Alcotest.test_case "sweep: first failure index and payload" `Quick test_sweep_error_payload;
    Alcotest.test_case "sweep: domains:1 sequential path" `Quick test_sweep_sequential_path;
    Alcotest.test_case "sweep: fewer jobs than domains" `Quick test_sweep_fewer_jobs_than_domains;
    QCheck_alcotest.to_alcotest pair_wake_soundness;
    QCheck_alcotest.to_alcotest driver_wake_soundness;
    QCheck_alcotest.to_alcotest brute_force_wake_soundness;
    Alcotest.test_case "engine: pair frontier step count" `Quick test_pair_step_count;
    Alcotest.test_case "engine: tradeoff frontier step count" `Quick test_tradeoff_step_count;
    Alcotest.test_case "engine: AGG state bytes per node" `Quick test_agg_state_bytes;
    Alcotest.test_case "engine: pair state bytes per node" `Quick test_pair_state_bytes;
    QCheck_alcotest.to_alcotest sparse_visits;
    Alcotest.test_case "engine: mail and a due wake step a node once" `Quick test_mail_and_due_once;
  ]
