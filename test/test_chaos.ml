(* The chaos subsystem: differential equivalence of the instrumented
   engine against the production hot path when every knob is off,
   deterministic fault-injection semantics, online-adversary mechanics,
   watchdog precision (a planted bit-budget violation must fire at the
   exact round the bottleneck node crosses the cap), the shrinker, and
   the incident JSON round trip. *)

open Ftagg
open Helpers

(* ---------- chaos-off differential: run_chaos ≡ run ---------- *)

let agg_project st = (Agg.level st, Agg.parent st, Agg.psum st, Agg.max_level st, Agg.aborted st)

(* With no faults, no online adversary and no watchdog, run_chaos must be
   observationally identical to the hot path: same metrics, same states,
   same PRNG streams.  Also with only [loss] set, it must match the
   specification [Engine.run_reference ~loss] draw for draw. *)
let both ?faults ?loss ~graph ~failures ~max_rounds ~seed proto =
  let s_run, m_run =
    match loss with
    | None -> Engine.run ~graph ~failures ~max_rounds ~seed proto
    | Some loss -> Engine.run_reference ~loss ~graph ~failures ~max_rounds ~seed proto
  in
  let r = Engine.run_chaos ?faults ~graph ~failures ~max_rounds ~seed proto in
  let s_chaos = r.Engine.c_states and m_chaos = r.Engine.c_metrics in
  check_int "rounds" (Metrics.rounds m_run) (Metrics.rounds m_chaos);
  check_int "cc" (Metrics.cc m_run) (Metrics.cc m_chaos);
  Array.iteri
    (fun u _ ->
      check_int (Printf.sprintf "bits@%d" u) (Metrics.bits_sent m_run u)
        (Metrics.bits_sent m_chaos u);
      check_int (Printf.sprintf "msgs@%d" u) (Metrics.msgs_sent m_run u)
        (Metrics.msgs_sent m_chaos u))
    s_run;
  Array.iteri
    (fun u st ->
      check_true
        (Printf.sprintf "state@%d" u)
        (agg_project (Pair.agg st) = agg_project (Pair.agg s_chaos.(u))))
    s_run;
  check_true "no violation" (r.Engine.c_violation = None)

let test_chaos_off_differential () =
  List.iter
    (fun (name, fam) ->
      let g = Gen.build fam ~n:30 ~seed:5 in
      let params = params_of ~t:2 g ~inputs:(default_inputs 30) in
      List.iter
        (fun seed ->
          let failures = Failure.random g ~rng:(Prng.create (seed * 11)) ~budget:5 ~max_round:250 in
          Alcotest.(check unit)
            (Printf.sprintf "chaos-off %s seed %d" name seed)
            ()
            (both ~graph:g ~failures ~max_rounds:(Pair.duration params) ~seed
               (Pair.protocol params)))
        [ 1; 2; 3 ])
    [ ("grid", Gen.Grid); ("ring", Gen.Ring); ("caterpillar", Gen.Caterpillar) ]

let test_loss_only_differential () =
  let g = Gen.grid 25 in
  let params = params_of g ~inputs:(default_inputs 25) in
  List.iter
    (fun loss ->
      List.iter
        (fun seed ->
          let failures = Failure.random g ~rng:(Prng.create seed) ~budget:4 ~max_round:200 in
          both
            ~faults:{ Engine.loss; dup = 0.0; delay = 0.0 }
            ~loss ~graph:g ~failures ~max_rounds:(Pair.duration params) ~seed
            (Pair.protocol params))
        [ 1; 2; 3 ])
    [ 0.05; 0.3 ]

(* ---------- fault-injection semantics on a beacon protocol ---------- *)

(* Node [b] broadcasts one unit payload every round; everyone else counts
   arrivals.  Every delivery fact below is exact with probability-1
   faults. *)
let beacon_proto b =
  {
    Engine.init = (fun _ ~rng:_ -> 0);
    step =
      (fun ~round:_ ~me ~state ~inbox ->
        if me = b then (state, [ () ]) else (state + List.length inbox, []));
    msg_bits = (fun () -> 1);
    root_done = (fun _ -> false);
    wake = Engine.every_round;
  }

let beacon ?faults ?online ~n ~b ~failures ~rounds () =
  Engine.run_chaos ?faults ?online ~graph:(Gen.path n) ~failures ~max_rounds:rounds ~seed:7
    (beacon_proto b)

let test_fault_semantics () =
  let rounds = 10 in
  let none = Failure.none ~n:2 in
  (* baseline: broadcasts of rounds 1..9 arrive in rounds 2..10 *)
  let r = beacon ~n:2 ~b:0 ~failures:none ~rounds () in
  check_int "no faults" (rounds - 1) r.Engine.c_states.(1);
  (* dup = 1: every delivery doubled *)
  let r =
    beacon ~faults:{ Engine.loss = 0.0; dup = 1.0; delay = 0.0 } ~n:2 ~b:0 ~failures:none ~rounds ()
  in
  check_int "dup=1 doubles" (2 * (rounds - 1)) r.Engine.c_states.(1);
  (* delay = 1: every delivery lands one round later (rounds 3..10) *)
  let r =
    beacon ~faults:{ Engine.loss = 0.0; dup = 0.0; delay = 1.0 } ~n:2 ~b:0 ~failures:none ~rounds ()
  in
  check_int "delay=1 shifts by one" (rounds - 2) r.Engine.c_states.(1);
  (* loss = 1: silence *)
  let r =
    beacon ~faults:{ Engine.loss = 1.0; dup = 0.0; delay = 0.0 } ~n:2 ~b:0 ~failures:none ~rounds ()
  in
  check_int "loss=1 silences" 0 r.Engine.c_states.(1)

(* A delayed message is in flight: the sender's crash must not revoke it
   (crash means stop, not message loss — and in-flight means in flight). *)
let test_delay_survives_sender_crash () =
  let failures = Failure.of_list ~n:3 [ (1, 3) ] in
  let r =
    beacon
      ~faults:{ Engine.loss = 0.0; dup = 0.0; delay = 1.0 }
      ~n:3 ~b:1 ~failures ~rounds:6 ()
  in
  (* node 1 broadcasts in rounds 1 and 2 only (crashes at 3); both
     deliveries are delayed to rounds 3 and 4 — the round-2 broadcast
     arrives after its sender died *)
  check_int "both delayed deliveries arrive" 2 r.Engine.c_states.(2);
  check_int "other neighbour too" 2 r.Engine.c_states.(0)

let test_short_schedule_rejected () =
  Alcotest.check_raises "n-1 schedule" (Invalid_argument "Engine: failure schedule size mismatch")
    (fun () -> ignore (beacon ~n:3 ~b:0 ~failures:(Failure.none ~n:2) ~rounds:3 ()))

(* ---------- online adversary mechanics ---------- *)

let test_online_crash_timing () =
  (* crash node 1 after round 2: its round-2 broadcast is still delivered,
     round-3 and later broadcasts never happen *)
  let online report = if report.Engine.rr_round = 2 then [ 1 ] else [] in
  let r = beacon ~online ~n:3 ~b:1 ~failures:(Failure.none ~n:3) ~rounds:8 () in
  check_int "broadcasts of rounds 1-2 delivered" 2 r.Engine.c_states.(2);
  check_true "schedule materialized" (Failure.to_list r.Engine.c_schedule = [ (1, 3) ])

let test_online_cannot_crash_root () =
  let online _ = [ 0 ] in
  let r = beacon ~online ~n:3 ~b:0 ~failures:(Failure.none ~n:3) ~rounds:8 () in
  check_true "root survives" (Failure.to_list r.Engine.c_schedule = []);
  check_int "root kept broadcasting" 7 r.Engine.c_states.(1)

let base_scenario ~family ~n ~t =
  {
    Incident.family;
    n;
    topo_seed = 9;
    run_seed = 4;
    c = 2;
    t;
    inputs = Array.init n (fun k -> (k * 7 mod 50) + 1);
    schedule = [];
    faults = Engine.no_faults;
    kind = Incident.Pair_run;
    bit_cap = None;
  }

let test_adaptive_budget_respected () =
  List.iter
    (fun adversary ->
      List.iter
        (fun budget ->
          let sc = base_scenario ~family:Gen.Grid ~n:16 ~t:3 in
          let graph = Campaign.graph_of sc in
          let params = Campaign.params_of sc graph in
          let base, online =
            Adversary.instantiate adversary graph ~rng:(Prng.create 42) ~budget
              ~window:(Pair.duration params)
          in
          check_true "adaptive base schedule empty" (Failure.to_list base = []);
          let report = Campaign.run_pair ?online sc in
          let materialized = Failure.of_list ~n:16 report.Campaign.scenario.Incident.schedule in
          let cost = Failure.edge_failures graph materialized in
          check_true
            (Printf.sprintf "%s budget %d: cost %d" (Adversary.name adversary) budget cost)
            (cost <= budget))
        [ 0; 3; 7 ])
    Adversary.adaptive_all

(* Replaying the materialized schedule obliviously must reproduce the
   adaptive run bit for bit — the property that makes incidents
   deterministic artifacts. *)
let test_materialized_replay () =
  let sc = base_scenario ~family:Gen.Caterpillar ~n:18 ~t:2 in
  let graph = Campaign.graph_of sc in
  let params = Campaign.params_of sc graph in
  let _, online =
    Adversary.instantiate (Adversary.Adaptive Adversary.Top_talkers) graph ~rng:(Prng.create 3)
      ~budget:6 ~window:(Pair.duration params)
  in
  let live = Campaign.run_pair ?online sc in
  check_true "adaptive adversary crashed someone" (live.Campaign.scenario.Incident.schedule <> []);
  let replayed = Campaign.run_pair live.Campaign.scenario in
  check_int "cc" live.Campaign.cc replayed.Campaign.cc;
  check_int "rounds" live.Campaign.rounds replayed.Campaign.rounds;
  check_true "verdict" (live.Campaign.verdict = replayed.Campaign.verdict);
  check_true "violation" (live.Campaign.violation = replayed.Campaign.violation);
  check_true "schedule unchanged"
    (live.Campaign.scenario.Incident.schedule = replayed.Campaign.scenario.Incident.schedule)

(* ---------- golden vectors for fractional faults ---------- *)

(* Every loss/dup/delay combination over {0.1, 0.3}, under an adaptive
   adversary and the pair watchdog, on 2 families x 3 seeds.  A case is
   pinned by its rounds, CC, violation and an MD5 of the whole outcome:
   per-node AGG projection, bits and messages, the materialized schedule
   and the violation detail.  Fractional probabilities make every draw
   count, so these vectors pin the fault PRNG order — per neighbour with
   traffic, ascending: loss, then dup, then delay. *)
let fault_fingerprint ~family ~seed (loss, dup, delay) =
  let n = 20 in
  let sc = { (base_scenario ~family ~n ~t:2) with Incident.topo_seed = seed; run_seed = seed } in
  let graph = Campaign.graph_of sc in
  let params = Campaign.params_of sc graph in
  let window = Pair.duration params in
  let _, online =
    Adversary.instantiate (Adversary.Adaptive Adversary.Top_talkers) graph ~rng:(Prng.create seed)
      ~budget:4 ~window
  in
  let r =
    Engine.run_chaos ~faults:{ Engine.loss; dup; delay } ?online
      ~watch:(Watchdog.pair_watch ~params ~graph ())
      ~halt_on_violation:false ~graph ~failures:(Failure.none ~n) ~max_rounds:window ~seed
      (Pair.protocol params)
  in
  let m = r.Engine.c_metrics in
  let b = Buffer.create 1024 in
  Array.iteri
    (fun u st ->
      let level, parent, psum, max_level, aborted = agg_project (Pair.agg st) in
      Printf.bprintf b "%d:%d,%d,%d,%d,%b,%d,%d;" u level parent psum max_level aborted
        (Metrics.bits_sent m u) (Metrics.msgs_sent m u))
    r.Engine.c_states;
  List.iter
    (fun (u, at) -> Printf.bprintf b "crash %d@%d;" u at)
    (Failure.to_list r.Engine.c_schedule);
  let violation =
    match r.Engine.c_violation with
    | None -> "-"
    | Some v ->
      Printf.bprintf b "%s" v.Engine.detail;
      Printf.sprintf "%s@%d" v.Engine.invariant v.Engine.at_round
  in
  Printf.sprintf "rounds=%d cc=%d v=%s %s" (Metrics.rounds m) (Metrics.cc m) violation
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let golden_faults =
  [
    ( (Gen.Grid, 1),
      [
        "rounds=175 cc=422 v=representative_psums@102 817c402575543839e8526e0f8e7b5486";
        "rounds=175 cc=682 v=- 6ecd9aad7c87a6e63a17b4286b5032cc";
        "rounds=175 cc=422 v=representative_psums@102 8e76abadd557833f6bad013b36558060";
        "rounds=175 cc=682 v=- 609e3a224331997dc98fa33de7d27c51";
        "rounds=175 cc=98 v=table2_s2_correct@175 7d04e3afc12a97ed8a900d1e4bafe7d2";
        "rounds=175 cc=98 v=table2_s2_correct@175 64dcad9812903f01d133977c848674b2";
        "rounds=175 cc=98 v=table2_s2_correct@175 7d04e3afc12a97ed8a900d1e4bafe7d2";
        "rounds=175 cc=98 v=table2_s2_correct@175 64dcad9812903f01d133977c848674b2";
      ] );
    ( (Gen.Grid, 2),
      [
        "rounds=175 cc=627 v=table2_s2_correct@175 a27a245488270a90a01aa239bea922ef";
        "rounds=175 cc=634 v=- ecb2a3876229bd1a7433ef0190a32cfc";
        "rounds=175 cc=627 v=table2_s2_correct@175 91358d33845bb2cc3ae3b247bfb00099";
        "rounds=175 cc=634 v=- 45d1359c937feb58cfaed1a185011ea2";
        "rounds=175 cc=583 v=- 238dd5db4a9c214c529a439ebddb8830";
        "rounds=175 cc=697 v=- 02a9106e554a6d91321ce04222709a1c";
        "rounds=175 cc=583 v=- 21c81ab3bf27b5efb45a16bb8bbe8f96";
        "rounds=175 cc=697 v=- 02a9106e554a6d91321ce04222709a1c";
      ] );
    ( (Gen.Grid, 3),
      [
        "rounds=175 cc=118 v=table2_s2_correct@175 5c1fb636812e535f51e2c88a428d99ec";
        "rounds=175 cc=118 v=table2_s2_correct@175 5c1fb636812e535f51e2c88a428d99ec";
        "rounds=175 cc=118 v=table2_s2_correct@175 5c1fb636812e535f51e2c88a428d99ec";
        "rounds=175 cc=118 v=table2_s2_correct@175 5c1fb636812e535f51e2c88a428d99ec";
        "rounds=175 cc=118 v=table2_s2_correct@175 6bd8a0e9031a928ef7d75c6bd6ce5b8d";
        "rounds=175 cc=118 v=table2_s2_correct@175 cbc89d865556a685006fa033e71a435c";
        "rounds=175 cc=118 v=table2_s2_correct@175 6bd8a0e9031a928ef7d75c6bd6ce5b8d";
        "rounds=175 cc=118 v=table2_s2_correct@175 cbc89d865556a685006fa033e71a435c";
      ] );
    ( (Gen.Random_regular 4, 1),
      [
        "rounds=79 cc=259 v=representative_psums@46 38ebf6c784c7eac3d9d36d3beb643a2d";
        "rounds=79 cc=656 v=- f0ba4908175df4284ceb7841101cebf3";
        "rounds=79 cc=259 v=representative_psums@46 9430294a1906e30841be29dca159219e";
        "rounds=79 cc=656 v=- 20cdafd3ad5c4a591b6ace921df8142f";
        "rounds=79 cc=737 v=- a00dec9023a650508a556003caaa7635";
        "rounds=79 cc=784 v=- c48eb7640250d0b8226cde7944a31b38";
        "rounds=79 cc=737 v=- 586a199aa266cc6b83788529c7e3af75";
        "rounds=79 cc=784 v=- 4595410db6957831893f72407c2d8e26";
      ] );
    ( (Gen.Random_regular 4, 2),
      [
        "rounds=79 cc=483 v=representative_psums@46 7c455d313f892cd5ed22dc3cce4f7a6f";
        "rounds=79 cc=497 v=- 1744720cd09bc4f080d7a2b66e7892ab";
        "rounds=79 cc=483 v=representative_psums@46 7c455d313f892cd5ed22dc3cce4f7a6f";
        "rounds=79 cc=497 v=- ef899d7e736def92e9ac55848b87fc49";
        "rounds=79 cc=710 v=- ad10f17864c9944594e5931f782edd52";
        "rounds=79 cc=677 v=- 087a7ee2eab2d02c36a5c464919178b3";
        "rounds=79 cc=710 v=- f71e916e386692c88aea292df9a19f6a";
        "rounds=79 cc=677 v=- cac9630af96c59846580c14b39b37dee";
      ] );
    ( (Gen.Random_regular 4, 3),
      [
        "rounds=79 cc=623 v=- a07e83ef9e3eef89027c16074c4d59e7";
        "rounds=79 cc=620 v=- 01147c7a6b3421b50c979df0947323e0";
        "rounds=79 cc=623 v=- 11eb1f1ce109336259b18dd8277a5138";
        "rounds=79 cc=620 v=- 227e1d6d9ba662b96459334bd96504c3";
        "rounds=79 cc=656 v=- 0ea3f319c74f50e58fea9af301518f0c";
        "rounds=79 cc=776 v=- bf26704c25d85ffd2fc2e8872fe1d215";
        "rounds=79 cc=656 v=- b58633718172f78d65ff1ad4a86e1f39";
        "rounds=79 cc=776 v=- a3264b1bb644c2f0f38f5fcfd255b69c";
      ] );
  ]

let test_fault_golden_vectors () =
  let ps = [ 0.1; 0.3 ] in
  let combos =
    List.concat_map
      (fun loss -> List.concat_map (fun dup -> List.map (fun delay -> (loss, dup, delay)) ps) ps)
      ps
  in
  List.iter
    (fun ((family, seed), expected) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s seed %d" (Incident.family_to_string family) seed)
        expected
        (List.map (fault_fingerprint ~family ~seed) combos))
    golden_faults

(* ---------- frontier rounds under faults ---------- *)

(* A protocol's wake schedule must not change a chaos run: every live
   node still walks its neighbours, so the fault coins fall exactly as
   when every node steps every round.  Compared over every loss/dup/delay
   combination of {0.1, 0.3}, under an adaptive adversary and [watch],
   on the whole outcome: per-node [project]ed state, bits and messages,
   the materialised schedule and the violation. *)
let frontier_matches_every_round ~window ~watch ~project proto wake =
  let n = 20 in
  let ps = [ 0.1; 0.3 ] in
  List.iter
    (fun (family, seed) ->
      let graph = Gen.build family ~n ~seed in
      let params = params_of ~t:2 graph ~inputs:(default_inputs n) in
      let window = window params in
      let outcome faults wake =
        let _, online =
          Adversary.instantiate (Adversary.Adaptive Adversary.Top_talkers) graph
            ~rng:(Prng.create seed) ~budget:4 ~window
        in
        let r =
          Engine.run_chaos ~faults ?online ~watch:(watch ~params ~graph)
            ~halt_on_violation:false ~graph ~failures:(Failure.none ~n) ~max_rounds:window ~seed
            { (proto params) with Engine.wake }
        in
        let m = r.Engine.c_metrics in
        ( Array.mapi
            (fun u st -> (project st, Metrics.bits_sent m u, Metrics.msgs_sent m u))
            r.Engine.c_states,
          Failure.to_list r.Engine.c_schedule,
          r.Engine.c_violation )
      in
      List.iter
        (fun loss ->
          List.iter
            (fun dup ->
              List.iter
                (fun delay ->
                  let faults = { Engine.loss; dup; delay } in
                  check_true
                    (Printf.sprintf "%s seed %d loss %g dup %g delay %g"
                       (Incident.family_to_string family) seed loss dup delay)
                    (outcome faults wake = outcome faults Engine.every_round))
                ps)
            ps)
        ps)
    [ (Gen.Grid, 1); (Gen.Random_regular 4, 2) ]

(* AGG under a planted bit cap. *)
let test_frontier_under_faults () =
  frontier_matches_every_round ~window:Agg.duration
    ~watch:(fun ~params:_ ~graph:_ -> Backend.bits_watch ~bit_cap:120)
    ~project:agg_project Agg.protocol Agg.wake

(* The pair under its watchdog, which reads the round's broadcasters; the
   projection is the whole state. *)
let test_pair_frontier_under_faults () =
  frontier_matches_every_round ~window:Pair.duration
    ~watch:(fun ~params ~graph -> Watchdog.pair_watch ~params ~graph ())
    ~project:(fun st -> Marshal.to_string st [ Marshal.Closures ])
    (fun params -> Pair.protocol params)
    Pair.wake

(* ---------- watchdog ---------- *)

(* Clean and dirty-but-within-the-model runs must stay silent: the
   watchdog checks guarantees, and under crash-only adversaries the
   theorems hold. *)
let test_watchdog_quiet_on_lawful_runs () =
  List.iter
    (fun (family, n) ->
      List.iter
        (fun budget ->
          let sc = base_scenario ~family ~n ~t:4 in
          let graph = Campaign.graph_of sc in
          let failures =
            Failure.random graph ~rng:(Prng.create (budget * 31)) ~budget ~max_round:60
          in
          let sc = { sc with Incident.schedule = Failure.to_list failures } in
          let report = Campaign.run_pair sc in
          check_true
            (Printf.sprintf "quiet: %s budget %d" (Incident.family_to_string family) budget)
            (report.Campaign.violation = None))
        [ 2; 9 ])
    [ (Gen.Grid, 16); (Gen.Ring, 14); (Gen.Star, 12) ]

(* Plant a violation by lowering the cap below the real bottleneck's
   total, and insist the watchdog fires at the exact round the
   bottleneck crosses it. *)
let test_planted_bit_cap_fires_at_correct_round () =
  let sc = base_scenario ~family:Gen.Star ~n:8 ~t:0 in
  let graph = Campaign.graph_of sc in
  let params = Campaign.params_of sc graph in
  let proto = Pair.protocol params in
  let duration = Pair.duration params in
  let failures = Failure.none ~n:8 in
  let _, m = Engine.run ~graph ~failures ~max_rounds:duration ~seed:sc.Incident.run_seed proto in
  let cap = Metrics.cc m / 2 in
  check_true "cap is planted below the real bottleneck" (cap < Metrics.cc m);
  (* ground truth: replay with an observer and find the first round some
     node's cumulative bits exceed the cap *)
  let cum = Array.make 8 0 in
  let expected = ref max_int in
  let observer ~round ~node out =
    cum.(node) <- cum.(node) + List.fold_left (fun a msg -> a + Message.bits params msg) 0 out;
    if cum.(node) > cap && round < !expected then expected := round
  in
  let _ = Engine.run ~observer ~graph ~failures ~max_rounds:duration ~seed:sc.Incident.run_seed proto in
  check_true "the cap is crossed mid-run" (!expected < duration);
  let report = Campaign.run_pair { sc with Incident.bit_cap = Some cap } in
  match report.Campaign.violation with
  | None -> Alcotest.fail "planted violation not caught"
  | Some v ->
    check_true "invariant" (v.Engine.invariant = "bit_budget");
    check_int "caught at the first crossing round" !expected v.Engine.at_round;
    check_int "run halted there" !expected report.Campaign.rounds

(* The bit-cap and activation checks as they were, scanning all n nodes
   every round; the shipped ones walk only the round's broadcasters. *)
let full_scan_bits ~bit_cap (view : _ Engine.view) =
  let n = Array.length view.Engine.v_states in
  let rec bits u =
    if u >= n then None
    else
      let b = Metrics.bits_sent view.Engine.v_metrics u in
      if b > bit_cap then
        Some
          ( "bit_budget",
            Printf.sprintf "node %d has sent %d bits, over the %d-bit cap" u b bit_cap )
      else bits (u + 1)
  in
  bits 0

let full_scan_watch ~bit_cap ~params ~graph (view : Pair.node Engine.view) =
  let states = view.Engine.v_states and round = view.Engine.v_round in
  let n = Array.length states and cd = Params.cd params in
  let rec activation u =
    if u >= n then None
    else begin
      let a = Pair.agg states.(u) in
      if not (Agg.activated a) then activation (u + 1)
      else begin
        let l = Agg.level a in
        let bad detail = Some ("activation_discipline", Printf.sprintf "node %d: %s" u detail) in
        if l < 0 || l > cd then bad (Printf.sprintf "level %d outside [0, cd=%d]" l cd)
        else if l >= round then
          bad (Printf.sprintf "level %d not below round %d (activated too early)" l round)
        else if u = Graph.root then if l <> 0 then bad "root level is not 0" else activation (u + 1)
        else begin
          let p = Agg.parent a in
          if p < 0 || p >= n then bad "activated with no parent"
          else if not (List.mem p (Graph.neighbors graph u)) then
            bad (Printf.sprintf "parent %d is not a neighbour" p)
          else begin
            let pa = Pair.agg states.(p) in
            if not (Agg.activated pa) then bad (Printf.sprintf "parent %d never activated" p)
            else if Agg.level pa <> l - 1 then
              bad (Printf.sprintf "parent %d has level %d, expected %d" p (Agg.level pa) (l - 1))
            else activation (u + 1)
          end
        end
      end
    end
  in
  match full_scan_bits ~bit_cap view with Some v -> Some v | None -> activation 0

(* Planted caps (negative, tight and loose), faults and an adaptive
   adversary, and watches handed a graph without some edges or without
   one node's edges (so parents stop being neighbours, the cut-off node
   first):
   the shipped pair watch and a full scan in front of a second copy of it
   must stop at the same first (round, invariant, detail).  The bare bit
   cap is also checked on a protocol whose root is silent. *)
let test_watch_matches_full_scan () =
  let n = 20 in
  let first_violation ~faults ~graph ~params ~watch seed =
    let _, online =
      Adversary.instantiate (Adversary.Adaptive Adversary.Top_talkers) graph
        ~rng:(Prng.create seed) ~budget:4 ~window:(Pair.duration params)
    in
    (Engine.run_chaos ~faults ?online ~watch ~graph ~failures:(Failure.none ~n)
       ~max_rounds:(Pair.duration params) ~seed (Pair.protocol params))
      .Engine.c_violation
  in
  let fired = ref 0 in
  List.iter
    (fun (family, seed) ->
      let graph = Gen.build family ~n ~seed in
      let params = params_of ~t:2 graph ~inputs:(default_inputs n) in
      let keep_edges keep =
        Graph.of_edges ~n
          (Graph.fold_edges (fun u v acc -> if keep u v then (u, v) :: acc else acc) graph [])
      in
      let thinned = keep_edges (fun u v -> (u + v) mod 3 <> 0) in
      let planted =
        List.concat_map
          (fun g -> List.map (fun cap -> (g, cap)) [ None; Some (-1); Some 0; Some 40; Some 150 ])
          [ graph; thinned ]
        @ List.init (n - 1) (fun u -> (keep_edges (fun a b -> a <> u + 1 && b <> u + 1), None))
      in
      List.iter
        (fun (wgraph, bit_cap) ->
          List.iter
            (fun faults ->
              let watch () = Watchdog.pair_watch ?bit_cap ~params ~graph:wgraph () in
              let shipped = first_violation ~faults ~graph ~params ~watch:(watch ()) seed in
              let rest = watch () in
              let cap = Option.value bit_cap ~default:(Watchdog.pair_bit_cap params) in
              let full view =
                match full_scan_watch ~bit_cap:cap ~params ~graph:wgraph view with
                | Some v -> Some v
                | None -> rest view
              in
              if shipped <> None then incr fired;
              check_true
                (Printf.sprintf "%s seed %d cap %s" (Incident.family_to_string family) seed
                   (match bit_cap with Some c -> string_of_int c | None -> "-"))
                (shipped = first_violation ~faults ~graph ~params ~watch:full seed))
            [ Engine.no_faults; { Engine.loss = 0.1; dup = 0.3; delay = 0.3 } ])
        planted)
    [ (Gen.Grid, 1); (Gen.Random_regular 4, 2); (Gen.Caterpillar, 3) ];
  check_true "most cases fire" (!fired >= 120);
  (* Node 1 beacons; the root never broadcasts. *)
  List.iter
    (fun bit_cap ->
      let violation watch =
        (Engine.run_chaos ~watch ~graph:(Gen.path 3) ~failures:(Failure.none ~n:3) ~max_rounds:6
           ~seed:7 (beacon_proto 1))
          .Engine.c_violation
      in
      check_true
        (Printf.sprintf "beacon cap %d" bit_cap)
        (violation (Backend.bits_watch ~bit_cap) = violation (full_scan_bits ~bit_cap)))
    [ -1; 0; 3 ]

(* ---------- shrinking ---------- *)

let test_shrink_minimizes_planted_violation () =
  let sc = base_scenario ~family:Gen.Star ~n:12 ~t:1 in
  let sc = { sc with Incident.bit_cap = Some 50; schedule = [ (3, 40); (5, 60); (7, 80) ] } in
  match Campaign.check sc with
  | None -> Alcotest.fail "planted scenario does not violate"
  | Some v ->
    check_true "bit budget violated" (v.Engine.invariant = "bit_budget");
    let shrunk, v', stats = Campaign.shrink sc v in
    check_true "same invariant after shrinking" (v'.Engine.invariant = "bit_budget");
    check_true "irrelevant crashes dropped" (shrunk.Incident.schedule = []);
    check_true "system no larger" (shrunk.Incident.n <= sc.Incident.n);
    check_int "stats: original crash count" 3 stats.Incident.s_from_crashes;
    check_int "stats: original size" 12 stats.Incident.s_from_n;
    check_true "oracle runs were spent" (stats.Incident.s_tries > 0);
    (* the minimized scenario is still a standalone reproducer *)
    (match Campaign.check shrunk with
    | Some v'' -> check_true "shrunk scenario reproduces" (v''.Engine.invariant = "bit_budget")
    | None -> Alcotest.fail "shrunk scenario lost the violation")

(* ---------- campaign + incident + replay, end to end ---------- *)

let test_campaign_end_to_end () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "ftagg-chaos-test" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let outcome =
    Campaign.run
      {
        Campaign.trials = 6;
        seed = 99;
        out_dir = Some dir;
        bit_cap = Some 40;
        max_n = 14;
        log = ignore;
        obs = None;
        via = None;
        backend = "agg";
      }
  in
  check_true "planted cap violates every trial" (outcome.Campaign.o_violating_trials = 6);
  match outcome.Campaign.o_incidents with
  | [ (inc, Some path) ] ->
    check_true "bit budget incident" (inc.Incident.violation.Engine.invariant = "bit_budget");
    check_true "shrunken" (inc.Incident.shrink <> None);
    check_true "incident file written" (Sys.file_exists path);
    (match Incident.load ~path with
    | Error e -> Alcotest.fail e
    | Ok loaded -> (
      check_true "round trip: scenario" (loaded.Incident.scenario = inc.Incident.scenario);
      check_true "round trip: violation" (loaded.Incident.violation = inc.Incident.violation);
      match Campaign.replay loaded with
      | Some v -> check_true "replay reproduces" (v.Engine.invariant = "bit_budget")
      | None -> Alcotest.fail "replay did not reproduce"))
  | incidents ->
    Alcotest.fail (Printf.sprintf "expected exactly one saved incident, got %d" (List.length incidents))

(* ---------- incident serialization ---------- *)

let test_family_codec () =
  List.iter
    (fun f ->
      check_true
        (Incident.family_to_string f)
        (Incident.family_of_string (Incident.family_to_string f) = Some f))
    [ Gen.Path; Gen.Ring; Gen.Grid; Gen.Star; Gen.Binary_tree; Gen.Complete; Gen.Random 0.05;
      Gen.Random 0.15; Gen.Caterpillar; Gen.Lollipop; Gen.Torus; Gen.Random_regular 4 ]

let test_incident_json_round_trip () =
  let inc =
    {
      Incident.adversary = "adaptive:first_speakers";
      scenario =
        {
          Incident.family = Gen.Random 0.15;
          n = 17;
          topo_seed = 123;
          run_seed = 456;
          c = 2;
          t = 3;
          inputs = Array.init 17 (fun k -> k + 1);
          schedule = [ (2, 5); (9, 31) ];
          faults = { Engine.loss = 0.01; dup = 0.25; delay = 0.5 };
          kind = Incident.Backend_run { backend = "tradeoff"; b = 84; f = 6 };
          bit_cap = Some 512;
        };
      violation = { Engine.at_round = 77; invariant = "theorem1_time"; detail = "too slow" };
      shrink = Some { Incident.s_tries = 41; s_from_crashes = 9; s_from_n = 40 };
    }
  in
  let text = Bench_io.to_string (Incident.to_json inc) in
  match Bench_io.of_string text with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    match Incident.of_json j with
    | Error e -> Alcotest.fail e
    | Ok inc' ->
      check_true "adversary" (inc'.Incident.adversary = inc.Incident.adversary);
      check_true "scenario" (inc'.Incident.scenario = inc.Incident.scenario);
      check_true "violation" (inc'.Incident.violation = inc.Incident.violation);
      check_true "shrink stats" (inc'.Incident.shrink = inc.Incident.shrink))

(* The older Algorithm 1 form names no backend: {"tradeoff": true, "b",
   "f"} decodes to the "tradeoff" row, so incidents saved in it still
   replay. *)
let test_incident_legacy_tradeoff_kind () =
  let text =
    {|{"version": 1, "adversary": "oblivious:random",
       "violation": {"at_round": 3, "invariant": "theorem1_time", "detail": "x"},
       "scenario": {"family": "grid", "n": 4, "topo_seed": 1, "run_seed": 2, "c": 2, "t": 1,
                    "inputs": [1, 2, 3, 4], "schedule": [],
                    "kind": {"tradeoff": true, "b": 84, "f": 6}, "bit_cap": null},
       "shrink": null}|}
  in
  match Result.bind (Bench_io.of_string text) Incident.of_json with
  | Error e -> Alcotest.fail e
  | Ok inc ->
    check_true "the tradeoff row with its budgets"
      (inc.Incident.scenario.Incident.kind
      = Incident.Backend_run { backend = "tradeoff"; b = 84; f = 6 })

(* Theorem 1's time check: a root with no output when the b·d budget
   runs out breaks the time bound.  No lawful run reaches this check
   (Algorithm 1's fallback always outputs by b·d), so it is driven by
   hand on fresh states. *)
let test_tradeoff_watch_time () =
  let n = 16 and b = 84 in
  let graph = Gen.grid n in
  let params = Params.make ~graph ~inputs:(Array.make n 1) () in
  let proto = Tradeoff.protocol params ~b ~f:2 in
  let states = Array.init n (fun u -> proto.Engine.init u ~rng:(Prng.create u)) in
  let view round =
    {
      Engine.v_round = round;
      v_states = states;
      v_metrics = Metrics.create n;
      v_crash_rounds = Failure.crash_rounds (Failure.none ~n);
      v_broadcasters = [];
    }
  in
  let watch = Watchdog.tradeoff_watch ~params ~graph ~b () in
  let deadline = Tradeoff.max_rounds params ~b in
  check_true "silent before b·d" (watch (view (deadline - 1)) = None);
  match watch (view deadline) with
  | Some (invariant, _) -> check_true "theorem1_time at b·d" (invariant = "theorem1_time")
  | None -> Alcotest.fail "a root with no output at b·d was not reported"

let suite =
  [
    Alcotest.test_case "chaos-off ≡ hot path (3 families x 3 seeds)" `Quick
      test_chaos_off_differential;
    Alcotest.test_case "loss-only ≡ run_reference ~loss" `Quick test_loss_only_differential;
    Alcotest.test_case "fault semantics: dup/delay/loss at p=1" `Quick test_fault_semantics;
    Alcotest.test_case "delayed delivery survives sender crash" `Quick
      test_delay_survives_sender_crash;
    Alcotest.test_case "fault golden vectors (loss/dup/delay x adaptive)" `Quick
      test_fault_golden_vectors;
    Alcotest.test_case "AGG wake ≡ every round under faults x adaptive" `Quick
      test_frontier_under_faults;
    Alcotest.test_case "short crash schedule rejected" `Quick test_short_schedule_rejected;
    Alcotest.test_case "online: crash lands at round r+1" `Quick test_online_crash_timing;
    Alcotest.test_case "online: root is untouchable" `Quick test_online_cannot_crash_root;
    Alcotest.test_case "adaptive adversaries respect the edge budget" `Quick
      test_adaptive_budget_respected;
    Alcotest.test_case "materialized schedule replays bit for bit" `Quick test_materialized_replay;
    Alcotest.test_case "watchdog quiet on lawful runs" `Quick test_watchdog_quiet_on_lawful_runs;
    Alcotest.test_case "planted bit cap caught at the exact round" `Quick
      test_planted_bit_cap_fires_at_correct_round;
    Alcotest.test_case "shrinker drops irrelevant crashes" `Quick
      test_shrink_minimizes_planted_violation;
    Alcotest.test_case "campaign → incident → JSON → replay" `Quick test_campaign_end_to_end;
    Alcotest.test_case "family codec round trip" `Quick test_family_codec;
    Alcotest.test_case "incident JSON round trip" `Quick test_incident_json_round_trip;
    Alcotest.test_case "legacy tradeoff incident decodes to the tradeoff row" `Quick
      test_incident_legacy_tradeoff_kind;
    Alcotest.test_case "tradeoff watch: no root output by b·d is theorem1_time" `Quick
      test_tradeoff_watch_time;
    Alcotest.test_case "pair wake ≡ every round under faults x adaptive x watchdog" `Quick
      test_pair_frontier_under_faults;
    Alcotest.test_case "broadcaster watches ≡ full scan on planted violations" `Quick
      test_watch_matches_full_scan;
  ]
