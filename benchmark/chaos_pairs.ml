(* chaos-pairs: watched AGG+VERI pairs through [Campaign.run_pair], the
   list-based [Engine.run_chaos] path plus its watchdog, which scale-agg
   never touches.  Trials cycle three families (so diameters and round
   counts vary), every adversary in [Adversary.all] (oblivious and
   adaptive) and edge-failure budgets 3 and 10 at t = 3, as in e17.  Trial
   [i] takes each of the three from [i] modulo its length; 3, 7 and 2 are
   pairwise coprime, so a lap of 42 trials covers every combination once
   and every prefix interleaves all three. *)

open Common
module Gen = Ftagg.Gen
module Prng = Ftagg.Prng
module Adversary = Ftagg.Adversary
module Campaign = Ftagg.Campaign
module Incident = Ftagg.Incident
module Failure = Ftagg.Failure
module Pair = Ftagg.Pair

let name = "chaos-pairs"
let families = [| Gen.Grid; Gen.Caterpillar; Gen.Random_regular 4 |]
let adversaries = Array.of_list Adversary.all
let budgets = [| 3; 10 |]
let t_param = 3
let cycle = Array.length families * Array.length adversaries * Array.length budgets
let nodes ~smoke = if smoke then 30 else 256
let setups = 3
let warmup_trials = 5

type trial = {
  scenario : Incident.scenario;
  adversary : Adversary.t;
  budget : int;
  adversary_seed : int;
}

(* Trial [i] of the cycle: the family, adversary and budget follow from
   [i]; topology, run, input and adversary draws from [seed]. *)
let recipe ~n ~seed i =
  let rng = Prng.create ((seed * 1_000_003) + i) in
  let topo_seed = Prng.int rng 1_000_000 in
  let run_seed = Prng.int rng 1_000_000 in
  let adversary_seed = Prng.int rng 1_000_000 in
  {
    scenario =
      {
        Incident.family = families.(i mod Array.length families);
        n;
        topo_seed;
        run_seed;
        c = 2;
        t = t_param;
        inputs = Ftagg.Params.random_inputs ~rng ~n ~max_input:50;
        schedule = [];
        faults = Ftagg.Engine.no_faults;
        kind = Incident.Pair_run;
        bit_cap = None;
      };
    adversary = adversaries.(i mod Array.length adversaries);
    budget = budgets.(i mod Array.length budgets);
    adversary_seed;
  }

let check_report tally (r : Campaign.pair_report) =
  (match r.Campaign.violation with
  | Some v ->
    fail tally (Printf.sprintf "watchdog: %s at round %d" v.Ftagg.Engine.invariant v.Ftagg.Engine.at_round)
  | None -> ());
  check tally r.Campaign.correct "a pair's result is outside the correctness interval"

type part = Graph_of | Instantiate | Run_pair
type timer = { time : 'a. part -> (unit -> 'a) -> 'a }

let untimed = { time = (fun _ f -> f ()) }

(* The whole trial, as e17 drives it; [timer] brackets each part. *)
let run_trial ?(timer = untimed) ?wrap_online tr =
  let graph, params =
    timer.time Graph_of (fun () ->
        let g = Campaign.graph_of tr.scenario in
        (g, Campaign.params_of tr.scenario g))
  in
  let base, online =
    timer.time Instantiate (fun () ->
        Adversary.instantiate tr.adversary graph ~rng:(Prng.create tr.adversary_seed)
          ~budget:tr.budget ~window:(Pair.duration params))
  in
  let online = match wrap_online with Some w -> Option.map w online | None -> online in
  let sc = { tr.scenario with Incident.schedule = Failure.to_list base } in
  timer.time Run_pair (fun () -> Campaign.run_pair ?online sc)

let sizes ~n =
  Bench_io.
    [
      ("n", Int n); ("t", Int t_param); ("cycle", Int cycle);
      ("families", List (Array.to_list (Array.map (fun f -> String (Gen.family_name f)) families)));
      ("budgets", List (Array.to_list (Array.map (fun b -> Int b) budgets)));
      ("setups", Int setups); ("warmup_trials", Int warmup_trials);
    ]

(* Set-up: generate the cycle's scenarios and run the warm-up trials. *)
let setup tally ~n ~seed =
  let trials = Array.init cycle (recipe ~n ~seed) in
  for i = 0 to warmup_trials - 1 do
    check_report tally (run_trial trials.(i))
  done;
  trials

let timed ~smoke ~seed ~seconds =
  let tally = tally () in
  let n = nodes ~smoke in
  let r = recorder () in
  for _ = 2 to setups do
    ignore (record_setup r (fun () -> setup tally ~n ~seed))
  done;
  let trials = record_setup r (fun () -> setup tally ~n ~seed) in
  let start = now_ns () in
  let i = ref 0 in
  while !i = 0 || seconds_since start < seconds do
    attempt tally;
    let report, wall = timed_run (fun () -> run_trial trials.(!i mod cycle)) in
    add_work r ~work:1. ~wall;
    add_latency r wall;
    check_report tally report;
    incr i
  done;
  result ~workload:name ~phase:Timed ~tally ~wall_s:(seconds_since start) ~sizes:(sizes ~n)
    (end_to_end r ~rss:(peak_rss_metric None))

(* One untraced lap of the cycle for reference, then the same lap with
   every part timed and the adaptive adversaries' online callbacks
   wrapped, so their self time comes out of run_pair's.  The [_ms] parts
   are means per trial; run_pair's includes the graph_of/params_of it
   repeats internally. *)
let traced ~smoke ~seed =
  let tally = tally () in
  let n = nodes ~smoke in
  let trials = setup tally ~n ~seed in
  let (), untraced_s = timed_run (fun () -> Array.iter (fun tr -> ignore (run_trial tr)) trials) in
  let cal = calibrate () in
  let graph_st = stage "campaign.graph" and inst_st = stage "adversary.instantiate" in
  let online_st = stage "adversary.online" and pair_st = stage "campaign.run_pair" in
  let wrap_online f report =
    let t0 = now_ns () in
    let crashes = f report in
    stop online_st t0;
    crashes
  in
  let spans = ref [] in
  let timer =
    {
      time =
        (fun part f ->
          let st, label =
            match part with
            | Graph_of -> (graph_st, "graph_of+params_of")
            | Instantiate -> (inst_st, "instantiate")
            | Run_pair -> (pair_st, "run_pair")
          in
          let t0 = now_ns () in
          let v = f () in
          stop st t0;
          spans := span ~name:label ~cat:"chaos" ~t0 ~t1:(now_ns ()) () :: !spans;
          v);
    }
  in
  let rounds = ref 0 and node_rounds = ref 0 and crashes = ref 0 and violations = ref 0 in
  let landed = Array.make 3 0 in
  let traced_trial i tr =
    attempt tally;
    let ts = now_ns () in
    let r = run_trial ~timer ~wrap_online tr in
    spans :=
      span
        ~name:(Printf.sprintf "trial %d" i)
        ~cat:"chaos" ~t0:ts ~t1:(now_ns ())
        ~args:
          Bench_io.
            [
              ("family", String (Gen.family_name tr.scenario.Incident.family));
              ("adversary", String (Adversary.name tr.adversary));
              ("budget", Int tr.budget); ("rounds", Int r.Campaign.rounds);
            ]
        ()
      :: !spans;
    check_report tally r;
    if r.Campaign.violation <> None then incr violations;
    rounds := !rounds + r.Campaign.rounds;
    node_rounds := !node_rounds + (n * r.Campaign.rounds);
    crashes := !crashes + List.length r.Campaign.scenario.Incident.schedule;
    (* the Table 2 row the materialized schedule landed in *)
    let row = if r.Campaign.edge_failures <= t_param then 0 else if not r.Campaign.lfc then 1 else 2 in
    landed.(row) <- landed.(row) + 1
  in
  let (), traced_s = timed_run (fun () -> Array.iteri traced_trial trials) in
  let calls = graph_st.calls + inst_st.calls + online_st.calls + pair_st.calls in
  let net_s = Float.max 1e-9 (traced_s -. (float_of_int calls *. cal.outer_ns *. 1e-9)) in
  let online_s = self_s cal online_st in
  let parts =
    [
      ("campaign.graph", self_s cal graph_st, graph_st.calls);
      ("adversary.instantiate", self_s cal inst_st, inst_st.calls);
      ("adversary.online", online_s, online_st.calls);
      ("campaign.run_pair", self_s cal pair_st -. online_s, pair_st.calls);
    ]
  in
  let count name v = metric name "count" (float_of_int v) in
  result ~workload:name ~phase:Traced ~tally ~wall_s:traced_s ~sizes:(sizes ~n) ~spans:(List.rev !spans)
    (trace_metrics ~untraced:untraced_s ~traced:traced_s cal
    @ List.concat_map
        (fun (part, self, calls) ->
          [
            metric ~samples:calls (part ^ "_ms") "ms" (1000. *. self /. float_of_int cycle);
            metric (part ^ "_share") "share" (self /. net_s);
          ])
        parts
    @ [
        count "campaign.trials" cycle; count "campaign.rounds" !rounds;
        count "campaign.node_rounds" !node_rounds; count "adversary.crashes" !crashes;
        count "campaign.scenario1" landed.(0); count "campaign.scenario2" landed.(1);
        count "campaign.scenario3" landed.(2); count "campaign.violations" !violations;
      ])
