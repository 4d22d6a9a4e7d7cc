module Gen = Ftagg_graph.Gen
module Prng = Ftagg_util.Prng
module Engine = Ftagg_sim.Engine
module Failure = Ftagg_sim.Failure
module Metrics = Ftagg_sim.Metrics
module Params = Ftagg_proto.Params
module Pair = Ftagg_proto.Pair
module Checker = Ftagg_proto.Checker
module Run = Ftagg_proto.Run
module Backend = Ftagg_proto.Backend
module Watchdog = Ftagg_proto.Watchdog
module Obs = Ftagg_obs.Obs
module Bench_io = Ftagg_runner.Bench_io

let graph_of (sc : Incident.scenario) = Gen.build sc.Incident.family ~n:sc.Incident.n ~seed:sc.Incident.topo_seed

let params_of (sc : Incident.scenario) graph =
  Params.make ~c:sc.Incident.c ~t:sc.Incident.t ~graph ~inputs:sc.Incident.inputs ()

let backend_exn name =
  match Run.backend_of_string name with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Campaign: unknown backend %S" name)

let max_round_of (sc : Incident.scenario) =
  let graph = graph_of sc in
  let params = params_of sc graph in
  match sc.Incident.kind with
  | Incident.Pair_run -> Pair.duration params
  | Incident.Tradeoff_run { b; _ } -> b * params.Params.d
  | Incident.Backend_run { backend; b; f } ->
    let module B = (val backend_exn backend : Backend.S) in
    B.max_rounds ~params ~b ~f

type pair_report = {
  scenario : Incident.scenario;  (** with the materialized schedule *)
  violation : Engine.violation option;
  verdict : Pair.verdict option;
  correct : bool;
  lfc : bool;
  edge_failures : int;
  cc : int;
  rounds : int;
}

let run_pair ?online ?obs (sc : Incident.scenario) =
  let graph = graph_of sc in
  let params = params_of sc graph in
  let failures = Failure.of_list ~n:sc.Incident.n sc.Incident.schedule in
  let watch = Watchdog.pair_watch ?bit_cap:sc.Incident.bit_cap ~params ~graph () in
  let res =
    Engine.run_chaos ?obs ~faults:sc.Incident.faults ?online ~watch ~graph ~failures
      ~max_rounds:(Pair.duration params) ~seed:sc.Incident.run_seed (Pair.protocol params)
  in
  let metrics = res.Engine.c_metrics in
  let failures = res.Engine.c_schedule in
  let rounds = Metrics.rounds metrics in
  (* No verdict (and trivial correctness) when the watchdog halted the
     run before the pair finished — [violation] is authoritative then. *)
  let truth = Checker.pair_truth ~graph ~failures ~params ~end_round:rounds res.Engine.c_states in
  {
    scenario = { sc with Incident.schedule = Failure.to_list failures };
    violation = res.Engine.c_violation;
    verdict = truth.Checker.verdict;
    correct = truth.Checker.correct;
    lfc = truth.Checker.lfc;
    edge_failures = truth.Checker.edge_failures;
    cc = Metrics.cc metrics;
    rounds;
  }

type backend_report = {
  b_scenario : Incident.scenario;  (** with the materialized schedule *)
  b_violation : Engine.violation option;
  b_outcome : Backend.outcome;
}

let run_backend ?online ?obs (sc : Incident.scenario) =
  let bname, b, f =
    match sc.Incident.kind with
    | Incident.Backend_run { backend; b; f } -> (backend, b, f)
    | _ -> invalid_arg "Campaign.run_backend: scenario kind is not Backend_run"
  in
  let backend = backend_exn bname in
  let graph = graph_of sc in
  let params = params_of sc graph in
  let failures = Failure.of_list ~n:sc.Incident.n sc.Incident.schedule in
  let ch =
    Backend.exec_chaos ?obs ~faults:sc.Incident.faults ?online ?bit_cap:sc.Incident.bit_cap
      ~backend ~graph ~failures ~params ~b ~f ~seed:sc.Incident.run_seed ()
  in
  {
    b_scenario = { sc with Incident.schedule = Failure.to_list ch.Backend.c_schedule };
    b_violation = ch.Backend.c_violation;
    b_outcome = ch.Backend.c_outcome;
  }

let check_tradeoff (sc : Incident.scenario) ~b ~f =
  let graph = graph_of sc in
  let params = params_of sc graph in
  let failures = Failure.of_list ~n:sc.Incident.n sc.Incident.schedule in
  let o = Run.tradeoff ~graph ~failures ~params ~b ~f ~seed:sc.Incident.run_seed () in
  let rounds = o.Run.common.Run.rounds in
  if not o.Run.common.Run.correct then
    Some
      {
        Engine.at_round = rounds;
        invariant = "theorem1_correct";
        detail = "Algorithm 1 value outside the correctness interval";
      }
  else if o.Run.common.Run.flooding_rounds > b then
    Some
      {
        Engine.at_round = rounds;
        invariant = "theorem1_time";
        detail =
          Printf.sprintf "Algorithm 1 used %d flooding rounds, over the budget b=%d"
            o.Run.common.Run.flooding_rounds b;
      }
  else None

let check (sc : Incident.scenario) =
  match sc.Incident.kind with
  | Incident.Pair_run -> (run_pair sc).violation
  | Incident.Tradeoff_run { b; f } -> check_tradeoff sc ~b ~f
  | Incident.Backend_run _ -> (run_backend sc).b_violation

let shrink ?obs (sc : Incident.scenario) (v : Engine.violation) =
  (* Every accepted shrink step goes to the telemetry sink, so an
     incident's JSONL tail shows the search converging. *)
  let on_progress ~tries (sc' : Incident.scenario) =
    match obs with
    | None -> ()
    | Some o ->
      Ftagg_obs.Registry.incr (Obs.registry o) "chaos_shrink_steps_total" 1;
      Obs.event o ~kind:"shrink_step"
        [
          ("invariant", Bench_io.String v.Engine.invariant);
          ("tries", Bench_io.Int tries);
          ("crashes", Bench_io.Int (List.length sc'.Incident.schedule));
          ("n", Bench_io.Int sc'.Incident.n);
        ]
  in
  let shrunk, stats =
    Shrink.minimize ~on_progress ~oracle:check
      ~matches:(fun v' -> v'.Engine.invariant = v.Engine.invariant)
      ~max_round:(max_round_of sc) sc
  in
  (* Refresh the violation on the minimized scenario (the round usually
     moved); fall back to the original if the cap interfered. *)
  let v' = match check shrunk with Some v' -> v' | None -> v in
  (shrunk, v', stats)

let to_incident ?obs ~adversary (sc : Incident.scenario) (v : Engine.violation) =
  let shrunk, v', stats = shrink ?obs sc v in
  { Incident.adversary; scenario = shrunk; violation = v'; shrink = Some stats }

let replay (inc : Incident.t) = check inc.Incident.scenario

(* ---- randomized campaign ---- *)

type config = {
  trials : int;
  seed : int;
  out_dir : string option;
  bit_cap : int option;
  max_n : int;
  log : string -> unit;
  obs : Obs.t option;
  via : (Incident.scenario -> pair_report option) option;
  backend : string;
}

let default_config =
  {
    trials = 100;
    seed = 20260806;
    out_dir = None;
    bit_cap = None;
    max_n = 34;
    log = ignore;
    obs = None;
    via = None;
    backend = "agg";
  }

type outcome = {
  o_trials : int;
  o_rejected_trials : int;
  o_violating_trials : int;
  o_incidents : (Incident.t * string option) list;
}

let families =
  [| Gen.Path; Gen.Ring; Gen.Grid; Gen.Star; Gen.Binary_tree; Gen.Complete;
     Gen.Random 0.1; Gen.Caterpillar; Gen.Lollipop; Gen.Torus; Gen.Random_regular 4 |]

let adversaries = Array.of_list Adversary.all

let random_scenario rng ~bit_cap ~max_n =
  let family = families.(Prng.int rng (Array.length families)) in
  let n = 10 + Prng.int rng (max 1 (max_n - 9)) in
  let n = if family = Gen.Torus then max n 12 else n in
  {
    Incident.family;
    n;
    topo_seed = Prng.int rng 1_000_000;
    run_seed = Prng.int rng 1_000_000;
    c = 2;
    t = Prng.int rng 5;
    inputs = Array.init n (fun k -> (k * 7 mod 50) + 1);
    schedule = [];
    faults = Engine.no_faults;
    kind = Incident.Pair_run;
    bit_cap;
  }

let sanitize s =
  String.map (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> c | _ -> '_') s

(* What the trial loop needs from any backend's run: the materialized
   scenario and the first violation. *)
type trial = {
  t_scenario : Incident.scenario;
  t_violation : Engine.violation option;
}

let run config =
  (* Resolve the backend once, failing fast on a typo before burning
     trials; branch on the registry's own name, so any spelling of "agg"
     runs the watched pair. *)
  let backend = Backend.name (backend_exn config.backend) in
  let pair = backend = "agg" in
  let rng = Prng.create config.seed in
  let seen = Hashtbl.create 8 in
  let incidents = ref [] in
  let violating = ref 0 in
  let rejected = ref 0 in
  for i = 1 to config.trials do
    let sc0 = random_scenario rng ~bit_cap:config.bit_cap ~max_n:config.max_n in
    let adversary = adversaries.(Prng.int rng (Array.length adversaries)) in
    let budget = Prng.int rng 14 in
    let graph = graph_of sc0 in
    let params = params_of sc0 graph in
    (* The adversary draws against the pair window regardless of backend,
       and every rng draw above is backend-independent: campaigns with
       equal seeds run the {e same} oblivious schedules on every backend
       (the `ftagg chaos --backend …` comparability contract). *)
    let base, online =
      Adversary.instantiate adversary graph ~rng ~budget ~window:(Pair.duration params)
    in
    let sc0 = { sc0 with Incident.schedule = Failure.to_list base } in
    let sc0 =
      if pair then sc0
      else begin
        (* Round the pair window up to whole flooding rounds so the
           approximate backends run at least as long. *)
        let d = params.Params.d in
        let b = (Pair.duration params + d - 1) / d in
        { sc0 with Incident.kind = Incident.Backend_run { backend; b; f = budget } }
      end
    in
    (match config.obs with
    | Some o -> Ftagg_obs.Registry.incr (Obs.registry o) "chaos_trials_total" 1
    | None -> ());
    (* With a [via] transport the trial runs wherever the hook says —
       e.g. through the aggregation service's admission queue.  A [None]
       answer means the transport refused (backpressure / cancellation);
       the trial is counted and skipped, never silently retried.  The
       transport speaks pair scenarios only, so it applies to the "agg"
       backend; other backends run in-process. *)
    let report =
      if not pair then begin
        let r = run_backend ?online ?obs:config.obs sc0 in
        Some { t_scenario = r.b_scenario; t_violation = r.b_violation }
      end
      else
        match config.via with
        | None ->
          let r = run_pair ?online ?obs:config.obs sc0 in
          Some { t_scenario = r.scenario; t_violation = r.violation }
        | Some transport ->
          Option.map
            (fun (r : pair_report) -> { t_scenario = r.scenario; t_violation = r.violation })
            (transport sc0)
    in
    match report with
    | None ->
      incr rejected;
      config.log (Printf.sprintf "trial %d (%s): rejected by transport" i (Adversary.name adversary))
    | Some report ->
    (match report.t_violation with
    | None -> ()
    | Some v ->
      incr violating;
      config.log
        (Printf.sprintf "trial %d (%s): %s at round %d — shrinking" i (Adversary.name adversary)
           v.Engine.invariant v.Engine.at_round);
      (match config.obs with
      | Some o ->
        Obs.event o ~kind:"chaos_violation" ~round:v.Engine.at_round
          [
            ("trial", Bench_io.Int i);
            ("adversary", Bench_io.String (Adversary.name adversary));
            ("invariant", Bench_io.String v.Engine.invariant);
            ("detail", Bench_io.String v.Engine.detail);
          ]
      | None -> ());
      if not (Hashtbl.mem seen v.Engine.invariant) then begin
        Hashtbl.replace seen v.Engine.invariant ();
        let inc =
          to_incident ?obs:config.obs ~adversary:(Adversary.name adversary) report.t_scenario v
        in
        (match config.obs with
        | Some o ->
          Ftagg_obs.Registry.incr (Obs.registry o)
            ~labels:[ ("invariant", v.Engine.invariant) ]
            "chaos_incidents_total" 1
        | None -> ());
        let path =
          match config.out_dir with
          | None -> None
          | Some dir ->
            let path =
              Filename.concat dir
                (Printf.sprintf "incident-%s-trial%04d.json" (sanitize v.Engine.invariant) i)
            in
            Incident.save ~path inc;
            Some path
        in
        incidents := (inc, path) :: !incidents
      end);
    if i mod 25 = 0 then config.log (Printf.sprintf "… %d/%d trials" i config.trials)
  done;
  {
    o_trials = config.trials;
    o_rejected_trials = !rejected;
    o_violating_trials = !violating;
    o_incidents = List.rev !incidents;
  }
