module Gen = Ftagg_graph.Gen
module Prng = Ftagg_util.Prng
module Engine = Ftagg_sim.Engine
module Failure = Ftagg_sim.Failure
module Metrics = Ftagg_sim.Metrics
module Params = Ftagg_proto.Params
module Pair = Ftagg_proto.Pair
module Run = Ftagg_proto.Run
module Backend = Ftagg_proto.Backend
module Obs = Ftagg_obs.Obs
module Bench_io = Ftagg_runner.Bench_io

let graph_of (sc : Incident.scenario) = Gen.build sc.Incident.family ~n:sc.Incident.n ~seed:sc.Incident.topo_seed

let params_of (sc : Incident.scenario) graph =
  Params.make ~c:sc.Incident.c ~t:sc.Incident.t ~graph ~inputs:sc.Incident.inputs ()

(* A row by its own name, across both of Run's views: every
   [Run.backends] key is its row's name, and "tradeoff" names
   Algorithm 1. *)
let backend_exn name =
  let key = String.lowercase_ascii name in
  match List.find_opt (fun (_, row) -> Backend.name row = key) (Run.backends @ Run.protocols) with
  | Some (_, row) -> row
  | None -> invalid_arg (Printf.sprintf "Campaign: unknown backend %S" name)

(* The one reading of a scenario's kind: the row it runs, with b and f. *)
let row_of (sc : Incident.scenario) =
  match sc.Incident.kind with
  | Incident.Pair_run -> (backend_exn "agg", 0, 0)
  | Incident.Backend_run { backend; b; f } -> (backend_exn backend, b, f)

let max_round_of (sc : Incident.scenario) =
  let (module B : Backend.S), b, f = row_of sc in
  B.max_rounds ~params:(params_of sc (graph_of sc)) ~b ~f

type report = {
  scenario : Incident.scenario;  (** with the materialized schedule *)
  violation : Engine.violation option;
  outcome : Backend.outcome;
}

let exec ?online ?obs (sc : Incident.scenario) =
  let backend, b, f = row_of sc in
  let graph = graph_of sc in
  let params = params_of sc graph in
  let failures = Failure.of_list ~n:sc.Incident.n sc.Incident.schedule in
  let ch =
    Backend.exec_chaos ?obs ~faults:sc.Incident.faults ?online ?bit_cap:sc.Incident.bit_cap
      ~backend ~graph ~failures ~params ~b ~f ~seed:sc.Incident.run_seed ()
  in
  {
    scenario = { sc with Incident.schedule = Failure.to_list ch.Backend.c_schedule };
    violation = ch.Backend.c_violation;
    outcome = ch.Backend.c_outcome;
  }

(* Defined after [report], so a bare [.scenario] or [.violation] read
   resolves to this record. *)
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

(* The pair row's outcome, read back into the typed report: its evidence
   carries the verdict's [veri_ok] (absent when the watchdog halted the
   run) and the ground truth's [lfc] and [edge_failures] (always). *)
let run_pair ?online sc =
  let (r : report) = exec ?online sc in
  let o = r.outcome in
  let evidence k = List.assoc_opt k o.Backend.evidence in
  let truth k =
    match evidence k with
    | Some v -> v
    | None -> invalid_arg "Campaign.run_pair: the scenario does not run the pair"
  in
  let c = o.Backend.common in
  {
    scenario = r.scenario;
    violation = r.violation;
    verdict =
      (match (o.Backend.result, evidence "veri_ok") with
      | Backend.Exact result, Some ok -> Some { Pair.result; veri_ok = bool_of_string ok }
      | _ -> None);
    correct = c.Backend.correct;
    lfc = bool_of_string (truth "lfc");
    edge_failures = int_of_string (truth "edge_failures");
    cc = Metrics.cc c.Backend.metrics;
    rounds = c.Backend.rounds;
  }

let check sc = (exec sc).violation

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
  via : (Incident.scenario -> Engine.violation option option) option;
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
    let ran =
      match config.via with
      | Some transport when pair ->
        (* The transport runs [sc0] without the online adversary, so
           [sc0] is the scenario it ran. *)
        Option.map (fun v -> (sc0, v)) (transport sc0)
      | _ ->
        let (r : report) = exec ?online ?obs:config.obs sc0 in
        Some (r.scenario, r.violation)
    in
    match ran with
    | None ->
      incr rejected;
      config.log (Printf.sprintf "trial %d (%s): rejected by transport" i (Adversary.name adversary))
    | Some (scenario, violation) ->
    (match violation with
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
          to_incident ?obs:config.obs ~adversary:(Adversary.name adversary) scenario v
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
