(* The churn scenario runner.  One membership evolution per (schedule,
   backend) pair — the evolution is a pure function of (schedule, seed),
   so every backend sees the same generations — and per generation a
   batch of chaos runs whose crash draws mix only (schedule, seed,
   generation, run index), never the backend: equal seeds face every
   backend with the same adversary, as bench E20 established for the
   static matrix. *)

module Prng = Ftagg_util.Prng
module Fnv = Ftagg_util.Fnv
module Table = Ftagg_util.Table
module Graph = Ftagg_graph.Graph
module Gen = Ftagg_graph.Gen
module Failure = Ftagg_sim.Failure
module Metrics = Ftagg_sim.Metrics
module Params = Ftagg_proto.Params
module Backend = Ftagg_proto.Backend
module Run = Ftagg_proto.Run
module Agg = Ftagg_proto.Agg
module Registry = Ftagg_obs.Registry
module Incident = Ftagg_chaos.Incident
module Schedule = Ftagg_chaos.Schedule
module Bench_io = Ftagg_runner.Bench_io

type spec = {
  family : Gen.family;
  n : int;
  c : int;
  backends : string list;
  schedules : Schedule.t list;
  generations : int;
  runs_per_generation : int;
  budget : int;
  b : int;
  f : int;
  seed : int;
}

let default =
  {
    family = Gen.Grid;
    n = 36;
    c = 2;
    backends = [ "agg"; "flowupdating" ];
    schedules = Schedule.all;
    generations = 5;
    runs_per_generation = 3;
    budget = 4;
    b = 40;
    f = 4;
    seed = 1;
  }

type percentiles = { p90 : float; p95 : float; p99 : float; p100 : float }

type report = {
  r_schedule : string;
  r_backend : string;
  r_runs : int;
  r_completed : int;
  r_latency : percentiles;
  r_p95_node_bits : float;
  r_max_rel_err : float;
  r_joins : int;
  r_leaves : int;
  r_crashes : int;
  r_violations : int;
  r_final_n : int;
}

(* Per-run seed: FNV over (spec seed, schedule, generation, run index) —
   backend-independent by construction. *)
let run_seed ~seed ~schedule ~generation ~run =
  Int64.to_int
    (Fnv.hash
       (String.concat ""
          [ string_of_int seed; schedule; string_of_int generation; string_of_int run ]))
  land max_int

let inputs_for n = Array.init n (fun i -> 4 + (i mod 7))

let backend_module name =
  match Run.backend_of_string name with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Scenario.run: unknown backend %S" name)

(* The crash window shared by every backend of the matrix: the smallest
   round budget any of them runs for on this topology, so every drawn
   crash round is reachable by every backend. *)
let shared_window ~backends ~params ~b ~f =
  List.fold_left
    (fun acc bk ->
      let module B = (val (bk : Backend.t)) in
      min acc (B.max_rounds ~params ~b ~f))
    max_int backends

let completed (chaos : Backend.chaos) =
  match chaos.Backend.c_violation with
  | Some _ -> false
  | None -> (
    match chaos.Backend.c_outcome.Backend.result with
    | Backend.Exact (Agg.Value _) -> chaos.Backend.c_outcome.Backend.common.Backend.correct
    | Backend.Exact Agg.Aborted -> false
    | Backend.Estimate { value; _ } -> Float.is_finite value)

let run ?registry ?on_violation spec =
  if spec.generations <= 0 || spec.runs_per_generation <= 0 then
    invalid_arg "Scenario.run: non-positive matrix dimension";
  if spec.backends = [] || spec.schedules = [] then
    invalid_arg "Scenario.run: empty backend or schedule list";
  let backend_mods = List.map backend_module spec.backends in
  let registry = match registry with Some r -> r | None -> Registry.create () in
  let prev_enabled = Registry.enabled () in
  Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Registry.set_enabled prev_enabled) @@ fun () ->
  List.concat_map
    (fun sched ->
      let sname = Schedule.name sched in
      List.map2
        (fun bname backend ->
          let labels = [ ("schedule", sname); ("backend", bname) ] in
          let observe name v = Registry.observe registry ~labels name v in
          let count name k = Registry.incr registry ~labels name k in
          let membership = ref (Membership.create ~family:spec.family ~n:spec.n ~seed:spec.seed) in
          let runs = ref 0 and done_ = ref 0 and violations = ref 0 and crashes = ref 0 in
          let max_rel = ref nan in
          for g = 0 to spec.generations - 1 do
            let joins, leaves = Schedule.churn sched ~generation:g ~seed:spec.seed in
            if g > 0 then membership := Membership.advance !membership ~joins ~leaves;
            let graph = Membership.graph !membership in
            let total_n = Membership.total_n !membership in
            let inputs = inputs_for total_n in
            let truth = float_of_int (Array.fold_left ( + ) 0 inputs) in
            let params = Params.make ~c:spec.c ~graph ~inputs () in
            let window = shared_window ~backends:backend_mods ~params ~b:spec.b ~f:spec.f in
            let gone = Membership.retired !membership in
            let retire = Membership.retirement !membership in
            for r = 0 to spec.runs_per_generation - 1 do
              let seed = run_seed ~seed:spec.seed ~schedule:sname ~generation:g ~run:r in
              let planned, online =
                Schedule.failures sched ~graph ~generation:g ~seed ~budget:spec.budget ~window
              in
              let failures = Membership.merge_failures retire planned in
              let chaos =
                Backend.exec_chaos ?online ~backend ~graph ~failures ~params ~b:spec.b ~f:spec.f
                  ~seed ()
              in
              incr runs;
              count "scenario_runs_total" 1;
              crashes :=
                !crashes
                + List.length
                    (List.filter
                       (fun (u, _) -> not (List.mem u gone))
                       (Failure.to_list chaos.Backend.c_schedule));
              let metrics = chaos.Backend.c_outcome.Backend.common.Backend.metrics in
              List.iter
                (fun u -> observe "scenario_node_bits" (float_of_int (Metrics.bits_sent metrics u)))
                (Membership.live !membership);
              (match chaos.Backend.c_violation with
              | None -> ()
              | Some v ->
                incr violations;
                count "scenario_violations_total" 1;
                match on_violation with
                | None -> ()
                | Some report ->
                  let scenario =
                    Schedule.scenario_of_run ~family:spec.family ~n:total_n ~topo_seed:spec.seed
                      ~run_seed:seed ~c:spec.c ~t_param:0 ~inputs ~backend:bname ~b:spec.b
                      ~f:spec.f ~schedule:chaos.Backend.c_schedule
                  in
                  report
                    {
                      Incident.adversary = "schedule:" ^ sname;
                      scenario;
                      violation = v;
                      shrink = None;
                    });
              if completed chaos then begin
                incr done_;
                count "scenario_completed_total" 1;
                observe "scenario_latency_rounds"
                  (float_of_int chaos.Backend.c_outcome.Backend.common.Backend.rounds);
                let rel = Backend.relative_error chaos.Backend.c_outcome ~truth in
                if Float.is_nan !max_rel || rel > !max_rel then max_rel := rel
              end
            done
          done;
          let latency =
            match Registry.histogram registry ~labels "scenario_latency_rounds" with
            | Some h ->
              {
                p90 = Registry.percentile h 90.0;
                p95 = Registry.percentile h 95.0;
                p99 = Registry.percentile h 99.0;
                p100 = Registry.percentile h 100.0;
              }
            | None -> { p90 = nan; p95 = nan; p99 = nan; p100 = nan }
          in
          let p95_bits =
            match Registry.histogram registry ~labels "scenario_node_bits" with
            | Some h -> Registry.percentile h 95.0
            | None -> nan
          in
          {
            r_schedule = sname;
            r_backend = bname;
            r_runs = !runs;
            r_completed = !done_;
            r_latency = latency;
            r_p95_node_bits = p95_bits;
            r_max_rel_err = !max_rel;
            r_joins = Membership.joins !membership;
            r_leaves = List.length (Membership.retired !membership);
            r_crashes = !crashes;
            r_violations = !violations;
            r_final_n = Membership.total_n !membership;
          })
        spec.backends backend_mods)
    spec.schedules

let fmt v = if Float.is_nan v then "-" else Table.fmt_float v

let table reports =
  let t =
    Table.create
      ~title:"Scenario matrix — latency-to-p% completion (rounds) and p95 per-node bandwidth"
      [
        ("schedule", Table.Left);
        ("backend", Table.Left);
        ("done", Table.Right);
        ("lat p90", Table.Right);
        ("lat p95", Table.Right);
        ("lat p99", Table.Right);
        ("lat p100", Table.Right);
        ("p95 bits", Table.Right);
        ("max rel err", Table.Right);
        ("viol", Table.Right);
        ("final n", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.r_schedule;
          r.r_backend;
          Printf.sprintf "%d/%d" r.r_completed r.r_runs;
          fmt r.r_latency.p90;
          fmt r.r_latency.p95;
          fmt r.r_latency.p99;
          fmt r.r_latency.p100;
          fmt r.r_p95_node_bits;
          (if Float.is_nan r.r_max_rel_err then "-" else Printf.sprintf "%.6f" r.r_max_rel_err);
          string_of_int r.r_violations;
          string_of_int r.r_final_n;
        ])
    reports;
  t

let q2 x = Float.round (x *. 1e2) /. 1e2
let q6 x = Float.round (x *. 1e6) /. 1e6
let num q v = if Float.is_nan v then Bench_io.Null else Bench_io.Float (q v)

let report_to_json r =
  Bench_io.(
    Obj
      [
        ("schedule", String r.r_schedule);
        ("backend", String r.r_backend);
        ("runs", Int r.r_runs);
        ("completed", Int r.r_completed);
        ("latency_p90", num q2 r.r_latency.p90);
        ("latency_p95", num q2 r.r_latency.p95);
        ("latency_p99", num q2 r.r_latency.p99);
        ("latency_p100", num q2 r.r_latency.p100);
        ("p95_node_bits", num q2 r.r_p95_node_bits);
        ("max_rel_err", num q6 r.r_max_rel_err);
        ("joins", Int r.r_joins);
        ("leaves", Int r.r_leaves);
        ("crashes", Int r.r_crashes);
        ("violations", Int r.r_violations);
        ("final_n", Int r.r_final_n);
      ])
