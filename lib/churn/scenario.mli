(** The churn scenario runner: schedules × backends → percentile curves.

    For every (churn schedule, protocol backend) pair the runner evolves
    one {!Membership} across [generations] topology generations, runs the
    backend [runs_per_generation] times per generation under the
    schedule's crash plan (retired nodes merged in as round-1 crashes),
    and reports the workload-matrix metrics of the flow-updating /
    gossip evaluation tradition:

    - {b completion}: a run completes when it ends without a watchdog
      violation and produces a usable answer — an exact value inside the
      checker's correctness interval, or a finite estimate.  Aborts,
      violations and non-finite estimates are incomplete.
    - {b latency-to-90/95/99/100%}: percentiles, over completed runs, of
      rounds until the run halted — extracted from a
      {!Ftagg_obs.Registry} log2 histogram via {!Registry.percentile}
      (so the numbers are bucket-interpolated, monotone in [p], and
      [p100] is exact).
    - {b p95 per-node bandwidth}: 95th percentile over every live
      node-run of the node's total broadcast bits.
    - {b worst relative error}: max over completed runs of the answer's
      relative error against the generation's ground truth (0 for exact
      backends by construction).

    Everything is deterministic from [spec.seed]: equal seeds produce
    identical join/crash schedules and identical percentile tables
    across runs and across backends (crash draws never depend on the
    backend).  Histograms land in the supplied (or a fresh) registry
    under [scenario_latency_rounds] / [scenario_node_bits] with
    [(schedule, backend)] labels, alongside [scenario_*_total] counters,
    so the existing exporters render the curves too. *)

module Schedule = Ftagg_chaos.Schedule

type spec = {
  family : Ftagg_graph.Gen.family;
  n : int;  (** base topology size (generation 0) *)
  c : int;
  backends : string list;  (** {!Ftagg_proto.Run.backends} names *)
  schedules : Schedule.t list;
  generations : int;
  runs_per_generation : int;
  budget : int;  (** per-run edge-failure budget handed to the schedule *)
  b : int;  (** TC budget in flooding rounds, as [Backend.exec] *)
  f : int;
  seed : int;
}

val default : spec
(** 6×6 grid, agg + flowupdating, all four schedules, 5 generations of
    3 runs, budget 4, [b = 40], [f = 4], seed 1. *)

type percentiles = { p90 : float; p95 : float; p99 : float; p100 : float }

type report = {
  r_schedule : string;
  r_backend : string;
  r_runs : int;
  r_completed : int;
  r_latency : percentiles;
      (** rounds-to-halt percentiles over completed runs; all [nan] when
          nothing completed *)
  r_p95_node_bits : float;  (** [nan] when no live node ever ran *)
  r_max_rel_err : float;  (** [nan] when nothing completed *)
  r_joins : int;
  r_leaves : int;
  r_crashes : int;  (** materialized in-run crashes, retirements excluded *)
  r_violations : int;
  r_final_n : int;  (** id space after the last generation *)
}

val run :
  ?registry:Ftagg_obs.Registry.t ->
  ?on_violation:(Ftagg_chaos.Incident.t -> unit) ->
  spec ->
  report list
(** Execute the matrix, one report per (schedule, backend) in spec
    order.  Telemetry is force-enabled for the duration (the histograms
    are the metric source, not a side channel) and the previous
    kill-switch state restored after.  [on_violation] receives every
    watchdog violation packaged as a replayable {!Ftagg_chaos.Incident.t}
    (via {!Schedule.scenario_of_run}) — feed it to [Incident.save] or
    {!Ftagg_chaos.Shrink.minimize}.  Raises [Invalid_argument] on an
    unknown backend name or a non-positive matrix dimension. *)

val table : report list -> Ftagg_util.Table.t
(** The percentile table the CLI and bench print. *)

val report_to_json : report -> Ftagg_runner.Bench_io.json
(** One BENCH_engine.json / [--json] row; [nan] fields become [Null]. *)
