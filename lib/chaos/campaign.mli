(** Chaos campaigns: randomized runs under adversaries and watchdogs,
    with automatic shrinking of anything that violates a guarantee.

    One runner sits at the centre: {!exec} runs the {!Ftagg_proto.Run}
    row a {!Incident.scenario} names through
    {!Ftagg_proto.Backend.exec_chaos}, under that row's own watch (Table 2
    for the pair, Theorem 1 for Algorithm 1, a planted bit cap for every
    row).  The oracle {!check}, the randomized campaign, the shrinker,
    CLI replay and the fuzzer all go through it, so a scenario file means
    the same thing everywhere. *)

val graph_of : Incident.scenario -> Ftagg_graph.Graph.t
val params_of : Incident.scenario -> Ftagg_graph.Graph.t -> Ftagg_proto.Params.t

val max_round_of : Incident.scenario -> int
(** The scenario's run duration, its row's [max_rounds] — the shrinker's
    crash-delay bound. *)

type report = {
  scenario : Incident.scenario;
      (** input scenario with the {e materialized} schedule: the oblivious
          part plus every crash the online adversary decided *)
  violation : Ftagg_sim.Engine.violation option;
  outcome : Ftagg_proto.Backend.outcome;
      (** the row's packaged outcome (from truncated states when
          [violation] halted the run — the violation is authoritative
          then) *)
}

val exec : ?online:Ftagg_sim.Engine.online -> ?obs:Ftagg_obs.Obs.t -> Incident.scenario -> report
(** One watched run of the row the scenario's kind names: a
    {!Incident.Pair_run} is the ["agg"] row (the AGG+VERI pair) with
    [b = f = 0]; a {!Incident.Backend_run} is the row whose
    {!Ftagg_proto.Backend.name} is its [backend], in either of
    {!Ftagg_proto.Run}'s views, case-insensitively (["tradeoff"] is
    Algorithm 1).  Raises [Invalid_argument] on an unknown name or on an
    input the library rejects.  [online] extends the scenario's schedule
    on the fly; replaying the returned materialized scenario without
    [online] reproduces the run exactly.  [obs] is forwarded to
    {!Ftagg_sim.Engine.run_chaos}, so the sink sees the run's broadcasts,
    phase spans and any watchdog violation. *)

type pair_report = {
  scenario : Incident.scenario;  (** as in {!report} *)
  violation : Ftagg_sim.Engine.violation option;
  verdict : Ftagg_proto.Pair.verdict option;
      (** [None] when the watchdog halted the run before the pair finished *)
  correct : bool;
  lfc : bool;
  edge_failures : int;
  cc : int;
  rounds : int;
}

val run_pair : ?online:Ftagg_sim.Engine.online -> Incident.scenario -> pair_report
(** {!exec} of a pair scenario, read back into the pair's typed fields.
    Raises [Invalid_argument] if the scenario names another row. *)

val check : Incident.scenario -> Ftagg_sim.Engine.violation option
(** The oracle: {!exec}'s first violation. *)

val shrink :
  ?obs:Ftagg_obs.Obs.t ->
  Incident.scenario ->
  Ftagg_sim.Engine.violation ->
  Incident.scenario * Ftagg_sim.Engine.violation * Incident.shrink_stats
(** Minimize a violating scenario via {!Shrink.minimize}, preserving the
    violated invariant, and refresh the violation on the result.  [obs]
    receives one [shrink_step] event per accepted candidate. *)

val to_incident :
  ?obs:Ftagg_obs.Obs.t ->
  adversary:string ->
  Incident.scenario ->
  Ftagg_sim.Engine.violation ->
  Incident.t
(** [shrink] packaged as a saved-ready incident. *)

val replay : Incident.t -> Ftagg_sim.Engine.violation option
(** Re-run a loaded incident's scenario through {!check} — [Some _] means
    the violation still reproduces. *)

type config = {
  trials : int;
  seed : int;
  out_dir : string option;  (** where to write incident JSON, if anywhere *)
  bit_cap : int option;
      (** watchdog bit-cap override applied to every trial — lower it
          below {!Ftagg_proto.Watchdog.pair_bit_cap} to plant a violation and watch
          the pipeline catch, shrink, and report it *)
  max_n : int;  (** largest system size drawn (smallest is 10) *)
  log : string -> unit;  (** progress sink (e.g. [print_endline]) *)
  obs : Ftagg_obs.Obs.t option;
      (** telemetry sink threaded through every trial run and shrink
          search: per-run broadcast/span feeds, [chaos_violation] /
          [shrink_step] events, [chaos_trials_total] /
          [chaos_incidents_total] / [chaos_shrink_steps_total] counters *)
  via : (Incident.scenario -> Ftagg_sim.Engine.violation option option) option;
      (** trial transport: when set, each trial's scenario is executed by
          this hook, without the online adversary, instead of {!exec} —
          e.g. [Ftagg_service.Chaos_gate.via] pushes it through the
          aggregation service's admission queue — and answers the run's
          violation, if any.  [None] from the hook means the transport
          refused the trial (backpressure or cancellation); it is counted
          in [o_rejected_trials] and skipped.  The transport speaks pair
          scenarios, so it only applies when [backend] names the ["agg"]
          row. *)
  backend : string;
      (** which {!Ftagg_proto.Run.backends} entry the trials run
          (default ["agg"], the watched AGG+VERI pair).  Every random
          draw — topology, parameters, adversary, schedule — is
          backend-independent, so campaigns with equal seeds subject
          every backend to the {e same} adversary schedules.  The name is
          resolved as {!exec} resolves a [Backend_run]; unknown names
          raise [Invalid_argument] before the first trial. *)
}

val default_config : config
(** 100 trials, seed 20260806, no output dir, no cap override, max_n 34,
    silent, no telemetry sink, no transport (trials run in-process),
    backend ["agg"]. *)

type outcome = {
  o_trials : int;
  o_rejected_trials : int;  (** trials the [via] transport refused *)
  o_violating_trials : int;  (** trials whose run reported any violation *)
  o_incidents : (Incident.t * string option) list;
      (** one shrunken incident per {e distinct} invariant, with its file
          path when [out_dir] was set *)
}

val run : config -> outcome
(** The campaign: each trial draws a topology family, size, parameters
    and an adversary (oblivious and adaptive mixed, random edge-failure
    budget), runs a watched pair, and shrinks the first scenario seen per
    violated invariant into an incident. *)
