(** Chaos campaigns: randomized runs under adversaries and watchdogs,
    with automatic shrinking of anything that violates a guarantee.

    The oracle at the centre, {!check}, executes a {!Incident.scenario}
    deterministically (pair runs through {!Ftagg_sim.Engine.run_chaos}
    with a {!Ftagg_proto.Watchdog.pair_watch}; tradeoff runs through
    {!Ftagg_proto.Run.tradeoff} with Theorem 1 post-checks) and reports
    the first violation.  Everything else — the randomized campaign, the
    shrinker, CLI replay, the fuzzer — funnels through it, so a scenario
    file means the same thing everywhere. *)

val graph_of : Incident.scenario -> Ftagg_graph.Graph.t
val params_of : Incident.scenario -> Ftagg_graph.Graph.t -> Ftagg_proto.Params.t

val max_round_of : Incident.scenario -> int
(** The scenario's run duration — the shrinker's crash-delay bound. *)

type pair_report = {
  scenario : Incident.scenario;
      (** input scenario with the {e materialized} schedule: the oblivious
          part plus every crash the online adversary decided *)
  violation : Ftagg_sim.Engine.violation option;
  verdict : Ftagg_proto.Pair.verdict option;
      (** [None] when the watchdog halted the run before the pair finished *)
  correct : bool;
  lfc : bool;
  edge_failures : int;
  cc : int;
  rounds : int;
}

val run_pair :
  ?online:Ftagg_sim.Engine.online -> ?obs:Ftagg_obs.Obs.t -> Incident.scenario -> pair_report
(** One watched AGG+VERI pair.  [online] extends the scenario's schedule
    on the fly; replaying the returned materialized scenario without
    [online] reproduces the run exactly.  [obs] is forwarded to
    {!Ftagg_sim.Engine.run_chaos}, so the sink sees the run's broadcasts,
    phase spans and any watchdog violation. *)

type backend_report = {
  b_scenario : Incident.scenario;  (** with the materialized schedule *)
  b_violation : Ftagg_sim.Engine.violation option;
  b_outcome : Ftagg_proto.Backend.outcome;
      (** the backend's packaged outcome (packaged from truncated states
          when [b_violation] halted the run — the violation is
          authoritative then) *)
}

val run_backend :
  ?online:Ftagg_sim.Engine.online -> ?obs:Ftagg_obs.Obs.t -> Incident.scenario -> backend_report
(** One watched run of a registered backend.  The scenario's [kind] must
    be {!Incident.Backend_run} (raises [Invalid_argument] otherwise);
    the backend is resolved via {!Ftagg_proto.Run.backend_of_string} and
    driven through {!Ftagg_proto.Backend.exec_chaos} under its own watchdog
    (which honours the scenario's planted [bit_cap]). *)

val check : Incident.scenario -> Ftagg_sim.Engine.violation option
(** The oracle: run the scenario, report its first violation. *)

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
  via : (Incident.scenario -> pair_report option) option;
      (** trial transport: when set, each trial's (materialized, hence
          oblivious) scenario is executed by this hook instead of
          {!run_pair} — e.g. [Ftagg_service.Chaos_gate.via] pushes it
          through the aggregation service's admission queue.  [None] from
          the hook means the transport refused the trial (backpressure or
          cancellation); it is counted in [o_rejected_trials] and skipped.
          The transport speaks pair scenarios, so it only applies when
          [backend] names the ["agg"] backend. *)
  backend : string;
      (** which {!Ftagg_proto.Run.backends} entry the trials run
          (default ["agg"], the watched AGG+VERI pair).  Every random
          draw — topology, parameters, adversary, schedule — is
          backend-independent, so campaigns with equal seeds subject
          every backend to the {e same} adversary schedules.  The name is
          resolved as {!Ftagg_proto.Run.backend_of_string} does,
          case-insensitively; unknown names raise [Invalid_argument]
          before the first trial. *)
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
