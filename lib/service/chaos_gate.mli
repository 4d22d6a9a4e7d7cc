(** Run chaos-campaign trials {e through} the service.

    {!via} adapts a {!Scheduler.t} into the
    [Ftagg_chaos.Campaign.config.via] hook: each trial's scenario is
    submitted as a [Chaos_pair] job (tenant ["chaos"], high priority),
    driven to completion by ticking the scheduler, and its watchdog
    violation ([None] for a clean run) returned to the campaign.
    Admission rejections (full queue), deliberate cancellations and a
    job that failed return [None], which the campaign counts as rejected
    trials — so a campaign exercises the service's backpressure and
    cancellation paths under adversarial crashes, not just the happy
    path. *)

val spec_of_scenario : Ftagg_chaos.Incident.scenario -> Job.spec
(** The job a trial becomes.  The scenario's schedule is already
    materialized, so the job replays it obliviously (adaptive adversaries
    are replayed as their recorded decisions — the incident-replay
    contract). *)

val via :
  ?cancel_every:int ->
  Scheduler.t ->
  Ftagg_chaos.Incident.scenario ->
  Ftagg_sim.Engine.violation option option
(** [via ~cancel_every sched] is the campaign hook.  When
    [cancel_every = k > 0], every k-th submitted trial is cancelled
    before dispatch (returns [None]).  Default [0] — never cancel. *)
