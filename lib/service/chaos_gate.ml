(* The campaign-through-the-service transport.

   [Ftagg_chaos.Campaign] normally executes each trial's watched pair
   in-process.  [via] instead turns the trial's scenario into a
   [Chaos_pair] job, pushes it through the scheduler's admission queue
   (so a full queue rejects the trial — backpressure under chaos), and
   optionally cancels every k-th trial before it runs to exercise the
   cancellation path.  Rejected and cancelled trials surface as the
   campaign's [o_rejected] count.

   Note the transport is oblivious: the scenario's schedule is
   materialized before submission, so an adaptive adversary's online
   decisions are not re-consulted inside the service.  That is the same
   contract as incident replay. *)

module Incident = Ftagg_chaos.Incident
module Campaign = Ftagg_chaos.Campaign

let spec_of_scenario (sc : Incident.scenario) =
  {
    Job.tenant = "chaos";
    family = sc.Incident.family;
    n = sc.Incident.n;
    topo_seed = sc.Incident.topo_seed;
    inputs = sc.Incident.inputs;
    c = sc.Incident.c;
    t = sc.Incident.t;
    caaf = "sum";
    protocol = Job.Chaos_pair { bit_cap = sc.Incident.bit_cap };
    failures = Job.Explicit sc.Incident.schedule;
    seed = sc.Incident.run_seed;
    generation = 0;
    deadline = None;
    priority = Job.High;
  }

let via ?(cancel_every = 0) scheduler =
  let trial = ref 0 in
  fun (sc : Incident.scenario) ->
    incr trial;
    match Scheduler.submit scheduler (spec_of_scenario sc) with
    | Error _ -> None (* backpressure: the service refused the trial *)
    | Ok (id, _) ->
      if cancel_every > 0 && !trial mod cancel_every = 0 && Scheduler.cancel scheduler id then
        None (* cancelled before dispatch: the trial never ran *)
      else begin
        (* Tick until this job surfaces; chaos jobs are High priority, so
           a handful of ticks bounds the wait even with a backlog. *)
        let rec await () =
          match Scheduler.result scheduler id with
          | Some completion -> completion
          | None ->
            ignore (Scheduler.tick scheduler ());
            await ()
        in
        let completion = await () in
        match completion.Scheduler.outcome with
        | Error _ -> None (* the job failed: the trial has no answer *)
        | Ok outcome -> (
          match (completion.Scheduler.violation, outcome.Job.violation) with
          | Some v, _ -> Some (Some v)
          | None, Some _ ->
            (* A cache hit restored from a checkpoint or the store keeps
               only the invariant's name; re-run the oracle in-process for
               the full record — still deterministic, same scenario. *)
            Some (Campaign.check sc)
          | None, None -> Some None)
      end
