(** Delta-debugging shrinker for violating scenarios.

    Given a scenario whose oracle run reproduces a watchdog violation,
    [minimize] searches for a smaller scenario that still violates the
    {e same} invariant, in four passes:

    + {b drop crashes} — classic ddmin over the crash list (chunked
      deletion with halving granularity);
    + {b shrink N} — retry at [n/2], [2n/3], [3n/4], [n-1] nodes, with
      truncated inputs and out-of-range crashes dropped;
    + {b drop crashes} again on the smaller system;
    + {b delay crashes} — push each surviving crash as late as possible,
      so every remaining early round is load-bearing.

    The result is 1-minimal-ish, not globally minimal: each pass is
    greedy and the whole search is capped at 300 oracle runs.
    Scenarios that raise (a family rejecting a tiny [n]) count as
    non-reproducing. *)

val minimize :
  ?on_progress:(tries:int -> Incident.scenario -> unit) ->
  oracle:(Incident.scenario -> Ftagg_sim.Engine.violation option) ->
  matches:(Ftagg_sim.Engine.violation -> bool) ->
  max_round:int ->
  Incident.scenario ->
  Incident.scenario * Incident.shrink_stats
(** [minimize ~oracle ~matches ~max_round sc] returns the shrunken
    scenario and the search statistics.  [matches] decides whether an
    oracle violation is "the same" (typically: same invariant name);
    [max_round] bounds how late a crash may be delayed (pass the run
    duration).  If [sc] does not reproduce under the oracle, it is
    returned unchanged.

    [on_progress] fires on every {e accepted} candidate — a smaller
    scenario that still reproduces — with the oracle-run count so far;
    the hook behind the campaign's shrink-progress telemetry. *)
