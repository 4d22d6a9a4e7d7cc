(** Broadcast push-sum gossip — the approximate-aggregation baseline the
    paper's related work contrasts against (Kempe, Dobra & Gehrke [8]).

    Each node holds a mass pair [(s, w)], initialised to [(input, 0)]
    ([w = 1] at the root).  Every round a node splits its mass evenly
    over itself and its neighbours and broadcasts the share; receivers
    accumulate.  Mass conservation gives [Σs = ΣInputs] and [Σw = 1]
    forever on a failure-free run, and every local ratio [s/w] converges
    to the true SUM.  The root reads off [s/w] after the round budget.

    Under crashes the mass held by (or in flight to) a dead node is
    destroyed, so the estimate degrades gracefully instead of staying in
    the correctness interval — exactly the zero-error-vs-approximate gap
    the paper's problem statement draws (§1), and the gap
    {!Flow_updating} closes by routing flows instead of moving mass.
    The benchmark harness quantifies both (experiments E12, E20).

    Message accounting: a share carries two fixed-point values quantised
    to {!value_bits} bits each (plus tag and sender id), mirroring how a
    real implementation would ship them. *)

val value_bits : int
(** Fixed-point width per transmitted mass value (32). *)

val run :
  graph:Ftagg_graph.Graph.t ->
  failures:Ftagg_sim.Failure.t ->
  params:Params.t ->
  rounds:int ->
  seed:int ->
  unit ->
  Backend.outcome
(** Run broadcast push-sum for [rounds] rounds on [params.inputs] and
    package the root's [s/w] as a unified {!Backend.outcome} with
    [Estimate].  [common.correct] checks the rounded estimate against
    the {!Checker} correctness interval (an untouched-root run that has
    not mixed yet is simply incorrect, not an error).  Evidence:
    [estimate_root], [w_root]. *)

val backend : Backend.t
(** Push-sum as a backend ([Backend.name] = ["pushsum"]): round budget
    [b × d] (the TC budget Algorithm 1 gets), bit-cap watchdog via
    {!Backend.bits_watch} when planted. *)
