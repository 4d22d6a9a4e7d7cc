(** Per-round invariant watchdogs for the engine's chaos hook.

    A watchdog turns the paper's guarantees into checks that run {e while
    the protocol executes}, via {!Ftagg_sim.Engine.run_chaos}'s [watch]
    hook, so a violation is pinned to the first round where it is
    observable instead of a post-hoc checker verdict:

    - {b bit budgets} — every round, every node's cumulative bit count
      stays under the combined Theorem 3/6 caps
      [(11t+14)(log N+5) + (5t+7)(3 log N+10)] (plus one trailing special
      symbol each);
    - {b activation discipline} — every round: levels lie in [0, cd]
      and below the round number, parents are physical neighbours,
      activated, and exactly one level up;
    - {b representative-set structure} — partial-sum arithmetic at the
      end of the AGG half, and disjointness / survivor coverage behind an
      accepting verdict at the final round (disjointness is only
      guaranteed when VERI accepts — scenario 3 exists precisely because
      AGG alone may double-count);
    - {b Table 2} — at the final round, the verdict obligations of the
      scenario the materialized schedule landed in.

    The two per-node checks read only the round's broadcasters
    ([Engine.view.v_broadcasters]), the only nodes whose bits or
    activation can have changed, and so report the same first violation
    as a scan of every node.  {!pair_watch} is the pair row's watch
    ({!Run.backends}' ["agg"]), so every chaos run of that row checks
    these invariants.  {!tradeoff_watch} is Algorithm 1's row's watch:
    Theorem 1, checked the same way. *)

val pair_bit_cap : Params.t -> int
(** The default cap: AGG's abort budget plus VERI's overflow budget plus
    one [Agg_abort] and one [Veri_overflow] symbol (a node may cross a
    threshold by its final special-symbol flood). *)

val pair_watch :
  ?bit_cap:int ->
  params:Params.t ->
  graph:Ftagg_graph.Graph.t ->
  unit ->
  Pair.node Ftagg_sim.Engine.watch
(** Watchdog for one AGG+VERI pair started at round 1 and run for
    [Pair.duration params] rounds.  [bit_cap] overrides the default cap —
    the planted-violation knob: pass something lower than
    {!pair_bit_cap} and the watchdog must fire at the exact round the
    bottleneck node crosses it (exercised by the chaos tests).  The
    returned closure is stateful (the AGG-end check runs once): build a
    fresh one per run. *)

val tradeoff_watch :
  ?bit_cap:int ->
  params:Params.t ->
  graph:Ftagg_graph.Graph.t ->
  b:int ->
  unit ->
  Tradeoff.node Ftagg_sim.Engine.watch
(** Theorem 1 for one Algorithm 1 run with budget [b], checked in order:
    a planted [bit_cap] ({!Backend.bits_watch}; no cap by default);
    ["theorem1_correct"] in the round the root outputs a value that
    {!Checker.result_correct} rejects for the crash schedule so far; and
    ["theorem1_time"] when the root has no output by round
    [Tradeoff.max_rounds params ~b] ([b·d]).  Stateless. *)
