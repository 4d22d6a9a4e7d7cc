(** Flow updating — approximate averaging that {e conserves mass under
    crashes} (Jesus, Baquero & Almeida; see also Flow-Updating Meets
    Mass-Distribution, OPODIS 2011).

    Where push-sum ({!Gossip}) moves mass itself between nodes — so the
    mass held by a node when it crashes is destroyed forever — flow
    updating keeps every input where it was born and instead maintains,
    per node [i] and neighbour [j], a {e flow} variable [F_i(j)]: the
    net value [i] has decided to route towards [j].  The local estimate
    is [e_i = v_i − Σ_j F_i(j)]; at the antisymmetric fixed point
    ([F_i(j) = −F_j(i)]) the estimates sum to exactly [Σ v] and each
    equals the true average.  Each round a node adopts the negated
    flows its neighbours report, averages the received estimates with
    its own, and adjusts its flows to move everyone towards that
    average.

    Crash recovery is the point: a neighbour that goes silent is
    declared dead and its flow is {e reset to 0}, which atomically
    returns the routed mass to the surviving side.  Estimates then
    re-converge to the average over the survivors — with uniform inputs
    the SUM estimate returns to the exact total, where push-sum keeps a
    permanent hole.  Bench E20 and [test/test_backend.ml] quantify the
    contrast under identical schedules.

    Message accounting mirrors {!Gossip}: each per-neighbour payload
    carries a destination id plus two fixed-point values of
    {!value_bits} bits (plus tag).

    Detection assumes the paper's crash model (silence = death); under
    {!Ftagg_sim.Engine.faults} message loss the reset can misfire —
    that leaves the model, exactly as documented for the engine. *)

type state
type msg

type mode =
  | Sum  (** estimate [n ×] the converged average — comparable to the
             zero-error SUM backends *)
  | Avg  (** report the converged average itself *)

val value_bits : int
(** Fixed-point width per transmitted flow/estimate value (32). *)

val node_estimate : state -> float
(** The node's current local estimate of the average. *)

val node_net_flow : state -> float
(** [Σ_j F_i(j)] — the net mass the node has routed away; its estimate
    is [input − net_flow]. *)

val dead_links : state -> int
(** Neighbour slots this node has declared dead (and whose flow it has
    reset). *)

val protocol :
  graph:Ftagg_graph.Graph.t ->
  params:Params.t ->
  unit ->
  (state, msg) Ftagg_sim.Engine.protocol
(** The engine automaton; both modes run it, and a {!mode} only
    changes how the root's estimate is packaged. *)

val run :
  graph:Ftagg_graph.Graph.t ->
  failures:Ftagg_sim.Failure.t ->
  params:Params.t ->
  rounds:int ->
  seed:int ->
  unit ->
  Backend.outcome
(** Run flow updating for [rounds] rounds and package the root's
    [Sum]-mode estimate as a unified {!Backend.outcome}.
    [common.correct] checks the rounded SUM estimate against the
    {!Checker} correctness interval.  Evidence: [estimate_root], [dead_links] (total reset
    flows), [flow_skew] (Σ over intact edges of |F_i(j) + F_j(i)| — 0
    at the fixed point). *)

val run_states :
  graph:Ftagg_graph.Graph.t ->
  failures:Ftagg_sim.Failure.t ->
  params:Params.t ->
  rounds:int ->
  seed:int ->
  unit ->
  state array * Ftagg_sim.Metrics.t
(** Like {!run} but returning the raw per-node states — the
    mass-conservation tests read every node's estimate, not just the
    root's. *)

val backend : Backend.t
(** [Sum]-mode backend ([Backend.name] = ["flowupdating"]).  Its round
    budget is [b × d], the same TC budget Algorithm 1 gets, and its
    watchdog checks every estimate stays finite (plus the generic bit
    cap when planted). *)

val avg_backend : Backend.t
(** [Avg]-mode sibling ([Backend.name] = ["flowupdating-avg"]). *)
