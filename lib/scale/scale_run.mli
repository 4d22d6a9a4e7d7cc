(** AGG on a [Bigraph] through the partitioned executor — the high-level
    entry point the CLI ([ftagg run --scale]), the bench (e23) and the
    tests share.

    {!params} derives the diameter from {!Bigraph.pseudo_diameter}
    ([Params.make]'s exact diameter sweeps most nodes of an expander as
    BFS sources, infeasible at 10^6 nodes).  For differential pins, pass the {e same} graph and
    [Params.t] to {!reference} and to {!agg} — the executor then
    {!agrees} with the spec. *)

type outcome = {
  result : Ftagg_proto.Agg.result;
  metrics : Ftagg_sim.Metrics.t;  (** indexed by the caller's node ids *)
  rounds : int;
  states : Ftagg_proto.Agg.node array;
      (** per-node final protocol states, indexed by the caller's node
          ids, for differential comparison *)
  caller_id : int -> int;
      (** The caller's id of the node the run numbered [v].  The ids
          {e inside} a state (its own, its parent's, its children's, its
          ancestors', its selected sources) are the run's: map them
          through [caller_id].  The identity for {!reference}; for
          {!agg}, [Layout.caller_id]. *)
}

val params :
  ?t:int -> graph:Bigraph.t -> inputs:int array -> unit -> Ftagg_proto.Params.t
(** [c = 2], and [t] defaults to 1.  [d] is the pseudo-diameter;
    [max_input] is the max input (at least 1); [caaf] is SUM.  Raises on
    an input-length mismatch or a negative input. *)

val protocol :
  Ftagg_proto.Params.t ->
  (Ftagg_proto.Agg.node, Ftagg_proto.Message.body) Ftagg_sim.Engine.protocol
(** [Agg.protocol]: the AGG automaton [Run.agg] runs too, with its
    [wake] schedule. *)

val agg :
  ?domains:int ->
  ?meter:Mem.t ->
  ?registry:Ftagg_obs.Registry.t ->
  graph:Bigraph.t ->
  failures:Ftagg_sim.Failure.t ->
  params:Ftagg_proto.Params.t ->
  seed:int ->
  unit ->
  outcome
(** One AGG execution of [Agg.duration params] rounds on the executor,
    on [Layout.make graph ~domains] (built on every call, never cached):
    the inputs and crash rounds are permuted into the layout's ids, and
    the states and metrics come back indexed by the caller's.  The run is
    the isomorphic image of [Executor.run] on [graph] itself (see
    {!Layout}), so the result, rounds, CC, total bits, node visits and
    steps and every node's bits and messages are the same.  [registry]
    additionally receives the gauge [scale_layout_seconds]: the wall time
    of the relabel (BFS, gather, permuted inputs and crash rounds) plus
    the map-back.  Raises [Invalid_argument] when [params] or [failures]
    does not cover exactly [Bigraph.n graph] nodes. *)

val reference :
  graph:Bigraph.t ->
  failures:Ftagg_sim.Failure.t ->
  params:Ftagg_proto.Params.t ->
  seed:int ->
  outcome
(** The same execution on the same graph through
    [Engine.run_reference], the every-node spec that ignores [wake]: the
    other side of a differential pin.  Small graphs only — the spec
    steps every node every round and builds list inboxes. *)

val agrees : outcome -> outcome -> bool
(** Same result, rounds, CC and total bits, and the same bits and
    messages sent by every node. *)

val expected_sum : Ftagg_proto.Params.t -> int
(** The failure-free ground truth ([SUM] of the inputs) — the scale
    substitute for the [Checker]'s model-level correctness predicate,
    valid when no failures are scheduled. *)
