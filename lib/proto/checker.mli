(** Ground-truth oracles for result correctness and the paper's structural
    predicates (LFC existence, critical failures).

    The checker sees everything the protocols must not: the topology, the
    full failure schedule and every node's final state.  Tests and benches
    use it to verify the theorems' guarantees on concrete runs. *)

val survivors :
  graph:Ftagg_graph.Graph.t -> failures:Ftagg_sim.Failure.t -> round:int -> bool array
(** [survivors ~graph ~failures ~round] marks the nodes {e not} failed in
    the model's sense at [round] (§2): alive at [round] and connected to
    the root through nodes alive at [round].  One BFS from the root over
    the graph's rows that skips the nodes crashed by [round]; no graph is
    copied or built.  Every ground truth below is computed from it. *)

val correctness_sets :
  graph:Ftagg_graph.Graph.t ->
  failures:Ftagg_sim.Failure.t ->
  end_round:int ->
  inputs:int array ->
  int list * int list
(** [(base, optional)]: [base] holds the inputs of nodes that neither
    crashed by [end_round] nor were disconnected from the root in the
    surviving topology (the paper's [s1]); [optional] holds the other
    inputs ([s2 \ s1]). *)

val result_correct :
  graph:Ftagg_graph.Graph.t ->
  failures:Ftagg_sim.Failure.t ->
  end_round:int ->
  params:Params.t ->
  int ->
  bool
(** Whether a reported aggregate lies in the correctness interval given
    the run's failure schedule and termination round. *)

val model_edge_failures :
  graph:Ftagg_graph.Graph.t ->
  failures:Ftagg_sim.Failure.t ->
  round:int ->
  int
(** Edges incident to a node that is {e failed in the model's sense} by
    [round] — crashed, or disconnected from the root (§2 counts
    disconnected nodes as failed, so their edges count toward [f]). *)

(** {2 Structural predicates over a finished AGG execution} *)

type agg_trace = {
  agg_nodes : Agg.node array;
  agg_start : int;  (** global round of the execution's first round *)
  failures : Ftagg_sim.Failure.t;
  params : Params.t;
  graph : Ftagg_graph.Graph.t;
}

val critical_failures : agg_trace -> int list
(** Nodes that failed after acking and before their aggregation action
    (§4.1) — computed from the schedule, not from protocol messages. *)

val included_inputs : agg_trace -> source:int -> int list
(** The nodes whose inputs the given node's partial sum aggregated,
    recomputed {e from the crash schedule alone}: a child's subtree is
    included iff the child was still alive at its own aggregation action
    round.  Cross-checks the protocol's arithmetic (the partial sum must
    equal the fold of these inputs). *)

type representative_report = {
  disjoint : bool;  (** no input counted twice across selected sums *)
  covers_alive : bool;  (** every alive-and-connected node's input included *)
  psums_match : bool;  (** each selected partial sum = fold of its set *)
}

val representative_set : agg_trace -> selected:int list -> end_round:int -> representative_report
(** Validate §4.3's claim on a finished run: the partial sums the root
    selected form a representative set — pairwise disjoint coverage that
    includes every node still alive (and connected) at [end_round]. *)

val has_lfc : agg_trace -> veri_end:int -> bool
(** Whether a long failure chain (§5) exists: [t] tree-consecutive nodes
    in one fragment, all crashed by the end of AGG, whose tail has a
    local descendant alive at global round [veri_end].  Fragments are cut
    at the {e root-visible} critical failures, exactly as the paper
    defines them. *)

(** {2 The pair verdict} *)

type pair_truth = {
  verdict : Pair.verdict option;
      (** the root's verdict; [None] iff the run ended before
          [Pair.duration] (a watchdog halt) *)
  trace : agg_trace;  (** the AGG half, started at round 1 *)
  lfc : bool;  (** {!has_lfc} with VERI ending at [Pair.duration] *)
  edge_failures : int;  (** {!model_edge_failures} at [Pair.duration] *)
  correct : bool;
      (** [true] on [None] or an abort; otherwise whether the value lies
          in the correctness interval at the run's end round *)
}

val pair_truth :
  graph:Ftagg_graph.Graph.t ->
  failures:Ftagg_sim.Failure.t ->
  params:Params.t ->
  end_round:int ->
  Pair.node array ->
  pair_truth
(** Ground truth for one AGG+VERI pair started at round 1 whose run
    stopped after [end_round] rounds: the one judgment the runner, the
    [agg] backend, the chaos campaign and the watchdog's final round
    share.  [failures] is the materialized schedule. *)
