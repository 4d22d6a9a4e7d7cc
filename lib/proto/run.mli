(** End-to-end runners: instantiate a protocol on a topology, drive it
    through the engine under a failure schedule, and package the outcome
    together with metrics and ground-truth checks.

    Every entry point returns an outcome record with the same shape: a
    [result : Agg.result] (the root's answer, [Aborted] when the protocol
    gave up), a [common : common] with the run's metrics and checks, and
    protocol-specific evidence fields.

    Protocols are also packaged as first-class {!Backend}s ({!backends}
    is the registry): heterogeneous exact and approximate protocols run
    under one harness via {!exec} / {!exec_chaos}, which is how the CLI's
    [--backend], the chaos campaign and bench E20 dispatch.

    All entry points accept [?loss] (default [0.]): the per-edge delivery
    loss probability forwarded to {!Ftagg_sim.Engine.run}.  Non-zero loss
    leaves the paper's model — see the engine's documentation.

    All entry points also accept [?obs]: a telemetry sink
    ({!Ftagg_obs.Obs}) forwarded to the engine.  Instrumented runs see
    per-phase bit attribution (AGG/VERI/Tradeoff annotate their phases)
    at identical protocol behaviour — telemetry never touches the PRNG
    streams. *)

module Metrics = Ftagg_sim.Metrics
module Backend = Backend

type common = Backend.common = {
  metrics : Metrics.t;
  rounds : int;  (** rounds until the run halted *)
  flooding_rounds : int;  (** [ceil (rounds / d)] *)
  correct : bool;  (** result within the correctness interval (an abort /
                       no-clean-epoch outcome is reported as correct only
                       if the protocol is allowed to give up there) *)
}
(** Re-export of {!Backend.common} — the record every runner and backend
    outcome shares. *)

val value_exn : Agg.result -> int
(** The computed value; raises [Invalid_argument] on [Agg.Aborted]. *)

(** {2 Single AGG / AGG+VERI executions} *)

type pair_outcome = {
  result : Agg.result;  (** = [verdict.Pair.result] *)
  verdict : Pair.verdict;
  trace : Checker.agg_trace;  (** for structural ground truth *)
  veri_end : int;  (** global round of VERI's last round *)
  lfc : bool;  (** ground truth: did the run contain an LFC? *)
  edge_failures : int;
      (** ground truth: the model's edge-failure count at the end of the
          run — edges incident to crashed {e or disconnected} nodes (§2
          counts disconnection as failure) *)
  common : common;
}

val pair :
  ?ablation:Agg.ablation ->
  ?loss:float ->
  ?obs:Ftagg_obs.Obs.t ->
  graph:Ftagg_graph.Graph.t ->
  failures:Ftagg_sim.Failure.t ->
  params:Params.t ->
  seed:int ->
  unit ->
  pair_outcome
(** One AGG+VERI pair ({!Pair.protocol}) starting at round 1, judged by
    {!Checker.pair_truth}.  [common.correct] is [true] when AGG aborted
    (it gave up explicitly) or its value is in the correctness
    interval. *)

type agg_outcome = {
  result : Agg.result;
  trace : Checker.agg_trace;
  common : common;
}

val agg :
  ?ablation:Agg.ablation ->
  ?loss:float ->
  ?obs:Ftagg_obs.Obs.t ->
  graph:Ftagg_graph.Graph.t ->
  failures:Ftagg_sim.Failure.t ->
  params:Params.t ->
  seed:int ->
  unit ->
  agg_outcome

(** {2 Whole-protocol runs} *)

type value_outcome = {
  result : Agg.result;  (** always [Value] — brute force cannot abort *)
  common : common;
}

val brute_force :
  ?loss:float ->
  ?obs:Ftagg_obs.Obs.t ->
  graph:Ftagg_graph.Graph.t ->
  failures:Ftagg_sim.Failure.t ->
  params:Params.t ->
  seed:int ->
  unit ->
  value_outcome

type folklore_outcome = {
  result : Agg.result;  (** [Aborted] on [No_clean_epoch] *)
  f_result : Folklore.result;  (** the protocol-level detail *)
  epochs : int;
  common : common;
}

val folklore :
  ?loss:float ->
  ?obs:Ftagg_obs.Obs.t ->
  graph:Ftagg_graph.Graph.t ->
  failures:Ftagg_sim.Failure.t ->
  params:Params.t ->
  mode:Folklore.mode ->
  seed:int ->
  unit ->
  folklore_outcome
(** [common.correct] for [Naive] mode reports the actual interval check —
    the motivating baseline is {e expected} to fail it under failures. *)

type tradeoff_outcome = {
  result : Agg.result;  (** always [Value] — Algorithm 1 falls back to
                            brute force rather than aborting *)
  how : Tradeoff.how;
  common : common;
}

val tradeoff :
  ?loss:float ->
  ?obs:Ftagg_obs.Obs.t ->
  ?strategy:Tradeoff.strategy ->
  graph:Ftagg_graph.Graph.t ->
  failures:Ftagg_sim.Failure.t ->
  params:Params.t ->
  b:int ->
  f:int ->
  seed:int ->
  unit ->
  tradeoff_outcome
(** Algorithm 1 ({!Tradeoff.protocol}).  [strategy] defaults to the
    paper's [Sampled] intervals; [Sequential] is the derandomized
    ablation of bench E15. *)

type unknown_f_outcome = {
  result : Agg.result;  (** always [Value] *)
  how : Unknown_f.how;
  common : common;
}

val unknown_f :
  ?loss:float ->
  ?obs:Ftagg_obs.Obs.t ->
  graph:Ftagg_graph.Graph.t ->
  failures:Ftagg_sim.Failure.t ->
  params:Params.t ->
  seed:int ->
  unit ->
  unknown_f_outcome

(** {2 Protocol backends}

    The registry of first-class {!Backend}s, and the generic drivers.
    Exact backends: ["agg"] (one AGG+VERI pair, fixed [Pair.duration]
    rounds), ["flood"] (brute force), ["folklore"] (retry with [f + 1]
    epochs).  Approximate backends: ["pushsum"] ({!Gossip.backend}) and
    ["flowupdating"] / ["flowupdating-avg"] ({!Flow_updating.backend}),
    each budgeted [b × d] rounds — the same TC budget Algorithm 1 gets,
    so cross-backend rows are comparable. *)

type backend = Backend.t

val agg_backend : backend
(** One AGG+VERI pair, judged by {!Checker.pair_truth} as {!pair} is.
    On a watchdog-truncated run the result is [Exact Aborted] with
    [("halted_early", "true")] evidence; otherwise evidence carries
    [veri_ok], [lfc] and [edge_failures]. *)

val flood_backend : backend
(** Brute force — tolerates any number of crashes. *)

val folklore_backend : backend
(** Folklore retry with [f + 1] epochs; evidence carries [epochs]. *)

val backends : (string * backend) list
(** Every registered backend, keyed by {!Backend.name}. *)

val backend_of_string : string -> backend option
(** Look up a backend by name (the CLI's [--backend] values). *)

val exec :
  ?loss:float ->
  ?obs:Ftagg_obs.Obs.t ->
  backend:backend ->
  graph:Ftagg_graph.Graph.t ->
  failures:Ftagg_sim.Failure.t ->
  params:Params.t ->
  b:int ->
  f:int ->
  seed:int ->
  unit ->
  Backend.outcome
(** {!Backend.exec} — run any backend under the plain engine. *)

val exec_chaos :
  ?obs:Ftagg_obs.Obs.t ->
  ?faults:Ftagg_sim.Engine.faults ->
  ?online:Ftagg_sim.Engine.online ->
  ?bit_cap:int ->
  backend:backend ->
  graph:Ftagg_graph.Graph.t ->
  failures:Ftagg_sim.Failure.t ->
  params:Params.t ->
  b:int ->
  f:int ->
  seed:int ->
  unit ->
  Backend.chaos
(** {!Backend.exec_chaos} — run any backend under the chaos engine with
    the backend's own watchdog. *)
