(** End-to-end runners: instantiate a protocol on a topology, drive it
    through the engine under a failure schedule, and package the outcome
    together with metrics and ground-truth checks.

    Every entry point returns an outcome record with the same shape: a
    [result : Agg.result] (the root's answer, [Aborted] when the protocol
    gave up), a [common : common] with the run's metrics and checks, and
    protocol-specific evidence fields.

    Every runnable automaton is also one first-class {!Backend} row,
    finished by the typed finisher of its runner here, and reached
    through two name views: {!protocols} (the CLI's [--protocol]) and
    {!backends} (its [--backend], the chaos campaign, the churn matrix
    and bench E20).  {!Backend.exec} / {!Backend.exec_chaos} run any
    row; the CLI's run/trace/stats and the service's tradeoff, brute and
    unknown-f jobs dispatch that way. *)

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
  lfc : bool;  (** ground truth: did the run contain an LFC? *)
  edge_failures : int;
      (** ground truth: the model's edge-failure count at the end of the
          run — edges incident to crashed {e or disconnected} nodes (§2
          counts disconnection as failure) *)
  common : common;
}

val pair :
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
    ablation of bench E15.  [obs] is the engine's telemetry sink
    ({!Ftagg_sim.Engine.run}): the AGG, VERI and interval phases
    annotate it with their bits, at identical protocol behaviour. *)

type unknown_f_outcome = {
  result : Agg.result;  (** always [Value] *)
  how : Unknown_f.how;
  common : common;
}

val unknown_f :
  graph:Ftagg_graph.Graph.t ->
  failures:Ftagg_sim.Failure.t ->
  params:Params.t ->
  seed:int ->
  unit ->
  unknown_f_outcome

(** {2 The rows and their two views}

    One {!Backend.t} row per runnable automaton.  Its [finish] reuses the
    typed finisher above and renders the evidence as strings: the pair's
    [veri_ok]/[lfc]/[edge_failures], folklore's and naive TAG's
    [epochs], Algorithm 1's [via] ([pair interval y] or
    [brute-force fallback]) and unknown-f's ([slot g] or
    [brute-force fallback]).  A row whose root never output (a watchdog
    halted the run) answers [Exact Aborted] with [halted_early] evidence;
    the pair still adds its [lfc] and [edge_failures].  The pair's watch
    is {!Watchdog.pair_watch} and Algorithm 1's is
    {!Watchdog.tradeoff_watch}; push-sum and flow-updating run [b × d]
    rounds, Algorithm 1's TC budget. *)

type backend = Backend.t

val protocols : (string * backend) list
(** The [--protocol] view: [tradeoff], [brute] (the flood row),
    [folklore], [naive], [unknown-f], [pair] and [agg] — AGG alone, in no
    other view, so its name never reaches a report, an incident or the
    wire. *)

val backends : (string * backend) list
(** The [--backend] view, keyed by {!Backend.name}: [agg] (the pair),
    [flood], [folklore], [pushsum], [flowupdating], [flowupdating-avg]. *)

val find : (string * backend) list -> string -> (string * backend) option
(** Look a name up in a view case-insensitively (["unknown_f"] is an
    alias of ["unknown-f"]), answering the view key with the row. *)

val backend_of_string : string -> backend option
(** The row {!find} answers in {!backends}. *)

val protocol_of_string : string -> backend option
(** The row {!find} answers in {!protocols}. *)
