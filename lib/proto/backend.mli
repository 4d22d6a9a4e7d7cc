(** First-class protocol backends.

    A backend packages one aggregation protocol behind a uniform
    interface: instantiate on a topology, drive through
    {!Ftagg_sim.Engine}, and report a uniform {!outcome} — an exact
    value or an estimate with its relative error, the {!common} run
    record every runner shares, and per-backend evidence.  Packaging is
    by first-class module ({!t} = [(module S)]) so heterogeneous
    protocols (zero-error AGG+VERI next to approximate push-sum and
    flow-updating) ride the same harness: {!exec} for plain runs,
    {!exec_chaos} for watched chaos runs.  Every runnable automaton is
    one row built by {!make}; {!Run.protocols} and {!Run.backends} are
    the two name views over those rows that the CLI, the service and the
    chaos campaign dispatch on.

    The exact backends answer with {!Exact} (possibly [Agg.Aborted]);
    the gossip backends answer with {!Estimate}.  [common.correct] is
    uniform across both: an estimate is "correct" when its rounding
    lands in the {!Checker} correctness interval — the cross-protocol
    matrix (bench E20) reads this column directly. *)

module Metrics = Ftagg_sim.Metrics

type common = {
  metrics : Metrics.t;
  rounds : int;  (** rounds until the run halted *)
  flooding_rounds : int;  (** [ceil (rounds / d)] *)
  correct : bool;  (** result within the correctness interval (an abort
                       is reported as correct only if the protocol is
                       allowed to give up there) *)
}
(** The outcome record every runner shares ({!Run.common} re-exports
    this type — accessors written against either name interoperate). *)

val mk_common : d:int -> metrics:Metrics.t -> correct:bool -> common

type result =
  | Exact of Agg.result
      (** a zero-error backend's answer ([Aborted] when it gave up) *)
  | Estimate of { value : float; relative_error : float }
      (** an approximate backend's answer with its measured relative
          error against the ground-truth aggregate *)

type outcome = {
  result : result;
  common : common;
  evidence : (string * string) list;
      (** per-backend detail (epochs used, recovered flows, root mass
          weight, …) as printable key/value pairs *)
}

val value_exn : outcome -> int
(** The exact value; raises [Invalid_argument] on [Estimate] or
    [Exact Aborted] outcomes. *)

val estimate_of : outcome -> float
(** The answer as a float: the exact value, or the estimate.  Raises
    [Invalid_argument] on [Exact Aborted]. *)

val relative_error : outcome -> truth:float -> float
(** |answer − truth| / |truth| (0 for an exact correct answer by
    construction; |answer| when truth = 0).  Raises on [Exact Aborted]. *)

(** The backend signature: everything the harness needs to run one
    protocol.  [b] is the TC budget in flooding rounds and [f] the
    edge-failure budget; backends that take neither (the fixed-duration
    AGG+VERI pair, flood, folklore) ignore them. *)
module type S = sig
  type state
  type msg

  val name : string
  val exact : bool
  (** [true] for zero-error backends; {!finish} answers {!Exact}. *)

  val guarantee : string
  (** One-line statement of the correctness guarantee, for reports
      (e.g. ["zero-error or abort; abort only under > t failures"]). *)

  val protocol :
    graph:Ftagg_graph.Graph.t ->
    params:Params.t ->
    b:int ->
    f:int ->
    (state, msg) Ftagg_sim.Engine.protocol

  val max_rounds : params:Params.t -> b:int -> f:int -> int
  (** The round budget {!exec} drives the protocol for (protocols with
      [root_done] may halt earlier).  [b]/[f] as in {!protocol} — the
      folklore backend's duration scales with [f], the gossip backends'
      with [b]. *)

  val finish :
    graph:Ftagg_graph.Graph.t ->
    failures:Ftagg_sim.Failure.t ->
    params:Params.t ->
    b:int ->
    f:int ->
    states:state array ->
    metrics:Metrics.t ->
    outcome
  (** Package a finished (or watchdog-truncated) run.  [failures] is the
      materialized schedule — under an online adversary it differs from
      the oblivious input. *)

  val watch :
    ?bit_cap:int ->
    params:Params.t ->
    graph:Ftagg_graph.Graph.t ->
    b:int ->
    f:int ->
    unit ->
    state Ftagg_sim.Engine.watch option
  (** The backend's chaos watchdog, if it has one.  Every backend must
      honour [bit_cap] (the planted-violation knob): when set, the
      returned watch must report ["bit_budget"] the first round any
      node's cumulative bits cross it — {!bits_watch} is the generic
      implementation.  [b]/[f] as in {!protocol} — Algorithm 1's
      Theorem 1 watch needs [b].  [None] only when no cap is given and
      the backend has no invariants of its own.  Stateful watches must
      be fresh per run (hence the [unit] step). *)
end

type t = (module S)

val name : t -> string
val exact : t -> bool
val guarantee : t -> string

val bits_watch : bit_cap:int -> 'state Ftagg_sim.Engine.watch
(** Generic per-node bit accounting: fires ["bit_budget"] on the first
    round any node's cumulative broadcast bits exceed the cap, naming the
    lowest such node.  The protocol-agnostic half of
    {!Watchdog.pair_watch}'s budget check, usable with any backend
    state.  It reads only the round's broadcasters
    ([Engine.view.v_broadcasters]), the only nodes whose bits changed. *)

val cap_watch :
  ?bit_cap:int ->
  params:Params.t ->
  graph:Ftagg_graph.Graph.t ->
  b:int ->
  f:int ->
  unit ->
  'state Ftagg_sim.Engine.watch option
(** An {!S.watch} that honours a planted cap with {!bits_watch} and
    checks nothing else — the watch of every backend without invariants
    of its own. *)

val make :
  name:string -> ?exact:bool -> guarantee:string ->
  ?watch:(?bit_cap:int -> params:Params.t -> graph:Ftagg_graph.Graph.t -> b:int -> f:int ->
          unit -> 'state Ftagg_sim.Engine.watch option) ->
  protocol:(graph:Ftagg_graph.Graph.t -> params:Params.t -> b:int -> f:int ->
            ('state, 'msg) Ftagg_sim.Engine.protocol) ->
  max_rounds:(params:Params.t -> b:int -> f:int -> int) ->
  (graph:Ftagg_graph.Graph.t -> failures:Ftagg_sim.Failure.t -> params:Params.t -> b:int ->
   f:int -> states:'state array -> metrics:Metrics.t -> outcome) ->
  t
(** A row from its {!S} fields, the last one [finish]; [exact] defaults
    to [true] and [watch] to {!cap_watch}. *)

val exec :
  ?obs:Ftagg_obs.Obs.t ->
  backend:t ->
  graph:Ftagg_graph.Graph.t ->
  failures:Ftagg_sim.Failure.t ->
  params:Params.t ->
  b:int ->
  f:int ->
  seed:int ->
  unit ->
  outcome
(** Drive the backend through {!Ftagg_sim.Engine.run}.  Exactly the
    backend's own [protocol]/[max_rounds]/[finish] — a backend run
    through [exec] and run by hand produce identical outcomes and
    metrics (pinned differentially in [test/test_backend.ml]). *)

type chaos = {
  c_outcome : outcome;
      (** packaged from whatever states the run reached — on a watchdog
          halt the protocol did not finish and [c_violation] is the
          authoritative verdict *)
  c_schedule : Ftagg_sim.Failure.t;
      (** the materialized schedule (oblivious input plus online
          decisions), replayable *)
  c_violation : Ftagg_sim.Engine.violation option;
  c_completed : bool;  (** the run reached the backend's round budget
                           (or halted itself via [root_done]) without a
                           watchdog halt *)
}

val exec_chaos :
  ?obs:Ftagg_obs.Obs.t ->
  ?faults:Ftagg_sim.Engine.faults ->
  ?online:Ftagg_sim.Engine.online ->
  ?bit_cap:int ->
  backend:t ->
  graph:Ftagg_graph.Graph.t ->
  failures:Ftagg_sim.Failure.t ->
  params:Params.t ->
  b:int ->
  f:int ->
  seed:int ->
  unit ->
  chaos
(** Drive the backend through {!Ftagg_sim.Engine.run_chaos} under the
    backend's own watchdog ([S.watch], which must honour [bit_cap]).
    With every knob at its default this is observationally identical to
    {!exec}. *)
