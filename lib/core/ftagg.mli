(** Fault-tolerant aggregation with a near-optimal communication-time
    tradeoff — the public face of the library.

    This module re-exports every component under one roof and adds a
    small high-level API ({!Network}) for the common case: build a
    topology, pick inputs, choose a failure adversary, and ask the root
    for an aggregate within a time budget.

    Reproduces Zhao, Yu & Chen, {e Near-Optimal Communication-Time
    Tradeoff in Fault-Tolerant Computation of Aggregate Functions},
    PODC 2014. *)

(** {1 Substrates} *)

module Prng = Ftagg_util.Prng
module Bits = Ftagg_util.Bits
module Stats = Ftagg_util.Stats
module Table = Ftagg_util.Table
module Chart = Ftagg_util.Chart
module Graph = Ftagg_graph.Graph
module Gen = Ftagg_graph.Gen
module Path = Ftagg_graph.Path
module Engine = Ftagg_sim.Engine
module Failure = Ftagg_sim.Failure
module Metrics = Ftagg_sim.Metrics
module Trace = Ftagg_sim.Trace

(** {1 Observability (telemetry registry, spans, exporters)} *)

module Registry = Ftagg_obs.Registry
module Span = Ftagg_obs.Span
module Obs = Ftagg_obs.Obs
module Export = Ftagg_obs.Export
module Sweep_obs = Ftagg_obs.Sweep_obs

(** {1 Aggregate functions} *)

module Caaf = Ftagg_caaf.Caaf
module Instances = Ftagg_caaf.Instances

(** {1 Protocols (§4–§6)} *)

module Params = Ftagg_proto.Params
module Message = Ftagg_proto.Message
module Flood = Ftagg_proto.Flood
module Agg = Ftagg_proto.Agg
module Veri = Ftagg_proto.Veri
module Pair = Ftagg_proto.Pair
module Tradeoff = Ftagg_proto.Tradeoff
module Unknown_f = Ftagg_proto.Unknown_f
module Brute_force = Ftagg_proto.Brute_force
module Folklore = Ftagg_proto.Folklore
module Checker = Ftagg_proto.Checker
module Backend = Ftagg_proto.Backend
module Run = Ftagg_proto.Run

(** {1 Approximate-aggregation baselines (related work [8], [14])} *)

module Gossip = Ftagg_proto.Gossip
module Flow_updating = Ftagg_proto.Flow_updating
module Synopsis = Ftagg_proto.Synopsis

(** {1 Lower-bound structure} *)

module Cut_sim = Ftagg_proto.Cut_sim

(** {1 Empirical worst-case search (the FT0 landscape)} *)

module Worstcase = Ftagg_proto.Worstcase

(** {1 Chaos: adaptive adversaries, watchdogs, shrinking incident reports} *)

module Adversary = Ftagg_chaos.Adversary
module Watchdog = Ftagg_proto.Watchdog
module Incident = Ftagg_chaos.Incident
module Shrink = Ftagg_chaos.Shrink
module Campaign = Ftagg_chaos.Campaign
module Schedule = Ftagg_chaos.Schedule

(** {1 Churn and elasticity (topology generations, scenario matrix)} *)

module Membership = Ftagg_churn.Membership
module Scenario = Ftagg_churn.Scenario

(** {1 Long-lived aggregation service (scheduling, caching, checkpoints)} *)

module Service = Ftagg_service

(** {1 Socket transport (Unix/TCP listener, line framing, token auth)} *)

module Transport = Ftagg_transport

(** {1 Shared on-disk outcome store (append-only segments, CRC records)} *)

module Store = Ftagg_store.Store
module Segment = Ftagg_store.Segment

(** {1 Sharded fleet (consistent-hash ring, routing, fan-out client)} *)

module Ring = Ftagg_fleet.Ring
module Router = Ftagg_fleet.Router
module Fleet = Ftagg_fleet.Fleet

(** {1 Massive scale (streaming CSR graphs, multi-domain executor)} *)

module Bigraph = Ftagg_scale.Bigraph
module Scale_mem = Ftagg_scale.Mem
module Scale_executor = Ftagg_scale.Executor
module Scale_layout = Ftagg_scale.Layout
module Scale_run = Ftagg_scale.Scale_run

(** {1 Derived queries} *)

module Selection = Ftagg_select.Selection
module Derived = Ftagg_select.Derived

(** {1 Multicore sweeps} *)

module Sweep = Ftagg_runner.Sweep
module Bench_io = Ftagg_runner.Bench_io

(** {1 Two-party lower-bound machinery (§7)} *)

module Channel = Ftagg_twoparty.Channel
module Cycle_promise = Ftagg_twoparty.Cycle_promise
module Unionsize = Ftagg_twoparty.Unionsize
module Equality = Ftagg_twoparty.Equality
module Sperner = Ftagg_twoparty.Sperner
module Bounds = Ftagg_twoparty.Bounds

(** {1 High-level API} *)

module Network : sig
  (** A ready-to-run system: topology plus model constants. *)
  type t = {
    graph : Graph.t;
    c : int;
    seed : int;
  }

  (** What a run tells you, in one record: the root's answer plus the
      cost and correctness accounting.  [result] is [Agg.Aborted] when
      the protocol gave up (the facade's protocols never do: both fall
      back to brute force rather than abort). *)
  type report = {
    result : Agg.result;  (** the root's answer; [Aborted] if it gave up *)
    correct : bool;  (** checked against the ground-truth interval *)
    cc : int;  (** max bits broadcast by any single node *)
    rounds : int;
    flooding_rounds : int;
  }

  val value_exn : report -> int
  (** The computed value; raises [Invalid_argument] on [Aborted]. *)

  val create : ?c:int -> ?seed:int -> Gen.family -> n:int -> unit -> t

  val n : t -> int
  val graph : t -> Graph.t
  val diameter : t -> int

  val no_failures : t -> Failure.t
  val random_failures : ?max_round:int -> t -> budget:int -> seed:int -> Failure.t

  val params : ?caaf:Caaf.t -> t -> inputs:int array -> Params.t

  val aggregate :
    ?caaf:Caaf.t -> ?failures:Failure.t -> t -> inputs:int array -> b:int -> f:int -> report
  (** Fault-tolerant aggregation via Algorithm 1 under a TC budget of [b]
      flooding rounds and at most [f] edge failures. *)

  val sum : ?failures:Failure.t -> t -> inputs:int array -> b:int -> f:int -> report
  (** SUM with default settings. *)

  val aggregate_unknown_f :
    ?caaf:Caaf.t -> ?failures:Failure.t -> t -> inputs:int array -> report
  (** Aggregation when [f] is unknown: the doubling-trick protocol. *)

  val select :
    ?failures:Failure.t -> t -> inputs:int array -> b:int -> f:int -> k:int -> Selection.outcome
  (** The [k]-th smallest input, [1]-based. *)

  val median :
    ?failures:Failure.t -> t -> inputs:int array -> b:int -> f:int -> Selection.outcome
end
