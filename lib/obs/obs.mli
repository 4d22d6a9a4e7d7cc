(** The per-run telemetry sink the engine feeds.

    An [Obs.t] bundles the three collectors a run produces:

    - a {!Registry} of counters/gauges/histograms
      ([ftagg_bits_total{phase=...}], [ftagg_broadcasts_total{phase=...}],
      [ftagg_broadcast_bits{phase=...}] histogram, [ftagg_rounds_total],
      [ftagg_violations_total{invariant=...}]);
    - a {!Span} collector (protocol phases, interval executions);
    - an ordered event stream (broadcasts, violations, chaos shrink
      progress, anything via {!event}) for the JSONL export.

    Pass it to [Engine.run ~obs] / [Engine.run_chaos ~obs]; render it with
    {!Export}.  Every hook is a no-op while telemetry is globally
    disabled ([Registry.set_enabled false]).

    One sink is normally one run (round numbers restart per run, and the
    Chrome export assumes a single timeline); runs aggregate by merging
    registries ([Registry.merge_into], as [Sweep_obs.map] does). *)

type event = {
  ev_kind : string;
  ev_round : int;  (** [-1] when not tied to a round *)
  ev_node : int;  (** [-1] when not tied to a node *)
  ev_fields : (string * Ftagg_runner.Bench_io.json) list;
}

type t

val create : ?name:string -> unit -> t
(** Fresh sink with its own registry.  [name] (default ["run"]) labels
    the exports. *)

val name : t -> string
val registry : t -> Registry.t
val spans : t -> Span.t
val events : t -> event list
(** Events in emission order. *)

val event :
  t -> kind:string -> ?round:int -> ?node:int ->
  (string * Ftagg_runner.Bench_io.json) list -> unit
(** Append a custom event to the stream. *)

(** {2 Engine hooks} *)

val on_round : t -> int -> unit
(** Round [r] is starting: publishes it to the span collector and bumps
    [ftagg_rounds_total]. *)

val on_broadcast : t -> round:int -> node:int -> msgs:int -> bits:int -> unit
(** A node broadcast [msgs] logical payloads totalling [bits] bits.
    Attributes the bits to the sender's innermost open span — the phase
    label ["(none)"] collects bits sent outside any span, so per-phase
    totals always sum to [Metrics.total_bits]. *)

val on_violation : t -> round:int -> invariant:string -> detail:string -> unit
(** A watchdog invariant fired (chaos runs). *)

val finish : t -> unit
(** End of run: closes any spans still open. *)

(** {2 Derived views} *)

val phase_bits : t -> (string * int) list
(** Per-phase bit totals from the registry
    ([ftagg_bits_total{phase=...}]), sorted by phase name. *)
