(** Structured, replayable incident reports.

    An incident captures everything needed to re-run a guarantee
    violation deterministically: the topology recipe (family, size,
    seed), parameters, inputs, the {e materialized} crash schedule (an
    adaptive adversary's decisions, replayed obliviously, reproduce the
    run — see {!Ftagg_sim.Engine.run_chaos}), the fault probabilities,
    and the violation the watchdog reported.  Incidents serialize to JSON
    via {!Ftagg_runner.Bench_io} and replay from the CLI
    ([ftagg_cli replay <incident.json>]). *)

type kind =
  | Pair_run  (** one AGG+VERI pair: the ["agg"] row with [b = f = 0] *)
  | Backend_run of { backend : string; b : int; f : int }
      (** the row of {!Ftagg_proto.Run} named [backend] (["tradeoff"] is
          Algorithm 1), run with budgets [b] and [f].  The decoder also
          reads the older Algorithm 1 form [{"tradeoff": true, "b", "f"}]
          as [backend = "tradeoff"]; the encoder writes only this one. *)

type scenario = {
  family : Ftagg_graph.Gen.family;
  n : int;
  topo_seed : int;  (** seed for {!Ftagg_graph.Gen.build} *)
  run_seed : int;  (** seed for the engine run *)
  c : int;
  t : int;
  inputs : int array;
  schedule : (int * int) list;  (** materialized [(node, crash round)] pairs *)
  faults : Ftagg_sim.Engine.faults;
  kind : kind;
  bit_cap : int option;
      (** watchdog bit-cap override (the planted-violation knob), if any *)
}
(** A self-contained, deterministic run recipe — the unit the shrinker
    minimizes. *)

type shrink_stats = {
  s_tries : int;  (** oracle runs the shrinker spent *)
  s_from_crashes : int;  (** crash count before shrinking *)
  s_from_n : int;  (** node count before shrinking *)
}

type t = {
  adversary : string;  (** {!Adversary.name} of the discovering adversary *)
  scenario : scenario;  (** minimized (unless [shrink = None]) *)
  violation : Ftagg_sim.Engine.violation;
  shrink : shrink_stats option;
}

val family_to_string : Ftagg_graph.Gen.family -> string
(** Machine-readable codec (e.g. ["random:0x1.9…p-4"], lossless via [%h])
    — {!Ftagg_graph.Gen.family_name} is the human form. *)

val family_of_string : string -> Ftagg_graph.Gen.family option

val to_json : t -> Ftagg_runner.Bench_io.json
val of_json : Ftagg_runner.Bench_io.json -> (t, string) result

val save : path:string -> t -> unit
val load : path:string -> (t, string) result

val pp_scenario : Format.formatter -> scenario -> unit
