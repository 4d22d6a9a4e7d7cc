(** A service request: one aggregation computation, self-contained.

    A {!spec} carries everything needed to reproduce the run — topology
    recipe (family, [n], seed), inputs, protocol parameters and the
    failure adversary — plus service-side envelope fields (tenant,
    priority, deadline).  Specs are fully {e resolved} at admission: a
    submitted job that omitted [b] / [f] got them from the then-current
    {!Reconfig.settings}, so a spec means the same thing forever after,
    across checkpoints and reconfigurations.

    The {!digest} is the cache key: a 64-bit FNV-1a over the canonical
    form of every field that affects the computation.  Envelope fields
    (tenant, priority, deadline) are excluded, so identical questions
    from different tenants share one cache entry. *)

type priority = High | Normal | Low

val priority_to_string : priority -> string
val priority_of_string : string -> priority option

val priority_rank : priority -> int
(** [High] → 0, [Normal] → 1, [Low] → 2 — the admission queue's order. *)

type protocol =
  | Tradeoff of { b : int; f : int }  (** Algorithm 1 *)
  | Brute  (** brute-force baseline *)
  | Unknown_f  (** the doubling-trick protocol *)
  | Chaos_pair of { bit_cap : int option }
      (** the AGG+VERI pair row run under its watchdog, through
          {!Ftagg_proto.Backend.exec_chaos} — the
          campaign-through-the-service transport *)

type failure_spec =
  | Generated of { mode : string; budget : int }
      (** one of [none]/[random]/[burst]/[chain]/[neighborhood], derived
          deterministically from the job seed *)
  | Explicit of (int * int) list  (** materialized [(node, round)] crashes *)

type spec = {
  tenant : string;
  family : Ftagg_graph.Gen.family;
  n : int;
  topo_seed : int;
  inputs : int array;
  c : int;
  t : int;
  caaf : string;  (** aggregate name ([sum], [max], …) — validated at parse *)
  protocol : protocol;
  failures : failure_spec;
  seed : int;
  generation : int;
      (** topology generation the request was made under (see
          {!Ftagg_churn.Membership}); 0 for static-membership jobs *)
  deadline : int option;
      (** max scheduler ticks the job may wait in the queue; [None] waits
          forever *)
  priority : priority;
}

type outcome = {
  value : int option;  (** the root's answer; [None] on abort / halted run *)
  correct : bool;
  cc : int;
  rounds : int;
  flooding_rounds : int;
  via : string;  (** how the value was obtained (interval, fallback, …) *)
  violation : string option;  (** watchdog invariant, chaos-pair jobs only *)
}

type executed = {
  outcome : outcome;
  violation : Ftagg_sim.Engine.violation option;
      (** the full watchdog violation of a [Chaos_pair] job, whose
          [outcome] keeps only its invariant — runtime-only, never
          serialized (checkpoint-restored cache entries carry [None]) *)
}

val digest : spec -> string
(** 16 hex chars, stable across processes and checkpoints.  Deliberately
    {e excludes} the generation — the digest identifies the computation;
    staleness is the cache key's business (see {!cache_key}). *)

val cache_key : spec -> string
(** What the result cache and the shared store are keyed on: the
    {!digest} alone at generation 0, ["<digest>@g<generation>"]
    otherwise.  A generation-[g] job can therefore never hit an outcome
    cached under generation [g - 1], even when the spec digests agree —
    the topology may have churned underneath it. *)

val key_of_digest : spec -> string -> string
(** [key_of_digest spec (digest spec)] is [cache_key spec], without
    hashing the spec again: admission digests each job once and keeps
    both. *)

val to_json : spec -> Ftagg_runner.Bench_io.json
(** The resolved wire/checkpoint form; [of_json ∘ to_json] is the
    identity on specs. *)

val of_json :
  settings:Reconfig.settings -> Ftagg_runner.Bench_io.json -> (spec, string) result
(** Parse a job object, filling defaults ([tenant "default"], grid 36,
    [b]/[f] from [settings], random inputs from the seed, …).  Every
    validation failure is a [Error reason] — the server answers it as a
    bad request, never by dying. *)

val outcome_to_json : outcome -> Ftagg_runner.Bench_io.json
val outcome_of_json : Ftagg_runner.Bench_io.json -> (outcome, string) result

val execute : spec -> executed
(** Run the job: build the graph, derive parameters, materialize the
    adversary, drive the protocol.  Pure function of the spec — this is
    what makes the digest a sound cache key. *)
