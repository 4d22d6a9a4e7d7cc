(** Telemetry-carrying parallel sweeps.

    [Sweep.map] runs jobs on a domain pool; registries are unsynchronized,
    so jobs must not share one.  [map] gives every job a {e private}
    fresh registry, then folds the per-job registries into [into] in
    {b input order} — deterministic regardless of which domain ran which
    job or in what order they finished, matching [Sweep]'s
    results-in-input-order contract (counter/histogram merges commute;
    gauges are last-write-wins in input order).

    Lives here rather than in [Ftagg_runner.Sweep] because the runner
    library sits below the observability layer in the dependency order
    ([Bench_io] is the JSON backend of {!Export}). *)

val map :
  ?domains:int -> into:Registry.t -> (Registry.t -> 'a -> 'b) -> 'a list -> 'b list
(** [map ~into f xs] — like [Sweep.map], but each [f] call receives the
    job's private registry; all registries are merged into [into] after
    the pool drains.  Results come back in input order. *)
