(** The service's job engine: admission, prioritized fair dispatch over
    the {!Ftagg_runner.Sweep} domain pool, result cache, cancellation,
    deadlines, checkpointing and live reconfiguration.

    The scheduler is {e tick-driven}: {!submit} only enqueues; each
    {!tick} pops up to a batch of jobs (per-tenant round-robin, priority
    within tenant), serves cache hits without re-simulation, runs the
    misses in parallel via {!Ftagg_runner.Sweep.map_results} (one job
    failure never abandons the batch), and records completions.  This
    makes the whole service deterministic and drivable from a line
    protocol or a test.

    Single ownership: all scheduler state is confined to the driving
    thread; only [Job.execute] (a pure function of the spec) runs on
    domains. *)

type completion = {
  id : string;
  tenant : string;
  digest : string;
      (** the job's {!Job.cache_key} — the bare spec digest at
          generation 0, [<digest>@g<generation>] otherwise *)
  cached : bool;  (** served from the result cache, no simulation ran *)
  outcome : (Job.outcome, string) result;
      (** [Error] for an expired deadline or a job that raised *)
  violation : Ftagg_sim.Engine.violation option;
      (** a chaos-pair job's full watchdog violation, when this process
          ran it (never across a restart) *)
}

type t

val create :
  ?obs:Ftagg_obs.Obs.t ->
  ?checkpoint_path:string ->
  ?store:Ftagg_store.Store.t ->
  settings:Reconfig.settings ->
  unit ->
  t
(** [obs] supplies the telemetry sink: its registry receives the
    service metrics ([service_queue_depth] gauge, [service_job_rounds]
    histogram, [service_jobs_*_total] and [service_cache_*_total]
    counters) and its event stream the [reconfig] events; the per-job
    records wait for {!export_completions}.  [checkpoint_path] enables
    auto-checkpointing every [settings.checkpoint_every] completions and
    {!checkpoint_now}.
    [store] plugs in the shared on-disk outcome store as an L2 behind
    the LRU cache: a cache miss consults it (and promotes a hit into the
    LRU, completing as [cached = true]) and every fresh execution is
    appended to it, visible to all other fleet members sharing the
    directory. *)

val restore :
  ?obs:Ftagg_obs.Obs.t ->
  ?checkpoint_path:string ->
  ?store:Ftagg_store.Store.t ->
  settings:Reconfig.settings ->
  Checkpoint.state ->
  t
(** Resume from a checkpoint: the backlog is re-admitted in order
    (bypassing the capacity gate — admission was already granted in the
    previous life) and completed results re-seed the cache, so
    post-restart duplicates still hit.  With a [store], re-seeding
    dedupes against it instead: digests the store already holds are
    served from L2 on demand (no duplicate entries are appended, and no
    hit/miss counter moves during restore). *)

val store : t -> Ftagg_store.Store.t option
val store_stats : t -> Ftagg_store.Store.stats option

val submit : t -> Job.spec -> (string * string, Queue.reject) result
(** Admit a job; returns its fresh id and its {!Job.digest}, or the
    backpressure reason when the queue is full.  The spec is digested
    once, here: the queue entry keeps the cache key {!tick} looks up. *)

val cancel : t -> string -> bool
(** Remove a still-queued job.  [false] if unknown, already running, or
    already completed — completions are never retracted. *)

val tick : ?max:int -> t -> unit -> completion list
(** Run one dispatch round of up to [max] jobs (default
    [settings.tick_batch]); returns the jobs that finished this tick, in
    dispatch order.  Deadlines are charged in ticks: a job whose wait
    exceeds its [deadline] completes with an [Error] instead of running.
    Co-batched duplicates are deduplicated (when caching is enabled):
    one representative executes, the rest are served from its fresh
    result as cache hits. *)

val drain : t -> completion list
(** Tick until the queue is empty — the graceful-shutdown path. *)

val result : t -> string -> completion option
val depth : t -> int
val tenants : t -> string list
val completed_count : t -> int
val cache_stats : t -> Cache.stats
val tick_count : t -> int
val settings : t -> Reconfig.settings
val registry : t -> Ftagg_obs.Registry.t

val reconfig : t -> Reconfig.patch -> Reconfig.settings
(** Apply a live patch at a job boundary: queue and cache capacities
    resize immediately, defaults affect future admissions.  Returns the
    new settings. *)

val export_completions : t -> unit
(** Append to the [obs] sink one [job_completed] event per completion
    this process recorded, oldest first, built from the results table:
    [id], [tenant], [digest], [cached], and [outcome] (the outcome
    object, or the error string).  Completions seeded by {!restore} are
    left out.  [ftagg serve --jsonl] calls it once, at exit, so the
    records follow the stream's other events; a second call appends
    them again.  No-op without a sink. *)

val snapshot : t -> Checkpoint.state

val checkpoint_now : t -> string option
(** Write a checkpoint if a path was configured; returns it. *)
