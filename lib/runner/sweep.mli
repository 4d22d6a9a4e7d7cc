(** Multicore sweep runner.

    Fans independent jobs (typically one simulation per seed or per
    parameter point) across a bounded pool of domains.  Results always
    come back in input order, regardless of which domain ran which job,
    so a sweep is a drop-in replacement for [List.map].

    Jobs must be {e independent}: they run concurrently on separate
    domains, so each should build its own PRNG / mutable state from its
    input (the simulation entry points in [Run] already do — every run
    derives everything from its [seed]).  Nothing here synchronises
    access to shared mutable data. *)

exception Job_failed of int * exn
(** Raised by {!map} when a job raises: the input index of the
    earliest failing job, paired with its exception.  Remaining jobs are
    abandoned (never started) once a failure is observed — the fail-fast
    contract benches and sweeps want.  Long-lived callers that must keep
    going (the service scheduler) use {!map_results} instead, which never
    raises and never abandons. *)

val default_domains : unit -> int
(** Pool size used when [?domains] is omitted:
    [Domain.recommended_domain_count () - 1] clamped to [1, 8]. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs] is [List.map f xs] computed on up to [domains]
    domains (including the calling one).  Raises [Invalid_argument] if
    [domains < 1]. *)

val map_results : ?domains:int -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** [map_results ~domains f xs] runs every job to completion regardless
    of other jobs' failures: slot [i] holds [Ok (f x_i)] or [Error e] if
    that job raised.  Results in input order; never raises [Job_failed].
    Raises [Invalid_argument] if [domains < 1]. *)

val map_seeds : seeds:int list -> (int -> 'a) -> 'a list
(** [map_seeds ~seeds f] — {!map} with the conventional argument order
    for per-seed simulation sweeps. *)
