(** The fleet-aware client: consistent-hash fan-out of a job workload
    over N server endpoints, with failover to ring successors when an
    endpoint dies mid-run and one merged report at the end.

    Each endpoint is driven through {!Ftagg_transport.Client.session}
    (reconnects, jittered backoff, idempotent resubmit); without a
    [pump] every endpoint of a routing round runs on its own domain, so
    the fan-out is as parallel as the fleet is wide. *)

type report = {
  r_jobs : int;
  r_completed : int;  (** jobs that got a completion response *)
  r_failed : int;  (** jobs no endpoint ever answered *)
  r_errors : int;  (** completions whose outcome is an error, plus refusals *)
  r_cached : int;  (** completions served from a cache (L1 or store) *)
  r_rounds : int;  (** routing rounds (1 = no failover was needed) *)
  r_failovers : int;  (** jobs re-routed after an endpoint died *)
  r_reconnects : int;
  r_per_endpoint : (string * int) list;  (** completions per endpoint *)
  r_cache_hits : int;  (** summed over surviving endpoints *)
  r_cache_misses : int;
  r_completions : (int * Ftagg_runner.Bench_io.json) list;
      (** input job index → its completion object, in index order *)
}

val report_to_json : report -> Ftagg_runner.Bench_io.json

val run :
  ?token:string ->
  ?tenant:string ->
  ?retry:Ftagg_transport.Client.retry ->
  ?pump:(unit -> unit) ->
  endpoints:string list ->
  jobs:Ftagg_runner.Bench_io.json list ->
  unit ->
  (report, string) result
(** Fan [jobs] (job JSON objects, as in the [submit] op) out over
    [endpoints] (address strings, ["unix:PATH"] or ["tcp:HOST:PORT"]).
    Placement is by {!Ring} (its default vnodes and seed) on the
    client-computed content digest, so every fleet member routes
    identically.  Endpoints whose session exhausts its retries are
    marked down and their unanswered jobs re-routed to ring successors,
    up to 4 rounds.  With [pump] the endpoints are driven sequentially
    on the calling thread (deterministic, for in-process listeners);
    without it each endpoint gets its own domain. *)
