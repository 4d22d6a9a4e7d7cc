(** Metric registry: named counters, gauges and histograms with labelled
    series.

    A registry is a flat table of time series.  A series is identified by a
    metric name plus a (possibly empty) list of [(key, value)] labels —
    labels are canonicalized (sorted by key) so the caller's order never
    matters.  Three metric kinds:

    - {b counters}: monotone integer totals ([incr]);
    - {b gauges}: last-written float values ([set_gauge]);
    - {b histograms}: float observations bucketed on a log2 scale
      ([observe]) — bucket [i] holds observations in [(2^(i-1), 2^i]]
      (bucket 0 holds everything ≤ 1), which fits bit counts and
      latencies whose interesting structure spans orders of magnitude.

    Instrumentation cost when telemetry is off: every mutator checks the
    global {!enabled} flag first and returns — one atomic load, no
    allocation, no hashing.  The flag is process-wide ({!set_enabled});
    per-run opt-in is the [?obs] argument of the engine entry points.

    Thread-safety: a registry is {e not} synchronized.  The intended
    multicore pattern is one private registry per domain, merged
    afterwards ({!merge_into}, [Sweep_obs.map]); merging is deterministic
    in merge order, matching [Sweep]'s results-in-input-order contract. *)

type t

val set_enabled : bool -> unit
(** Process-wide kill switch for all telemetry (default: enabled).
    When disabled, registry mutators, [Span] operations and [Obs] hooks
    are no-ops. *)

val enabled : unit -> bool

val create : unit -> t

(** {2 Mutators}

    All mutators create the series on first use.  Re-using one series
    name with two different metric kinds raises [Invalid_argument]. *)

val incr : t -> ?labels:(string * string) list -> string -> int -> unit
(** [incr t name k] adds [k] to the counter.  [k] must be ≥ 0. *)

val set_gauge : t -> ?labels:(string * string) list -> string -> float -> unit

val observe : t -> ?labels:(string * string) list -> string -> float -> unit
(** Record one observation into the histogram series. *)

(** {2 Reading} *)

type hist = {
  h_count : int;
  h_sum : float;
  h_min : float;  (** meaningless when [h_count = 0] *)
  h_max : float;
  h_buckets : (float * int) list;
      (** [(upper_bound, count)] per {e non-empty} bucket, ascending;
          bounds are powers of two (non-cumulative counts). *)
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of hist

val percentile : hist -> float -> float
(** [percentile h p] estimates the [p]-th percentile ([0 <= p <= 100])
    from the log2 buckets: the bucket containing the target rank
    [p/100 · h_count] is found and the estimate interpolated linearly
    between its bounds, clamped into [\[h_min, h_max\]].  A rank landing
    exactly on a bucket boundary reports the bucket's upper bound, so
    power-of-two observations are recovered exactly; [p = 0] is [h_min]
    and [p = 100] is [h_max].  Monotone in [p] by construction
    (p90 ≤ p95 ≤ p99 ≤ p100 — pinned by a qcheck property in
    [test/test_obs.ml]).  Raises [Invalid_argument] on an empty
    histogram or [p] outside [\[0, 100\]]. *)

val counter : t -> ?labels:(string * string) list -> string -> int
(** Counter value; [0] when the series does not exist. *)

val histogram : t -> ?labels:(string * string) list -> string -> hist option
(** Histogram snapshot; [None] when the series does not exist (or is not
    a histogram).  The read side of {!observe} — feed it to
    {!percentile} for the latency/bandwidth curves the scenario runner
    reports. *)

val gauge : t -> string -> float option
(** The unlabelled gauge's value; [None] when the series does not exist
    (or is not a gauge). *)

val series : t -> (string * (string * string) list * value) list
(** Every series, sorted by (name, labels): the deterministic dump the
    exporters and [ftagg stats] render. *)

val counter_series : t -> string -> ((string * string) list * int) list
(** All counter series under one metric name, sorted by labels. *)

val merge_into : into:t -> t -> unit
(** Fold a registry into [into]: counters and histograms add, gauges take
    the merged-in value (last write wins, so merging in input order keeps
    the result deterministic).  Kind mismatches raise [Invalid_argument]. *)
