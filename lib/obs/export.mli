(** Render a telemetry sink to the three export formats.

    - {b JSONL}: one JSON object per line — a [run] header, then the
      event stream in order, then one [span] record per span.  The
      append-friendly format for piping and [grep]/[jq].
    - {b Chrome [trace_event]}: a single JSON object loadable in
      Perfetto / [chrome://tracing].  One "process" per node, one
      "thread" per phase name; spans become complete ([ph = "X"])
      events on a synthetic clock of 1 round = 1 ms (wall-clock and bit
      totals ride along in [args]).  The round clock, not wall-clock,
      keeps traces deterministic and visually aligned across nodes.
    - {b Prometheus text}: the registry as
      [# TYPE]-annotated counter/gauge/histogram lines, cumulative
      [_bucket{le="..."}] series included.

    All JSON goes through {!Ftagg_runner.Bench_io}, so every export is
    parseable by the in-repo reader (CI checks this). *)

val jsonl : Obs.t -> string

val chrome_trace : Obs.t -> Ftagg_runner.Bench_io.json
(** The [{"traceEvents": [...], ...}] object. *)

val prometheus : Registry.t -> string

val write_jsonl : path:string -> Obs.t -> unit
val write_chrome_trace : path:string -> Obs.t -> unit
(** Write the Chrome trace (indented, Perfetto-loadable) to [path]. *)
