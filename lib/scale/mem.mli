(** Memory metering for scale runs.

    A meter samples the live major-heap size every [check_every] rounds
    (at the round barrier, so it never races the worker domains), tracks
    the peak, publishes gauges through [lib/obs], and — when a ceiling is
    configured — raises {!Ceiling_exceeded} instead of letting the
    process OOM.  The exception propagates through the executor's normal
    abort path (workers stopped and joined), so a run that hits the
    ceiling fails cleanly.

    Gauges (published when a registry is attached and telemetry is
    enabled): [scale_live_bytes], [scale_bytes_per_node],
    [scale_peak_live_bytes], and after {!finish} also
    [scale_peak_rss_kb] (Linux only).

    The live figure is [Gc.quick_stat] major-heap words — cheap (no heap
    walk) and a slight undercount (minor heap and malloc'd bigarrays are
    not included), which is the right bias for a sampling ceiling; the
    OS-level [peak_rss_kb] complements it for reporting. *)

type t

exception
  Ceiling_exceeded of {
    limit_bytes : int;
    live_bytes : int;
    round : int;  (** the round whose barrier tripped the check *)
  }

val create : ?registry:Ftagg_obs.Registry.t -> ?limit_bytes:int -> ?check_every:int -> n:int -> unit -> t
(** [check_every] defaults to 32 (rounds between samples); [n] is the
    node count behind the bytes/node gauge. *)

val live_bytes : unit -> int
(** Current major-heap size in bytes ([Gc.quick_stat] words × word
    size). *)

val peak_rss_kb : unit -> int option
(** The process's peak resident set size ([VmHWM] from
    [/proc/self/status]); [None] off Linux. *)

val check : t -> round:int -> unit
(** Sample if [round] is a multiple of [check_every]: update the peak,
    publish gauges, raise {!Ceiling_exceeded} past the limit.  Call from
    the coordinator at the round barrier. *)

val finish : t -> unit
(** Force a final sample (without the ceiling check — the run is over)
    and publish the peak gauges including [scale_peak_rss_kb]. *)

val peak_live_bytes : t -> int
(** Highest live-byte sample seen so far. *)
