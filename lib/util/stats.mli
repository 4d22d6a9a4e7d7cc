(** Small descriptive-statistics helpers for the benchmark harness. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  median : float;
  p90 : float;  (** 90th percentile (nearest-rank) *)
}

val summarize : float list -> summary
(** Summary of a non-empty sample. *)

val mean : float list -> float
val max_int_list : int list -> int
val percentile : float -> float list -> float
(** [percentile p xs] is the nearest-rank [p]-percentile ([0 <= p <= 100])
    of a non-empty sample. *)
