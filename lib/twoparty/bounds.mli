(** Closed-form bound evaluators — the curves of Figure 1 and the §7
    theorem statements, used by the benchmark harness to plot measured
    values against the paper's asymptotics (constants set to 1). *)

val log2 : float -> float

val sum_upper_bound : n:int -> f:int -> b:int -> float
(** Theorem 1: [(f/b·log N + log N) · min(b, f, log N)] bits.  [f] is
    clamped to [>= 1] (the theorem's stated range). *)

val sum_lower_bound : n:int -> f:int -> b:int -> float
(** Theorem 2: [f/(b·log b) + log N / log b] bits ([b >= 2]). *)

val brute_force_cc : n:int -> float
(** [N·log N] — the brute-force baseline (TC [O(1)]). *)

val folklore_cc : n:int -> f:int -> float
(** [f·log N] — the folklore baseline (TC [O(f)]). *)

val unionsize_upper : n:int -> q:int -> float
(** [n/q·log n + log q] (from [4]). *)

val unionsize_lower : n:int -> q:int -> float
(** Theorem 12: [n/q − log n] (clamped at 0). *)
