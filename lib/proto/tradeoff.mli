(** Algorithm 1 — the near-optimal communication-time tradeoff protocol
    (Theorem 1).

    Given a TC budget of [b] flooding rounds ([b >= 21c]) and a failure
    budget [f], the first [b − 2c] flooding rounds are divided into
    [x = ⌊(b−2c)/19c⌋] intervals of [19c] flooding rounds.  The root
    privately samples [log N] intervals (with replacement); in each
    selected interval it runs one AGG+VERI pair with [t = ⌊2f/x⌋] and
    terminates with AGG's result as soon as a pair ends with no abort and
    a [true] verdict.  If every sampled interval fails (probability
    [≤ 1/N]), the last [2c] flooding rounds run the brute-force protocol.

    Expected CC: [O((f/b·logN + logN) · min(b, f, logN))]
    [= O(f/b·log²N + log²N)]; TC ≤ [b·d] rounds; the output is always a
    correct aggregate. *)

type node

type how =
  | Via_pair of int
      (** accepted in the execution with this tag (under Algorithm 1's
          plan, the interval index) *)
  | Via_brute_force

type strategy =
  | Sampled  (** the paper's Algorithm 1: log N random intervals *)
  | Sequential
      (** derandomized ablation: scan intervals 1, 2, 3, … until one
          succeeds.  Still always correct, but the adversary can dirty
          up to ~x/2 consecutive intervals with its budget, driving CC
          back up to O(f·log N) — the experiment that shows what the
          private-coin sampling buys (bench E15). *)

type plan = {
  params : Params.t;
      (** sizes the intervals, parameterises the fallback and charges
          [Message.msg_bits] *)
  starts : Ftagg_util.Prng.t -> int list;
      (** the root's start tags, ascending and distinct, drawn from its
          private coins; pair [y] starts at global round
          [(y − 1)·19cd + 1] and carries execution tag [y] *)
  pair_params : int -> Params.t;  (** each tag's pair parameters *)
  fallback : int;  (** the brute-force start round *)
  spans : bool;
      (** open a [tradeoff/interval#y] span per execution and a
          [tradeoff/brute_force] phase *)
}
(** One schedule of AGG+VERI pairs in [19c]-flooding-round intervals
    followed by a brute-force fallback.  The root starts the planned
    tags; every other node joins an execution on its first
    tree_construct.  The root outputs the first pair that ends with no
    abort and a [true] verdict, or else the fallback's value.
    [Pair.duration] and [Message.bits] do not depend on [t], so a
    pair's expiry and accept rounds are the same under every plan. *)

val drive : plan -> (node, Message.t) Ftagg_sim.Engine.protocol
(** The interval driver for a plan as an engine protocol, halting once
    the root has output.  Its [wake] is the root's next start tag and
    fallback round, the current pair's {!Pair.wake} and expiry round,
    and the fallback's {!Brute_force.wake}, in global rounds; an idle
    non-root node waits for mail. *)

val protocol :
  ?strategy:strategy ->
  Params.t ->
  b:int ->
  f:int ->
  (node, Message.t) Ftagg_sim.Engine.protocol
(** Algorithm 1: {!drive} on the plan with the [x] intervals chosen per
    [strategy], every pair at [t = ⌊2f/x⌋], the fallback in the last
    [2c] flooding rounds, and spans.  [b] in flooding rounds; raises
    [Invalid_argument] if [b < 21c] or [f < 0].  The [t] field of the
    given params is ignored.  Default strategy: [Sampled]; only the root
    draws from its private coins, and only under [Sampled]. *)

val max_rounds : Params.t -> b:int -> int
(** [b·d] — pass to the engine. *)

val intervals : Params.t -> b:int -> int
(** [x = ⌊(b−2c)/19c⌋]. *)

val pair_t : Params.t -> b:int -> f:int -> int
(** [⌊2f/x⌋] — the per-interval tolerance. *)

val interval_len : Params.t -> int
(** [19cd] rounds. *)

val root_done : node -> bool
(** Whether the root has output — the driver halts once it has. *)

val root_result : node -> int
val root_how : node -> how
