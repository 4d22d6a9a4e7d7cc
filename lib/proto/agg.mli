(** The AGG protocol (§4, Algorithm 2).

    A deterministic aggregation protocol parameterised by [t >= 0] (the
    number of edge failures it intends to tolerate) with time complexity
    [7cd + 4] rounds (≤ 11c flooding rounds) and communication complexity
    [O((t+1)·log N)] bits per node.  Guarantees (Theorems 3–5):

    - with at most [t] edge failures it never aborts and outputs a
      correct result;
    - with no long failure chain it outputs a correct result or aborts;
    - a node floods the abort symbol once it has sent
      [(11t+14)(log N+5)] bits, bounding CC under arbitrary failures.

    Four sequential phases: tree construction ([2cd+1] rounds, each node
    learning its nearest [2t] ancestors), tree aggregation with critical-
    failure floods ([2cd+1]), speculative flooding of potentially blocked
    partial sums ([2cd+1]), and witness-based partial-sum selection
    ([cd+1]).

    The state machine runs on {e execution-relative} rounds [rr = 1, 2,
    ...] so callers (the standalone runner, and Algorithm 1 which embeds
    one instance per selected interval) control placement in global time. *)

type node
(** Per-node mutable protocol state for one AGG execution. *)

type result =
  | Value of int  (** the selected representative-set aggregate *)
  | Aborted  (** the special abort symbol reached the root *)

type ablation =
  | Full  (** the paper's protocol *)
  | No_speculation
      (** nodes flood their partial sum only after {e observing} for one
          extra flooding round that their parent's flooding is absent —
          too slow to fit the phase, so blocked sums are simply lost;
          quantifies why §4.2's speculation is needed *)
  | No_witnesses
      (** every flooded partial sum is accepted by the root with no
          domination analysis — demonstrates the double counting §4.3
          prevents *)

val duration : Params.t -> int
(** Rounds in one execution: [7cd + 4]. *)

val create : ?ablation:ablation -> Params.t -> me:int -> node

val step : node -> rr:int -> inbox:(int * Message.body) list -> Message.body list
(** Advance one round.  [inbox] carries (physical sender, body) pairs
    delivered this round; the return value is this node's broadcast. *)

val wake : node -> round:int -> int
(** The node's next action round after [round], in the sense of
    {!Ftagg_sim.Engine.protocol}'s [wake]: [round + 1] while a flood is
    queued, else the smallest of the node's scheduled rounds (sending its
    tree_construct, aggregating, speculative flooding, selection, and the
    root's output) above [round], or [max_int].  An empty-inbox {!step}
    in any other round returns [[]] and changes nothing. *)

val protocol :
  ?ablation:ablation ->
  Params.t ->
  (node, Message.body) Ftagg_sim.Engine.protocol
(** One AGG execution as an engine protocol: execution round = engine
    round, raw bodies charged by [Message.bits], no early halt (run it
    for {!duration} rounds), and {!wake} as its schedule. *)

val root_result : node -> result
(** The root's output; meaningful once [rr = duration] has executed. *)

(** {2 Introspection} — consumed by VERI and by the ground-truth checker. *)

val activated : node -> bool

val level : node -> int
(** [-1] if never activated. *)

val parent : node -> int
(** [-1] for the root or a never-activated node. *)

val children : node -> int list

val ancestor : node -> int -> int
(** [ancestor a i]: slot [i] of the node's nearest-[2t] ancestor array;
    slot 0 = self, [-1] = undefined. *)

val ancestor_index : node -> bound:int -> int -> int option
(** The slot of the given id among slots [0 .. bound], if any. *)

val boundary_index : node -> int option
(** The smallest slot in [0 .. 2t] holding the root or a critical
    failure this node saw (the fragment boundary), if any. *)

val max_level : node -> int
val psum : node -> int

val saw_crit : node -> int -> bool
(** Whether this node saw the critical failure of the given id. *)

val selected_sources : node -> int list
(** Root only: sources whose partial sums entered the output. *)

val aborted : node -> bool
