(** Crash-failure adversary schedules.

    The paper's adversary is *oblivious*: it fixes, before the protocol
    flips any coin, which nodes crash at which round.  A schedule maps each
    node to the first round in which it no longer acts ([never] for nodes
    that survive).  The root never crashes.

    An edge {e fails} iff at least one endpoint crashes; [f] bounds the
    number of edge failures. *)

type t
(** A fixed schedule: node [u] stops acting at round [crash_round u]
    (a message [u] broadcast in round [crash_round u - 1] is still
    delivered — crash means stop, not message loss). *)

val never : int
(** Sentinel round for nodes that never crash. *)

val none : n:int -> t
(** Failure-free schedule. *)

val of_list : n:int -> (int * int) list -> t
(** [of_list ~n [(node, round); ...]].  Crashing the root or a node id out
    of range raises [Invalid_argument]. *)

val of_crash_rounds : int array -> t
(** Wrap a raw crash-round array (index = node, value = crash round,
    [never] for survivors) as a schedule.  The array is copied.  Raises
    [Invalid_argument] if the root's slot is not [never] or any round is
    [< 1].  Inverse of {!crash_rounds} (up to copying); used to
    materialize the schedule an online adversary produced. *)

val to_list : t -> (int * int) list
(** The [(node, round)] pairs of every node that ever crashes, ascending
    by node id — the serializable form, inverse of {!of_list}. *)

val crash_round : t -> int -> int
val crashed_by : t -> round:int -> int list
(** Nodes whose crash round is [<= round]. *)

val crashed_nodes : t -> int list
(** All nodes that ever crash, sorted. *)

val is_alive : t -> node:int -> round:int -> bool
(** Whether the node still acts in the given round. *)

val crash_rounds : t -> int array
(** The schedule's backing array (index = node, value = crash round).
    Exposed for the engine's per-node-per-round liveness test; treat as
    read-only — mutating it changes the schedule. *)

val shift : t -> by:int -> t
(** [shift t ~by] is the schedule as seen by an execution starting [by]
    rounds into the original one: crash rounds are moved earlier by [by],
    clamping at round 1 (already-dead nodes stay dead).  Used to chain
    sequential protocol runs (e.g. SELECTION's repeated COUNTs) under one
    global adversary. *)

val edge_failures : Ftagg_graph.Graph.t -> t -> int
(** Number of edges of the topology incident to at least one crashed
    node — the paper's failure measure [f]. *)

val edge_failures_in_window : Ftagg_graph.Graph.t -> t -> first:int -> last:int -> int
(** Edges whose first incident crash happens in rounds
    [\[first, last\]].  Used to reason about per-interval failure counts in
    Algorithm 1. *)

val pp : Format.formatter -> t -> unit
(** Render as "node@round" pairs, ascending by node id. *)

(** {2 Generators}

    All generators are deterministic functions of their [Prng.t] and stay
    within the requested edge-failure budget. *)

val random : Ftagg_graph.Graph.t -> rng:Ftagg_util.Prng.t -> budget:int -> max_round:int -> t
(** Crash uniformly random non-root nodes at uniformly random rounds in
    [\[1, max_round\]], greedily, while the total edge-failure count stays
    [<= budget]. *)

val burst :
  Ftagg_graph.Graph.t -> rng:Ftagg_util.Prng.t -> budget:int -> round:int -> t
(** Like {!random} but all crashes happen at the same round — the
    concentrated-failure case that defeats a single AGG interval. *)

val kill_nodes : n:int -> nodes:int list -> round:int -> t
(** Crash exactly the given nodes at the given round. *)

val chain : n:int -> first:int -> len:int -> round:int -> t
(** Crash the id-contiguous chain [first, first+len)] at [round].  On path
    or caterpillar topologies (where ids follow the spine) this realises
    the paper's long-failure-chain construction. *)

val neighborhood :
  Ftagg_graph.Graph.t -> center:int -> round:int -> t
(** Crash [center] and its whole neighbourhood (minus the root) at
    [round] — the Figure 3 scenario where a node's flooding dies with it. *)

val high_degree : Ftagg_graph.Graph.t -> budget:int -> round:int -> t
(** Crash the highest-degree non-root nodes (greedily, within the
    edge-failure budget) at [round] — hub-targeted attack. *)

val per_interval :
  Ftagg_graph.Graph.t ->
  rng:Ftagg_util.Prng.t ->
  budget:int ->
  interval_len:int ->
  intervals:int ->
  t
(** Spread crashes so that {e every} interval of [interval_len] rounds
    receives roughly [budget / intervals] edge failures — the
    evenly-spread regime Algorithm 1's analysis assumes, and the
    schedule that stresses every sampled interval equally. *)

val modes : string list
(** The named adversaries of the CLI's [--failures] and a job's
    ["failures"]: [none], [random], [burst], [chain], [neighborhood]. *)

val generate :
  Ftagg_graph.Graph.t -> mode:string -> budget:int -> seed:int -> window:int -> t option
(** A named mode's schedule for a [window]-round run ({!random},
    {!burst}, {!chain} of [min budget (n-2)] nodes from node 1, or the
    {!neighborhood} of node [n/2]); the one-shot modes strike at round
    [max 1 (window / 3)].  [None] for a name not in {!modes}, matched
    case-insensitively. *)
