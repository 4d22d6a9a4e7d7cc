(** The doubling-trick extension for unknown [f] (abstract / full version
    of the paper).

    The conference text only states the property: when [f] is not known,
    the protocol can be run with geometrically growing guesses at the cost
    of one extra [log N] factor in CC, and its overhead then tracks the
    {e actual} number of failures — an early-termination property.  This
    module is our reconstruction: slot [g = 0, 1, 2, ...] runs one
    AGG+VERI pair with [t = 2^g] in its own [19c]-flooding-round window,
    accepting the first pair that ends with no abort and a [true]
    verdict.  An adversary must spend more than [2^g] edge failures
    {e inside} slot [g] to defeat it, so the protocol terminates by slot
    [⌈log₂(f_actual+1)⌉] and its CC is [O(f_actual·log N + log²N)]. *)

type node = Tradeoff.node
(** The interval driver's node. *)

type how =
  | Via_slot of int  (** accepted in slot [g] (i.e. with [t = 2^g]) *)
  | Via_brute_force

val slots : Params.t -> int
(** Number of doubling slots: [⌈log₂ N⌉ + 1] (a [t >= N] pair tolerates
    anything the model allows). *)

val max_rounds : Params.t -> int
(** Slots plus the brute-force fallback window. *)

val protocol : Params.t -> (node, Message.t) Ftagg_sim.Engine.protocol
(** {!Tradeoff.drive} on the doubling plan: every slot [g] is planned
    (execution tag [g + 1], [t = 2^g], starting at round [g·19cd + 1]),
    the brute-force fallback starts at [slots·19cd + 1], and no spans
    are opened.  The [t] field of the params is ignored. *)

val root_result : node -> int
val root_how : node -> how
