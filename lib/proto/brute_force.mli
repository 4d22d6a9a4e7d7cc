(** The brute-force SUM baseline (§1): the root floods a start bit and
    every node floods its id together with its input; the root adds up the
    distinct contributions it hears.

    Tolerates any number of failures with TC [2cd + 1] rounds (≤ [2c]
    flooding rounds, counting the root's output round) and CC
    [O(N·log N)] — every node may forward all [N] value floods.  It is
    both a standalone baseline (the [b = O(1)] point of Figure 1) and the
    fallback of Algorithm 1's last [2c] flooding rounds. *)

type node

val duration : Params.t -> int
(** [2cd + 1]. *)

val create : Params.t -> me:int -> node

val step : node -> rr:int -> inbox:(int * Message.body) list -> Message.body list

val wake : node -> round:int -> int
(** The node's schedule, in the sense of {!Ftagg_sim.Engine.protocol}'s
    [wake]: [round + 1] while a flood is queued; the root's start round
    [1] and output round {!duration}; [max_int] for every other node,
    which mail wakes. *)

val protocol : Params.t -> (node, Message.body) Ftagg_sim.Engine.protocol
(** The standalone baseline as an engine protocol: execution round =
    engine round, raw bodies charged by [Message.bits], no early halt
    (run it for {!duration} rounds), and {!wake} as its schedule. *)

val root_result : node -> int
(** Aggregate of the root's own input and every distinct flooded value
    received; meaningful once [rr = duration] has executed. *)
