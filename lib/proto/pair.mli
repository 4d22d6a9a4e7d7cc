(** One AGG execution immediately followed by one VERI execution — the
    unit Algorithm 1 schedules inside each selected interval.

    Duration is [12cd + 7] rounds, within the [19·cd] rounds of an
    interval ([19c] flooding rounds, Theorems 3 and 6). *)

type node

type verdict = {
  result : Agg.result;
  veri_ok : bool;
}
(** Algorithm 1 accepts iff [result = Value _ && veri_ok]. *)

val duration : Params.t -> int

val create : ?ablation:Agg.ablation -> Params.t -> me:int -> node

val step : node -> rr:int -> inbox:(int * Message.body) list -> Message.body list

val wake : node -> round:int -> int
(** The pair's schedule, in the sense of {!Ftagg_sim.Engine.protocol}'s
    [wake]: before AGG's last round, the earlier of {!Agg.wake} and
    VERI's first action round ({!Veri.wake}, shifted by
    [Agg.duration]); from then on {!Veri.wake}, shifted. *)

val protocol :
  ?ablation:Agg.ablation -> Params.t -> (node, Message.body) Ftagg_sim.Engine.protocol
(** One pair as an engine protocol: execution round = engine round, raw
    bodies charged by [Message.bits], no early halt (run it for
    {!duration} rounds), and {!wake} as its schedule. *)

val root_verdict : node -> verdict
(** Meaningful once [rr = duration] has executed at the root. *)

val agg : node -> Agg.node
