(** The VERI protocol (§5, Algorithm 3).

    Runs immediately after an AGG execution (sharing its tree state) and
    decides whether AGG's output can be trusted.  VERI detects {e long
    failure chains} (LFCs): [t] tree-consecutive nodes, in one fragment,
    all failed by the end of AGG, whose tail still has a live local
    descendant at the end of VERI.  Guarantees (Theorems 6–7):

    - TC is [5cd + 3] rounds (≤ 8c flooding rounds) and CC is
      [O((t+1)·log N)] bits (overflow symbol at [(5t+7)(3·logN+10)]);
    - if an LFC exists, VERI outputs [false];
    - with at most [t] edge failures, VERI outputs [true];
    - in between (more than [t] failures but no LFC) VERI may err in
      either direction — the one-sided error that makes it cheap.

    Three phases: failed-parent detection ([2cd+1] rounds, root floods a
    liveness bit downstream), failed-child detection ([2cd+1] rounds,
    leaves flood a liveness bit that percolates upstream), and LFC
    determination by the same witnesses AGG used ([cd+1] rounds). *)

type node

val duration : Params.t -> int
(** Rounds in one execution: [5cd + 3]. *)

val create : Params.t -> me:int -> from_agg:Agg.node -> node
(** Fresh VERI state over the given AGG instance at the same node.  VERI
    reads that instance's tree information (activation, parent,
    children, level, ancestors, max level, critical failures) in place,
    so it may be created before AGG runs; AGG must have finished by
    VERI's first {!step}. *)

val step : node -> rr:int -> inbox:(int * Message.body) list -> Message.body list

val wake : node -> round:int -> int
(** The node's next action round after [round], in the sense of
    {!Ftagg_sim.Engine.protocol}'s [wake]: [round + 1] while a flood is
    queued; [max_int] for a node AGG never activated; otherwise the
    smallest above [round] of the failed-parent check [level + 1]
    (mandatory even with an empty inbox: a silent parent is what it
    detects), the failed-child beat [3cd + 2 − level], the determination
    round [4cd + 3] and, at the root, {!duration} for the verdict.  It
    depends only on AGG's tree, so it is VERI's schedule also while AGG
    still runs. *)

val root_verdict : node -> bool
(** The root's output; meaningful once [rr = duration] has executed. *)
