(** Tree-based baselines: naive TAG aggregation and the folklore
    fault-tolerant retry protocol (§1).

    Each {e epoch} is a fresh spanning-tree construction ([2cd+1] rounds)
    followed by a tree aggregation ([cd+1] rounds).  During aggregation a
    node forwards its partial sum upstream only if {e every} child
    delivered on schedule; a missed beat makes it withhold, and the
    withhold cascades to the root, which then knows the epoch was dirty
    and retries.  Each dirty epoch consumes at least one fresh node crash
    (≥ 1 fresh edge failure), so at most [f] epochs are dirty and epoch
    [f+1] succeeds: TC [O(f)] flooding rounds and CC [O(f·log N)] — the
    folklore point of Figure 1.

    [Naive] mode runs a single epoch with no withholding and outputs
    whatever reached the root — the classical TAG aggregation [12], which
    is {e not} fault-tolerant and may return an incorrect result.  It
    exists as the motivating baseline. *)

type mode =
  | Naive  (** one epoch, no failure handling, output unconditionally *)
  | Retry of int  (** retry up to the given number of epochs ([>= 1]);
                      pass [f + 1] for the folklore guarantee *)

type node

type result =
  | Value of int
  | No_clean_epoch  (** [Retry] exhausted its epochs without a clean run *)

val epoch_duration : Params.t -> int
(** [3cd + 2]. *)

val duration : Params.t -> mode -> int
(** [epoch_duration × number of epochs]. *)

val create : Params.t -> mode:mode -> me:int -> node

val step : node -> rr:int -> inbox:(int * Message.t) list -> Message.t list
(** Unlike the single-execution protocols this one speaks tagged
    {!Message.t} values directly: the epoch number is the execution tag. *)

val root_result : node -> result
val root_done : node -> bool
(** Whether the root has already accepted an epoch (enables early halt). *)

val protocol : Params.t -> mode:mode -> (node, Message.t) Ftagg_sim.Engine.protocol
(** The protocol as an engine protocol, halting once the root has
    accepted ({!root_done}); drive it for {!duration} rounds. *)

val epochs_used : node -> int
