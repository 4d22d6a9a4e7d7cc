(** Per-run communication/time accounting.

    The paper's CC is the number of bits the *bottleneck* node sends over
    the whole execution; TC is the number of rounds (reported in flooding
    rounds of [d] rounds each by callers). *)

type t

val create : int -> t
(** [create n] for a system of [n] nodes. *)

val charge : t -> node:int -> bits:int -> unit
(** Record a local broadcast of [bits] bits by [node]. *)

val note_round : t -> int -> unit
(** Record that the given round executed (rounds are 1-based). *)

val count_work : t -> visits:int -> steps:int -> unit
(** Add to the round loop's work counts: [visits] (node-rounds the loop
    looked at) and [steps] (calls to the protocol's [step]). *)

val bits_sent : t -> int -> int
(** Total bits broadcast by a node. *)

val msgs_sent : t -> int -> int
(** Number of (non-empty) broadcasts by a node. *)

val cc : t -> int
(** Max bits over all nodes — the paper's communication complexity. *)

val total_bits : t -> int
val rounds : t -> int
(** Number of rounds executed before the run halted. *)

val node_visits : t -> int
(** Node-rounds the round loop visited: every live node every round for
    [Engine.run_reference]; for the sparse loop, only the nodes that had
    mail, were due or held delayed mail.  Host-independent, so benches
    and guards pin it exactly. *)

val node_steps : t -> int
(** Calls to the protocol's [step]: at most [node_visits]; equal on a
    failure-free lossless run of the sparse loop. *)

val relabel : t -> (int -> int) -> unit
(** [relabel m f] moves node [u]'s bit and message counts to node [f u],
    in place, allocating one array of [n]; [f] must be a permutation of
    the node ids.  Rounds and work counts stay.  [Scale_run] maps a run
    on its layout back to the caller's ids with it. *)

val merge_into : t -> t -> unit
(** [merge_into acc m] adds [m]'s bit/message counts, round count and
    work counts into [acc] — sequential composition of executions.  Used
    to account repeated sub-protocol runs (e.g. the COUNT runs of
    SELECTION) as one execution. *)
