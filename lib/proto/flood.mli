(** The paper's flooding primitive.

    A node {e floods} a message by broadcasting it; every other node
    forwards it on first receipt and drops duplicates (same content ⇒ not
    forwarded again).  Each protocol execution keeps one {!t} per node: a
    seen-set plus an outbox of bodies to forward in the current round.
    The seen-set is a short list until it outgrows a small fixed size,
    then a hash table, so a fresh {!t} holds no table. *)

type 'body t

val create : unit -> 'body t

val receive : 'body t -> 'body -> bool
(** Process an incoming flooded body.  Returns [true] (and queues the body
    for forwarding) exactly on first receipt. *)

val originate : 'body t -> 'body -> bool
(** Start a flood from this node.  Returns [false] (and does nothing) if
    an identical body was already seen — matching the dedup rule. *)

val seen : 'body t -> 'body -> bool
(** Whether the body was received or originated here (structural
    equality). *)

val pending : 'body t -> bool
(** [true] iff the outbox holds bodies queued for forwarding. *)

val drain : 'body t -> 'body list
(** Bodies to broadcast this round (in queue order); empties the outbox. *)

val fold_seen : ('body -> 'acc -> 'acc) -> 'body t -> 'acc -> 'acc
(** Fold over every seen body once, in no particular order. *)
