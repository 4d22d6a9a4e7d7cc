(** A memory layout for scale runs: the caller's graph renumbered so a
    round walks memory in order.

    AGG is a sequence of waves from the root (tree construction, the
    convergecast, the speculative flood), and since rounds cost
    O(traffic) a scale round touches about one BFS shell.  Under a
    generator's labels that shell is scattered across every per-node
    array (states, wake rounds, crash rounds, in-flight slots, metrics,
    CSR rows).  {!make} renumbers the nodes in BFS order from the root,
    so within each partition a shell is a run of consecutive ids:

    - The root keeps id 0.
    - The BFS order is dealt round-robin over the
      [Executor.partitions ~n ~domains] ranges, skipping a range once it
      is full, so every partition holds its share of each BFS level, in
      level order.  Plain BFS order would put a whole shell into one
      partition, and one domain would do the round's work alone.
    - Nodes the BFS does not reach follow, ascending.
    - A node's new row lists the new ids of its neighbours in the order
      of its source row.

    Keeping each row in its source order keeps each inbox in its source
    order.  A run of a protocol whose nodes ignore their per-node [rng]
    (AGG and the AGG+VERI pair draw no coins; Algorithm 1 draws only at
    the root, whose stream is the first split under either numbering)
    is therefore the isomorphic image of the run on the caller's ids:
    the same parent tie-breaks, crashes, rounds and bits, node by node.
    [Scale_run.agg] runs on it. *)

type t = private {
  graph : Bigraph.t;  (** the renumbered CSR *)
  caller_id : Bigraph.ints;  (** [caller_id.{v}]: the caller's id for layout node [v] *)
}

val make : Bigraph.t -> domains:int -> t
(** One BFS ([Csr.bfs]) and one O(n + m) gather ([Csr.renumber]): no
    sort and no validation.  Besides the renumbered CSR it allocates
    two id arrays, which hold the BFS distances and queue until they
    are overwritten; [caller_id] is one of them.  Raises
    [Invalid_argument] unless [domains >= 1]. *)
