(** Shortest paths, diameter and connectivity on {!Graph.t}. *)

val bfs : Graph.t -> int -> int array
(** [bfs g src] is the array of hop distances from [src]; unreachable
    nodes get [max_int]. *)

val eccentricity : Graph.t -> int -> int option
(** Max distance from a node to any node, or [None] if the node cannot
    reach every node. *)

val diameter : Graph.t -> int option
(** Exact diameter (max pairwise distance); [None] if disconnected.
    {!is_connected} decides connectivity; then bit-parallel BFS over the
    graph's rows sweeps the nodes 63 sources at a time, one int of
    source bits per node, each level expanding only the nodes reached in
    the level before.  O(n·m/63) time and seven n-int scratch arrays, two of them
    the connectivity search's.
    Equal to the largest {!eccentricity}. *)

val is_connected : Graph.t -> bool
(** Whether every node is reachable from the root: one {!Csr.bfs}. *)

val component_of : Graph.t -> int -> int list
(** Sorted list of the nodes reachable from the given node (including
    itself). *)

val reachable_from_root : Graph.t -> int list
(** [component_of g Graph.root]. *)
