(** Shortest paths, diameter and connectivity on {!Graph.t}. *)

val bfs : Graph.t -> int -> int array
(** [bfs g src] is the array of hop distances from [src]; unreachable or
    removed nodes get [max_int]. *)

val distance : Graph.t -> int -> int -> int option
(** Hop distance, or [None] if disconnected. *)

val eccentricity : Graph.t -> int -> int option
(** Max finite distance from a node to any present node, or [None] if the
    node cannot reach every present node. *)

val diameter : Graph.t -> int option
(** Exact diameter (max pairwise distance) of the subgraph induced by the
    present nodes; [None] if disconnected.  One {!Csr.bfs} from the
    first present node decides connectivity; then bit-parallel BFS over
    a {!Graph.csr} snapshot sweeps the present nodes 63 sources at a
    time, one int of source bits per node, each level expanding only the
    nodes reached in the level before.  O(n·m/63) time and seven n-int
    scratch arrays.  Equal to the largest {!eccentricity}. *)

val is_connected : Graph.t -> bool
(** Whether all present nodes are mutually reachable. *)

val component_of : Graph.t -> int -> int list
(** Sorted list of present nodes reachable from the given node
    (including itself).  Empty if the node is removed. *)

val reachable_from_root : Graph.t -> int list
(** [component_of g Graph.root]. *)
