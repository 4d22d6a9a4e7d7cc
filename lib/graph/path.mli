(** Shortest paths, diameter and connectivity on {!Graph.t}. *)

val bfs : Graph.t -> int -> int array
(** [bfs g src] is the array of hop distances from [src]; unreachable
    nodes get [max_int]. *)

val eccentricity : Graph.t -> int -> int option
(** Max distance from a node to any node, or [None] if the node cannot
    reach every node. *)

val diameter : Graph.t -> int option
(** Exact diameter (max pairwise distance); [None] if disconnected.
    One {!Csr.bfs} from the root decides connectivity.  Then iFUB
    (Crescenzi, Grossi, Habib, Lanzi and Marino, TCS 2013): two double
    sweeps give a lower bound and a centre [u], the node with the
    smallest largest distance to the four sweep sources, and
    bit-parallel BFS sweeps the nodes 63 sources at a time, deepest
    first from [u].  It stops once the largest eccentricity found
    reaches twice the level of the next unswept node.  The cost is five
    BFS plus the batches of that fringe: one batch on a path, tree,
    caterpillar or grid, the clique's nodes on a lollipop, none on a
    star.  On expanders and complete graphs the fringe is most of the
    graph, and the cost stays O(n·m/63).  A graph of at most 63 nodes
    is one batch of every node, with no sweep.  At most eight n-int
    scratch arrays.  Equal to the largest {!eccentricity}. *)

val is_connected : Graph.t -> bool
(** Whether every node is reachable from the root: one {!Csr.bfs}. *)
