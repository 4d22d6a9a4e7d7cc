(** Immutable undirected graphs over integer node ids [0 .. n-1], stored
    as the engine's flat adjacency ({!Csr}): a graph is built once and
    every reader (the round loops, the checker, path queries, the
    failure generators) walks the same rows.

    Node [0] is, by convention throughout the library, the aggregation
    root (the base station / gateway of the paper's motivating systems). *)

type t = Csr.t

val root : int
(** The distinguished root id (always [0]). *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds a graph on [n] nodes.  Self-loops are
    rejected; duplicate edges are collapsed.  Raises [Invalid_argument]
    on out-of-range endpoints. *)

val of_iter : n:int -> ((int -> int -> unit) -> unit) -> t
(** [of_iter ~n iter] builds a graph from a streamed edge emission:
    [iter emit] must call [emit u v] once per edge.  Same validation and
    dedup as {!of_edges} with no intermediate list: {!Csr.of_iter} with
    this module's error messages. *)

val n : t -> int
(** Number of nodes. *)

val num_edges : t -> int

val neighbors : t -> int -> int list
(** Node [u]'s row, in row order: ascending on a graph built by
    {!of_edges} or {!of_iter}, the source row's order on a
    {!Csr.renumber}ed one. *)

val degree : t -> int -> int

val has_edge : t -> int -> int -> bool
(** Whether [u] and [v] are adjacent: a linear scan of the shorter of
    the two rows, so it holds on rows in any order.  [false] when either
    id is out of range. *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** [iter_edges g f] calls [f u v] once per edge, [u < v], ascending by
    [u] and, within [u], in row order (ascending by [v] unless the graph
    was {!Csr.renumber}ed). *)

val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the edges in {!iter_edges} order. *)

val pp : Format.formatter -> t -> unit

val to_dot : ?name:string -> t -> string
(** Graphviz rendering, edges in {!iter_edges} order; the root is drawn
    as a double circle. *)
