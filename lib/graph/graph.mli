(** Immutable undirected graphs over integer node ids [0 .. n-1].

    Node [0] is, by convention throughout the library, the aggregation
    root (the base station / gateway of the paper's motivating systems). *)

type t

val root : int
(** The distinguished root id (always [0]). *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds a graph on [n] nodes.  Self-loops are
    rejected; duplicate edges are collapsed.  Raises [Invalid_argument]
    on out-of-range endpoints. *)

val of_iter : n:int -> ((int -> int -> unit) -> unit) -> t
(** [of_iter ~n iter] builds a graph from a streamed edge emission:
    [iter emit] must call [emit u v] once per edge.  Same validation and
    dedup as {!of_edges} with no intermediate list — the shared edge
    source of [Gen.iter_edges] and [Scale.Bigraph]. *)

val n : t -> int
(** Number of nodes. *)

val num_edges : t -> int

val neighbors : t -> int -> int list
(** Sorted adjacency list. *)

val degree : t -> int -> int

val has_edge : t -> int -> int -> bool

val iter_edges : t -> (int -> int -> unit) -> unit
(** [iter_edges g f] calls [f u v] once per present edge, [u < v],
    ascending by [u] then [v]. *)

val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over present edges in {!iter_edges} order. *)

val fold_nodes : (int -> 'a -> 'a) -> t -> 'a -> 'a

val remove_nodes : t -> int list -> t
(** Graph with the given nodes (and their incident edges) deleted.  Ids
    are preserved; removed nodes become isolated and are excluded from
    [neighbors]/[iter_edges].  Used to model crashed nodes. *)

val mem : t -> int -> bool
(** Whether the node is present (not removed). *)

val csr : t -> Csr.t
(** Snapshot the present subgraph as the engine's flat adjacency, taken
    once per run and read with zero allocation (the set-backed
    {!neighbors} allocates a filtered set plus a list on every call).
    Row [u] lists exactly [neighbors g u] in the same (ascending) order;
    removed nodes get empty rows. *)

val pp : Format.formatter -> t -> unit

val to_dot : ?name:string -> t -> string
(** Graphviz rendering of the present subgraph; the root is drawn as a
    double circle. *)
