(** Topology generators.

    The paper's [FT₀] takes a maximum over all connected topologies; the
    benchmark harness instead sweeps representative families.  All
    generators return connected graphs with {!Graph.root} (node 0) placed
    at a natural "base station" position (end of a path, corner of a grid,
    hub of a star, root of a tree). *)

type family =
  | Path
  | Ring
  | Grid  (** near-square 2-D grid *)
  | Star
  | Binary_tree
  | Complete
  | Random of float
      (** Erdős–Rényi with the given edge probability, plus a random
          spanning tree to guarantee connectivity *)
  | Caterpillar
      (** a spine path with a leaf hanging off every spine node — a
          worst-case-ish tree for blocked partial sums *)
  | Lollipop
      (** a clique on ~n/2 nodes attached to a path of ~n/2 nodes, root at
          the far end of the path *)
  | Torus  (** near-square 2-D torus (wrap-around grid) *)
  | Random_regular of int
      (** random [k]-regular-ish multigraph simplified and patched to
          connectivity — an expander-like topology ([k >= 3]) *)

val build : family -> n:int -> seed:int -> Graph.t
(** Generate a member of the family with [n] nodes.  [seed] only matters
    for [Random] and [Random_regular].  Raises [Invalid_argument] for [n]
    too small for the family (all families need [n >= 2]). *)

val iter_edges : family -> n:int -> seed:int -> (int -> int -> unit) -> unit
(** [iter_edges family ~n ~seed emit] streams the family's edges, calling
    [emit u v] once per generated edge (duplicates possible for the random
    families; sinks must dedupe, as {!Graph.of_iter} and [Scale.Bigraph]
    both do).  This is the {e single} edge source: [build family ~n ~seed]
    is exactly [Graph.of_iter ~n (iter_edges family ~n ~seed)], so a
    [Scale.Bigraph] built from the same emission is the same graph.
    Never allocates an edge list. *)

val family_name : family -> string

val all_families : seed:int -> (string * family) list
(** The deterministic sweep used by tests and benches. *)

val path : int -> Graph.t
val ring : int -> Graph.t
val grid : int -> Graph.t
val star : int -> Graph.t
val binary_tree : int -> Graph.t
val complete : int -> Graph.t
val caterpillar : int -> Graph.t
val lollipop : int -> Graph.t
val torus : int -> Graph.t
val random_connected : n:int -> p:float -> seed:int -> Graph.t

val random_regular : n:int -> degree:int -> seed:int -> Graph.t
(** Pairing-model random regular graph, simplified (self-loops and
    multi-edges dropped) and patched with a ring to guarantee
    connectivity; degrees are therefore approximately [degree].
    Requires [n > degree >= 3]. *)

val hypercube : int -> Graph.t
(** [hypercube dims] is the [2^dims]-node boolean hypercube
    ([1 <= dims <= 16]); node 0 (the root) is the all-zero corner. *)

val two_tier : clusters:int -> cluster_size:int -> Graph.t
(** A WSN-style hierarchy: the root connects to [clusters] cluster heads;
    each head owns [cluster_size] member leaves and heads are chained so
    that head failures still leave detours.  [n = 1 + clusters·(1 +
    cluster_size)]. *)
