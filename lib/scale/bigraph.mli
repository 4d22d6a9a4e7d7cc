(** Million-node topologies: scale generators emitted straight into a
    {!Ftagg_graph.Graph.t} (the flat {!Ftagg_graph.Csr} adjacency), plus
    the validation and structure queries a scale run needs.

    {!of_iter} consumes the same [emit u v] emission that
    [Gen.iter_edges] produces (one edge source for both the small-graph
    and the scale path), so a [Bigraph] of an emission {e is} the
    [Graph.of_iter] of it, and [Checker], the failure generators and
    [Params] take it as it is.  A {!Layout}'s graph has rows in their
    source order, not ascending, so {!validate} rejects it. *)

type ints = Ftagg_graph.Csr.ints

type t = Ftagg_graph.Csr.t = private {
  n : int;  (** node count *)
  m : int;  (** undirected edge count after dedup *)
  offsets : ints;  (** [n + 1] entries *)
  targets : ints;
      (** [2m] entries; row [u] sorted ascending, except on a {!Layout} *)
}
(** The engine's CSR, which is [Graph.t], re-exported.  Treat the
    arrays as read-only. *)

val of_iter : n:int -> ((int -> int -> unit) -> unit) -> t
(** {!Ftagg_graph.Csr.of_iter}. *)

val n : t -> int
val num_edges : t -> int
val degree : t -> int -> int
val iter_neighbors : t -> int -> (int -> unit) -> unit

(** {2 Scale topologies} *)

type spec =
  | Grid
  | Torus
  | Random_regular of int
  | Pref_attach of int
      (** Barabási–Albert preferential attachment: each new node links to
          [m] existing nodes sampled proportionally to degree (repeated
          sampling may collapse, so degrees are approximately [m]+).
          Heavy-tailed degrees — the hub-and-spoke contrast to the
          bounded-degree families.  Needs [n >= m + 2]. *)

val spec_name : spec -> string

val spec_of_family : Ftagg_graph.Gen.family -> spec option
(** The scale counterpart of a [Gen] family, when one exists (grid,
    torus, random-regular). *)

val iter_spec : spec -> n:int -> seed:int -> (int -> int -> unit) -> unit
(** The edge emission: grid/torus/random-regular delegate to
    [Gen.iter_edges] (same seed ⇒ the same graph as [Gen.build]);
    preferential attachment is native here. *)

val build : spec -> n:int -> seed:int -> t
(** [of_iter ~n (iter_spec spec ~n ~seed)]. *)

(** {2 Validation and structure} *)

val degree_histogram : t -> (int * int) list
(** [(degree, node_count)] pairs, ascending by degree. *)

val validate : ?spec:spec -> t -> (unit, string) result
(** Structural soundness: every row strictly ascending (no self-loops or
    duplicates), adjacency symmetric ([Graph.has_edge]), graph connected
    from the root ([Path.is_connected]); with
    [?spec], additionally that the degree histogram fits the family's
    envelope (grid/torus within [1..4] resp. [2..4], random-regular
    within [2..k+2], preferential attachment minimum ≥ 1). *)

val pseudo_diameter : t -> int
(** Double-sweep BFS lower bound on the diameter (exact on trees, and on
    the generators above empirically tight): BFS from the root, then BFS
    again from the farthest node found.  At least 1.  The scale
    substitute for [Params.make]'s exact [Path.diameter], which on
    expanders such as random-regular still sweeps most nodes as BFS
    sources: infeasible at 10^6 nodes. *)
