(** Packed compressed-sparse-row adjacency over Bigarray-backed int
    arrays — the one adjacency representation every round loop walks.

    The set-backed {!Graph.t} costs one [Set.Make(Int)] node per edge
    endpoint (~hundreds of bytes/edge with boxing) — fine at 10^3 nodes,
    hopeless at 10^6.  A [Csr.t] stores the same adjacency as two flat
    off-heap int arrays (~16 bytes/directed edge), so a 1M-node, 4M-edge
    topology is ~130 MB instead of many GB, and the GC never scans it.

    Rows built from edges are sorted ascending with self-loops and
    duplicates dropped, whichever way the snapshot was built ({!of_iter}
    from a streamed emission, [Graph.csr] from a materialised graph), so
    two CSRs of the same edges are equal under [=] and the engine walks
    neighbours — and draws per-edge fault coins — in the same order on
    either.  A {!renumber}ed CSR keeps each row in its source row's
    order instead, and the engine walks it, and builds inboxes, in that
    order. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private {
  n : int;  (** node count *)
  m : int;  (** undirected edge count after dedup *)
  offsets : ints;
      (** [n + 1] entries; node [u]'s neighbours live at indices
          [offsets.{u} .. offsets.{u+1} - 1] of [targets] *)
  targets : ints;
      (** [2m] entries; row [u] sorted ascending, except after
          {!renumber} *)
}
(** Exposed for hot loops; treat the arrays as read-only. *)

val of_iter : n:int -> ((int -> int -> unit) -> unit) -> t
(** [of_iter ~n iter] builds the CSR from [iter emit] without
    materialising a graph: endpoints are buffered in fixed 8 MB chunks,
    then counted, prefix-summed, filled, and each row sorted and
    deduplicated in place.  Duplicate edges collapse; self-loops and
    out-of-range endpoints raise [Invalid_argument] (matching
    [Graph.of_iter]). *)

val of_rows : n:int -> degree:(int -> int) -> iter_row:(int -> (int -> unit) -> unit) -> t
(** [of_rows ~n ~degree ~iter_row] fills the arrays straight from rows
    the caller already holds: [iter_row u f] must call [f] on exactly
    [degree u] neighbours of [u], ascending and without duplicates, and
    the rows must be symmetric.  No scratch beyond the two arrays. *)

val renumber : t -> new_id:ints -> old_id:ints -> t
(** [renumber t ~new_id ~old_id] is [t] with node [u] renamed
    [new_id.{u}]: row [new_id.{u}] lists [new_id.{v}] for every [v] of
    row [u], in row [u]'s order, so it is generally not ascending.
    [new_id] must be a permutation of [\[0, n)] and [old_id] its
    inverse; neither is checked.  One O(n + m) pass in the new order, no
    sort. *)

val n : t -> int
val num_edges : t -> int
val degree : t -> int -> int
val max_degree : t -> int
val iter_neighbors : t -> int -> (int -> unit) -> unit

val make_ints : int -> ints
(** An uninitialised flat int array of the given length. *)

val bfs : t -> dist:ints -> queue:ints -> int -> int * int * int
(** [bfs t ~dist ~queue src] runs a breadth-first search from [src] with
    no allocation: it writes each node's hop distance into [dist]
    ([-1] where unreached) and uses [queue] as the FIFO, both of length
    [n t].  Returns the last node reached (one farthest from [src]), its
    distance (the eccentricity of [src] within its component) and the
    number of nodes reached. *)
