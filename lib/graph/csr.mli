(** Packed compressed-sparse-row adjacency over Bigarray-backed int
    arrays: the one adjacency representation of the library.  {!Graph.t}
    is this type, and every round loop walks it.

    The adjacency is two flat off-heap int arrays (~16 bytes per directed
    edge), so a 1M-node, 4M-edge topology is ~130 MB and the GC never
    scans it.

    Rows built by {!of_iter} are sorted ascending with self-loops and
    duplicates dropped, so two CSRs of the same edges are equal under [=]
    and the engine walks neighbours, and draws per-edge fault coins, in
    ascending order.  A {!renumber}ed CSR keeps each row in its source
    row's order instead, and the engine walks it, and builds inboxes, in
    that order. *)

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
(** [of_iter ~n iter] builds the CSR from [iter emit]: endpoints are
    buffered in chunks that start at 2^10 ints and double up to 2^20
    (8 MB), then counted, prefix-summed, filled, and each row sorted and
    deduplicated in place.  Duplicate edges collapse; self-loops and
    out-of-range endpoints raise [Invalid_argument]. *)

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
