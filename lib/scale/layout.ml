module Csr = Ftagg_graph.Csr
module Graph = Ftagg_graph.Graph

type t = {
  graph : Bigraph.t;
  caller_id : Bigraph.ints;
}

(* Typed, so the Bigarray accesses compile to inline loads and stores. *)
let get (a : Bigraph.ints) i = Bigarray.Array1.unsafe_get a i
let set (a : Bigraph.ints) i x = Bigarray.Array1.unsafe_set a i x

let make (g : Bigraph.t) ~domains =
  if domains < 1 then invalid_arg "Layout.make: need domains >= 1";
  let n = g.n in
  (* [layout_id] holds the BFS distances and [caller_id] the BFS queue,
     then the unreached nodes after it, until each is overwritten. *)
  let layout_id = Csr.make_ints n and caller_id = Csr.make_ints n in
  let _, _, reached = Csr.bfs g ~dist:layout_id ~queue:caller_id Graph.root in
  let tail = ref reached in
  for u = 0 to n - 1 do
    if get layout_id u < 0 then begin
      set caller_id !tail u;
      incr tail
    end
  done;
  (* Deal queue position i to the next partition with a free slot, in
     turn; the root, at position 0, lands on the first slot of the first
     non-empty partition, which is 0. *)
  let parts = Executor.partitions ~n ~domains in
  let free = Array.map fst parts in
  let k = ref 0 in
  for i = 0 to n - 1 do
    while free.(!k) = snd parts.(!k) do
      k := (!k + 1) mod domains
    done;
    set layout_id (get caller_id i) free.(!k);
    free.(!k) <- free.(!k) + 1;
    k := (!k + 1) mod domains
  done;
  for u = 0 to n - 1 do
    set caller_id (get layout_id u) u
  done;
  { graph = Csr.renumber g ~new_id:layout_id ~old_id:caller_id; caller_id }
