let bfs g src =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  dist.(src) <- 0;
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Csr.iter_neighbors g u (fun v ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
  done;
  dist

let eccentricity g u =
  Array.fold_left
    (fun acc d -> if d = max_int then None else Option.map (max d) acc)
    (Some 0) (bfs g u)

let is_connected g =
  let n = Graph.n g in
  let _, _, reached = Csr.bfs g ~dist:(Csr.make_ints n) ~queue:(Csr.make_ints n) Graph.root in
  reached = n

let get (a : Csr.ints) i = Bigarray.Array1.unsafe_get a i
let set (a : Csr.ints) i x = Bigarray.Array1.unsafe_set a i x

(* Bit-parallel BFS (Akiba, Iwata and Yoshida, SIGMOD 2013) over the
   graph's rows, [src_bits] sources at a time: bit [i] of [seen.(v)] says
   source [i] has reached [v], and [fresh.(v)] holds the bits [v] gained
   in the last level, so each level expands only the nodes reached in the
   level before it.  [fresh] and [next] are all zero between batches. *)
let src_bits = 63

type batches = {
  g : Graph.t;
  seen : int array;
  fresh : int array;
  next : int array;
  mutable level : int array;
  mutable below : int array;
}

let batches g =
  let n = Graph.n g in
  let z () = Array.make n 0 in
  { g; seen = z (); fresh = z (); next = z (); level = z (); below = z () }

(* One batch from the sources [source 0 .. source (size - 1)] of a
   connected graph.  It lasts as many levels as the largest eccentricity
   among them, which it returns. *)
let batch b ~size source =
  let { g; seen; fresh; next; _ } = b in
  Array.fill seen 0 (Array.length seen) 0;
  for i = 0 to size - 1 do
    let s = source i in
    seen.(s) <- 1 lsl i;
    fresh.(s) <- 1 lsl i;
    b.level.(i) <- s
  done;
  let width = ref size and depth = ref 0 in
  while !width > 0 do
    let cur = b.level and out = b.below in
    let reached = ref 0 in
    for k = 0 to !width - 1 do
      let u = cur.(k) in
      let f = fresh.(u) in
      fresh.(u) <- 0;
      for e = get g.Csr.offsets u to get g.Csr.offsets (u + 1) - 1 do
        let v = get g.Csr.targets e in
        let gain = f land lnot seen.(v) in
        if gain <> 0 then begin
          seen.(v) <- seen.(v) lor gain;
          if next.(v) = 0 then begin
            out.(!reached) <- v;
            incr reached
          end;
          next.(v) <- next.(v) lor gain
        end
      done
    done;
    for k = 0 to !reached - 1 do
      let v = out.(k) in
      fresh.(v) <- next.(v);
      next.(v) <- 0
    done;
    if !reached > 0 then incr depth;
    width := !reached;
    b.level <- out;
    b.below <- cur
  done;
  !depth

(* iFUB (Crescenzi, Grossi, Habib, Lanzi and Marino, TCS 2013) from a
   centre [u], given its BFS [queue] and [dist] and a lower bound [lb]
   (eccentricities already found).  Sources leave the queue back to
   front, deepest first.  With [l] the level of the next unswept node,
   two unswept nodes are both within [l] of [u], so at most [2l] apart,
   and a swept one is within [lb] of everything: once [lb >= 2l], [lb] is
   the diameter.  A batch stays full unless that stop already holds
   inside it. *)
let fringe b ~queue ~dist ~lb =
  let lb = ref lb and top = ref (Graph.n b.g - 1) in
  let open_at k = k >= 0 && !lb < 2 * get dist (get queue k) in
  while open_at !top do
    let first = !top and size = ref 0 in
    while !size < src_bits && open_at (first - !size) do
      incr size
    done;
    lb := max !lb (batch b ~size:!size (fun i -> get queue (first - i)));
    top := first - !size
  done;
  !lb

(* The root's BFS decides connectivity and starts the first of two
   double sweeps.  Each double sweep runs a BFS from a start node and
   one from the node farthest from it, and folds both into [worst], each
   node's largest distance to a sweep source so far.  The second starts
   from the node whose [worst] is smallest after the first, and the
   node whose [worst] is smallest after both is the centre.  Up to
   [src_bits] nodes, one batch of every node costs less than the sweeps. *)
let diameter g =
  let n = Graph.n g in
  let dist = Csr.make_ints n and queue = Csr.make_ints n in
  let far, _, reached = Csr.bfs g ~dist ~queue Graph.root in
  if reached < n then None
  else if n <= src_bits then Some (batch (batches g) ~size:n Fun.id)
  else begin
    let worst = Csr.make_ints n in
    Bigarray.Array1.blit dist worst;
    let sweep src =
      let far, ecc, _ = Csr.bfs g ~dist ~queue src in
      for v = 0 to n - 1 do
        if get dist v > get worst v then set worst v (get dist v)
      done;
      (far, ecc)
    in
    let centre () =
      let u = ref 0 in
      for v = 1 to n - 1 do
        if get worst v < get worst !u then u := v
      done;
      !u
    in
    let _, lb = sweep far in
    let far, ecc = sweep (centre ()) in
    let _, ecc' = sweep far in
    let _, ecc_u, _ = Csr.bfs g ~dist ~queue (centre ()) in
    Some (fringe (batches g) ~queue ~dist ~lb:(max (max lb ecc) (max ecc' ecc_u)))
  end
