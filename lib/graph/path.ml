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

(* Bit-parallel BFS (Akiba, Iwata and Yoshida, SIGMOD 2013) over the
   graph's rows.  {!is_connected} decides connectivity first.  Then the
   nodes are swept as sources [src_bits] at a time: bit [i] of
   [seen.(v)] says source [i] has reached [v], and [fresh.(v)] holds the
   bits [v] gained in the last level, so each level expands only the
   nodes reached in the level before it.  A batch lasts as many levels as
   the largest eccentricity among its sources; the diameter is the
   largest over all batches. *)
let src_bits = 63

let diameter g =
  if not (is_connected g) then None
  else begin
    let n = Graph.n g in
    let get (a : Csr.ints) i = Bigarray.Array1.unsafe_get a i in
    let seen = Array.make n 0 and fresh = Array.make n 0 and next = Array.make n 0 in
    let level = ref (Array.make n 0) and below = ref (Array.make n 0) in
    let diam = ref 0 in
    let batch = ref 0 in
    while !batch < n do
      let size = min src_bits (n - !batch) in
      Array.fill seen 0 n 0;
      for i = 0 to size - 1 do
        let s = !batch + i in
        seen.(s) <- 1 lsl i;
        fresh.(s) <- 1 lsl i;
        !level.(i) <- s
      done;
      let width = ref size and depth = ref 0 in
      while !width > 0 do
        let cur = !level and out = !below in
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
        level := out;
        below := cur
      done;
      diam := max !diam !depth;
      batch := !batch + size
    done;
    Some !diam
  end

let component_of g src =
  let dist = bfs g src in
  List.filter (fun v -> dist.(v) <> max_int) (List.init (Graph.n g) Fun.id)

let reachable_from_root g = component_of g Graph.root
