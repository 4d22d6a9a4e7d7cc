let bfs g src =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  if Graph.mem g src then begin
    dist.(src) <- 0;
    let q = Queue.create () in
    Queue.add src q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          if dist.(v) = max_int then begin
            dist.(v) <- dist.(u) + 1;
            Queue.add v q
          end)
        (Graph.neighbors g u)
    done
  end;
  dist

let distance g u v =
  if not (Graph.mem g u && Graph.mem g v) then None
  else
    let d = (bfs g u).(v) in
    if d = max_int then None else Some d

let eccentricity g u =
  if not (Graph.mem g u) then None
  else
    let dist = bfs g u in
    let ecc =
      Graph.fold_nodes
        (fun v acc ->
          match acc with
          | None -> None
          | Some m -> if dist.(v) = max_int then None else Some (max m dist.(v)))
        g (Some 0)
    in
    ecc

let is_connected g =
  let some_node = Graph.fold_nodes (fun u acc -> match acc with None -> Some u | s -> s) g None in
  match some_node with
  | None -> true
  | Some src ->
    let dist = bfs g src in
    Graph.fold_nodes (fun v ok -> ok && dist.(v) <> max_int) g true

(* Bit-parallel BFS (Akiba, Iwata and Yoshida, SIGMOD 2013) over a CSR
   snapshot, whose rows drop removed nodes.  One plain BFS from the first
   present node decides connectivity.  Then the present nodes are swept
   as sources [src_bits] at a time: bit [i] of [seen.(v)] says source [i]
   has reached [v], and [fresh.(v)] holds the bits [v] gained in the last
   level, so each level expands only the nodes reached in the level
   before it.  A batch lasts as many levels as the largest eccentricity
   among its sources; the diameter is the largest over all batches. *)
let src_bits = 63

let diameter g =
  let n = Graph.n g in
  let csr = Graph.csr g in
  let present = Array.of_list (List.rev (Graph.fold_nodes (fun u acc -> u :: acc) g [])) in
  let count = Array.length present in
  if count = 0 then Some 0
  else
    let _, _, reached =
      Csr.bfs csr ~dist:(Csr.make_ints n) ~queue:(Csr.make_ints n) present.(0)
    in
    if reached < count then None
    else begin
      let get (a : Csr.ints) i = Bigarray.Array1.unsafe_get a i in
      let seen = Array.make n 0 and fresh = Array.make n 0 and next = Array.make n 0 in
      let level = ref (Array.make n 0) and below = ref (Array.make n 0) in
      let diam = ref 0 in
      let batch = ref 0 in
      while !batch < count do
        let size = min src_bits (count - !batch) in
        Array.fill seen 0 n 0;
        for i = 0 to size - 1 do
          let s = present.(!batch + i) in
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
            for e = get csr.Csr.offsets u to get csr.Csr.offsets (u + 1) - 1 do
              let v = get csr.Csr.targets e in
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
  if not (Graph.mem g src) then []
  else
    let dist = bfs g src in
    Graph.fold_nodes (fun v acc -> if dist.(v) <> max_int then v :: acc else acc) g []
    |> List.sort compare

let reachable_from_root g = component_of g Graph.root
