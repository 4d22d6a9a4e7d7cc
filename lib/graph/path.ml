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

(* One BFS per present node over a CSR snapshot, whose rows drop removed
   nodes: a search reaches only present nodes, so the graph is connected
   iff the first one reaches them all. *)
let diameter g =
  let n = Graph.n g in
  let csr = Graph.csr g in
  let dist = Csr.make_ints n and queue = Csr.make_ints n in
  let present = Graph.fold_nodes (fun _ k -> k + 1) g 0 in
  let rec go u diam =
    if u >= n then Some diam
    else if not (Graph.mem g u) then go (u + 1) diam
    else
      let _, ecc, reached = Csr.bfs csr ~dist ~queue u in
      if reached < present then None else go (u + 1) (max diam ecc)
  in
  go 0 0

let component_of g src =
  if not (Graph.mem g src) then []
  else
    let dist = bfs g src in
    Graph.fold_nodes (fun v acc -> if dist.(v) <> max_int then v :: acc else acc) g []
    |> List.sort compare

let reachable_from_root g = component_of g Graph.root
