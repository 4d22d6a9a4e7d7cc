module IS = Set.Make (Int)

type t = {
  n : int;
  adj : IS.t array;  (* adjacency sets; removed nodes have no entry in [present] *)
  present : bool array;
}

let root = 0

let build ~who ~n iter =
  if n <= 0 then invalid_arg (who ^ ": n must be positive");
  let adj = Array.make n IS.empty in
  iter (fun u v ->
      if u < 0 || u >= n || v < 0 || v >= n then invalid_arg (who ^ ": endpoint out of range");
      if u = v then invalid_arg (who ^ ": self-loop");
      adj.(u) <- IS.add v adj.(u);
      adj.(v) <- IS.add u adj.(v));
  { n; adj; present = Array.make n true }

let of_iter ~n iter = build ~who:"Graph.of_iter" ~n iter

let of_edges ~n edges =
  build ~who:"Graph.of_edges" ~n (fun emit -> List.iter (fun (u, v) -> emit u v) edges)

let n g = g.n

let mem g u = u >= 0 && u < g.n && g.present.(u)

let neighbors g u =
  if not (mem g u) then []
  else IS.elements (IS.filter (fun v -> g.present.(v)) g.adj.(u))

let degree g u = List.length (neighbors g u)

let has_edge g u v = mem g u && mem g v && IS.mem v g.adj.(u)

let iter_edges g f =
  for u = 0 to g.n - 1 do
    if g.present.(u) then
      IS.iter (fun v -> if v > u && g.present.(v) then f u v) g.adj.(u)
  done

let fold_edges f g init =
  let acc = ref init in
  iter_edges g (fun u v -> acc := f u v !acc);
  !acc

let num_edges g = fold_edges (fun _ _ acc -> acc + 1) g 0

let fold_nodes f g init =
  let acc = ref init in
  for u = 0 to g.n - 1 do
    if g.present.(u) then acc := f u !acc
  done;
  !acc

let remove_nodes g nodes =
  let present = Array.copy g.present in
  List.iter
    (fun u ->
      if u >= 0 && u < g.n then present.(u) <- false)
    nodes;
  { g with present }

(* Rows follow [neighbors] exactly: absent nodes get empty rows, absent
   neighbours are dropped, and each row is ascending (the order [IS.iter]
   walks), so lossy runs draw per-edge coins in the same order as the
   list-based reference engine. *)
let csr g =
  let live v acc = if g.present.(v) then acc + 1 else acc in
  Csr.of_rows ~n:g.n
    ~degree:(fun u -> if g.present.(u) then IS.fold live g.adj.(u) 0 else 0)
    ~iter_row:(fun u f ->
      if g.present.(u) then IS.iter (fun v -> if g.present.(v) then f v) g.adj.(u))

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d@," g.n (num_edges g);
  iter_edges g (fun u v -> Format.fprintf ppf "%d -- %d@," u v);
  Format.fprintf ppf "@]"

let to_dot ?(name = "g") g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" name);
  Buffer.add_string buf "  0 [shape=doublecircle];\n";
  iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
