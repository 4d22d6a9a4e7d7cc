type t = Csr.t

let root = 0

let build ~who ~n iter =
  if n <= 0 then invalid_arg (who ^ ": n must be positive");
  Csr.of_iter ~n (fun emit ->
      iter (fun u v ->
          if u < 0 || u >= n || v < 0 || v >= n then invalid_arg (who ^ ": endpoint out of range");
          if u = v then invalid_arg (who ^ ": self-loop");
          emit u v))

let of_iter ~n iter = build ~who:"Graph.of_iter" ~n iter

let of_edges ~n edges =
  build ~who:"Graph.of_edges" ~n (fun emit -> List.iter (fun (u, v) -> emit u v) edges)

let n = Csr.n
let num_edges = Csr.num_edges

(* The [.{}] reads are bounds-checked, so an id outside [0, n) raises
   instead of reading past the arrays. *)
let neighbors (g : t) u =
  let acc = ref [] in
  for i = g.offsets.{u + 1} - 1 downto g.offsets.{u} do
    acc := g.targets.{i} :: !acc
  done;
  !acc

let degree (g : t) u = g.offsets.{u + 1} - g.offsets.{u}

let has_edge (g : t) u v =
  u >= 0 && u < g.n && v >= 0 && v < g.n
  &&
  let a = if degree g u <= degree g v then u else v in
  let b = if a = u then v else u in
  let i = ref g.offsets.{a} and hi = g.offsets.{a + 1} in
  while !i < hi && g.targets.{!i} <> b do
    incr i
  done;
  !i < hi

let iter_edges g f =
  for u = 0 to n g - 1 do
    Csr.iter_neighbors g u (fun v -> if v > u then f u v)
  done

let fold_edges f g init =
  let acc = ref init in
  iter_edges g (fun u v -> acc := f u v !acc);
  !acc

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d@," (n g) (num_edges g);
  iter_edges g (fun u v -> Format.fprintf ppf "%d -- %d@," u v);
  Format.fprintf ppf "@]"

let to_dot ?(name = "g") g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" name);
  Buffer.add_string buf "  0 [shape=doublecircle];\n";
  iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
