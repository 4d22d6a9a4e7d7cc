module Graph = Ftagg_graph.Graph
module Gen = Ftagg_graph.Gen
module Path = Ftagg_graph.Path
module Csr = Ftagg_graph.Csr
module Prng = Ftagg_util.Prng

include Csr

(* Typed, so the Bigarray reads compile to inline loads. *)
let get (a : ints) i = Bigarray.Array1.unsafe_get a i

(* ------------------------------------------------------------------ *)
(* Scale topologies                                                    *)
(* ------------------------------------------------------------------ *)

type spec =
  | Grid
  | Torus
  | Random_regular of int
  | Pref_attach of int

let spec_name = function
  | Grid -> "grid"
  | Torus -> "torus"
  | Random_regular k -> Printf.sprintf "random_regular(%d)" k
  | Pref_attach m -> Printf.sprintf "pref_attach(%d)" m

let spec_of_family = function
  | Gen.Grid -> Some Grid
  | Gen.Torus -> Some Torus
  | Gen.Random_regular k -> Some (Random_regular k)
  | _ -> None

let iter_pref_attach ~n ~m ~seed emit =
  if m < 1 then invalid_arg "Bigraph.pref_attach: need m >= 1";
  if n < m + 2 then invalid_arg "Bigraph.pref_attach: need n >= m + 2";
  let rng = Prng.create seed in
  (* Endpoint multiset: every emitted edge pushes both endpoints, so a
     uniform slot draw samples nodes proportionally to degree. *)
  let ends = Array.make (2 * (m + ((n - m - 1) * m))) 0 in
  let fill = ref 0 in
  let add u v =
    emit u v;
    ends.(!fill) <- u;
    ends.(!fill + 1) <- v;
    fill := !fill + 2
  in
  (* Seed star on nodes 0..m keeps the root a natural hub. *)
  for i = 1 to m do
    add 0 i
  done;
  for u = m + 1 to n - 1 do
    for _j = 1 to m do
      (* Resample a few times to avoid a self-edge (u enters [ends] with
         its first link); repeated targets are allowed — the CSR dedups,
         so effective degree can be < m. *)
      let rec pick tries =
        let v = ends.(Prng.int rng !fill) in
        if v <> u then v else if tries >= 20 then u - 1 else pick (tries + 1)
      in
      add u (pick 0)
    done
  done

let iter_spec spec ~n ~seed emit =
  match spec with
  | Grid -> Gen.iter_edges Gen.Grid ~n ~seed emit
  | Torus -> Gen.iter_edges Gen.Torus ~n ~seed emit
  | Random_regular k -> Gen.iter_edges (Gen.Random_regular k) ~n ~seed emit
  | Pref_attach m -> iter_pref_attach ~n ~m ~seed emit

let build spec ~n ~seed = of_iter ~n (iter_spec spec ~n ~seed)

(* ------------------------------------------------------------------ *)
(* Validation and structure                                            *)
(* ------------------------------------------------------------------ *)

let degree_histogram t =
  let tbl = Hashtbl.create 16 in
  for u = 0 to t.n - 1 do
    let d = degree t u in
    Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d))
  done;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl [] |> List.sort compare

(* Double sweep: BFS from the root, then from the farthest node found. *)
let pseudo_diameter t =
  let dist = make_ints t.n and queue = make_ints t.n in
  let far, _, _ = bfs t ~dist ~queue Graph.root in
  let _, ecc, _ = bfs t ~dist ~queue far in
  max ecc 1

let validate ?spec t =
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  try
    for u = 0 to t.n - 1 do
      let lo = get t.offsets u and hi = get t.offsets (u + 1) in
      if lo > hi then bad "node %d: negative row" u;
      for i = lo to hi - 1 do
        let v = get t.targets i in
        if v < 0 || v >= t.n then bad "node %d: target %d out of range" u v;
        if v = u then bad "node %d: self-loop" u;
        if i > lo && v <= get t.targets (i - 1) then bad "node %d: row not strictly ascending" u;
        if not (Graph.has_edge t v u) then bad "edge %d-%d not symmetric" u v
      done
    done;
    if not (Path.is_connected t) then bad "graph is disconnected from the root";
    (match spec with
    | None -> ()
    | Some s ->
      let min_deg = ref max_int and max_deg = ref 0 in
      for u = 0 to t.n - 1 do
        let d = degree t u in
        if d < !min_deg then min_deg := d;
        if d > !max_deg then max_deg := d
      done;
      let envelope name lo hi =
        if !min_deg < lo then bad "%s: min degree %d < %d" name !min_deg lo;
        match hi with
        | Some h when !max_deg > h -> bad "%s: max degree %d > %d" name !max_deg h
        | _ -> ()
      in
      match s with
      | Grid -> envelope "grid" 1 (Some 4)
      | Torus -> envelope "torus" 2 (Some 4)
      | Random_regular k -> envelope "random_regular" 2 (Some (k + 2))
      | Pref_attach _ -> envelope "pref_attach" 1 None);
    Ok ()
  with Bad msg -> Error msg
