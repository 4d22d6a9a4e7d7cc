(* Unit and property tests for ftagg_graph: Graph, Gen, Path. *)

open Ftagg
open Helpers

(* The edge list, ascending, through the fold. *)
let edge_list g = List.rev (Graph.fold_edges (fun u v acc -> (u, v) :: acc) g [])

let test_of_edges_basic () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  check_int "n" 4 (Graph.n g);
  check_int "edges" 3 (Graph.num_edges g);
  check_true "has 0-1" (Graph.has_edge g 0 1);
  check_true "symmetric" (Graph.has_edge g 1 0);
  check_true "no 0-2" (not (Graph.has_edge g 0 2));
  check_int "deg 1" 2 (Graph.degree g 1)

let test_of_edges_dedup () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 0); (0, 1) ] in
  check_int "duplicate edges collapse" 1 (Graph.num_edges g)

let test_of_edges_rejects () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edges: self-loop")
    (fun () -> ignore (Graph.of_edges ~n:3 [ (1, 1) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.of_edges: endpoint out of range") (fun () ->
      ignore (Graph.of_edges ~n:3 [ (0, 3) ]))

let test_neighbors_sorted () =
  let g = Graph.of_edges ~n:5 [ (2, 4); (2, 0); (2, 3); (2, 1) ] in
  check_true "sorted adjacency" (Graph.neighbors g 2 = [ 0; 1; 3; 4 ])

let test_bfs_path () =
  let g = Gen.path 6 in
  let dist = Path.bfs g 0 in
  Array.iteri (fun i d -> check_int (Printf.sprintf "dist to %d" i) i d) dist

let test_bfs_unreachable () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let dist = Path.bfs g 0 in
  check_true "unreachable is max_int" (dist.(2) = max_int && dist.(3) = max_int)

let test_diameter_families () =
  check_true "path diameter" (Path.diameter (Gen.path 10) = Some 9);
  check_true "ring diameter" (Path.diameter (Gen.ring 10) = Some 5);
  check_true "star diameter" (Path.diameter (Gen.star 10) = Some 2);
  check_true "complete diameter" (Path.diameter (Gen.complete 10) = Some 1)

let test_diameter_disconnected () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  check_true "disconnected diameter" (Path.diameter g = None);
  check_true "not connected" (not (Path.is_connected g))

(* The nodes [src] reaches, ascending. *)
let reach g src =
  let dist = Path.bfs g src in
  List.filter (fun v -> dist.(v) <> max_int) (List.init (Graph.n g) Fun.id)

let test_component_of () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (3, 4) ] in
  check_true "component of 0" (reach g 0 = [ 0; 1; 2 ]);
  check_true "component of 3" (reach g 3 = [ 3; 4 ]);
  check_true "root reach"
    (Checker.survivors ~graph:g ~failures:(Failure.none ~n:5) ~round:1
    = [| true; true; true; false; false |])

let test_grid_structure () =
  let g = Gen.grid 9 in
  (* 3x3 grid: corner degrees 2, center degree 4 *)
  check_int "corner degree" 2 (Graph.degree g 0);
  check_int "center degree" 4 (Graph.degree g 4);
  check_true "diameter 4" (Path.diameter g = Some 4)

let test_binary_tree_structure () =
  let g = Gen.binary_tree 7 in
  check_int "root degree" 2 (Graph.degree g 0);
  check_int "edges" 6 (Graph.num_edges g);
  check_true "leaf degree" (Graph.degree g 6 = 1)

let test_caterpillar_connected_with_leaves () =
  let g = Gen.caterpillar 20 in
  check_true "connected" (Path.is_connected g);
  check_int "n" 20 (Graph.n g);
  check_int "tree edge count" 19 (Graph.num_edges g)

let test_lollipop_shape () =
  let g = Gen.lollipop 20 in
  check_true "connected" (Path.is_connected g);
  (* the clique half has k(k-1)/2 edges, so way more than a tree *)
  check_true "dense half" (Graph.num_edges g > 30)

let test_all_families_connected () =
  List.iter
    (fun (name, fam) ->
      List.iter
        (fun n ->
          let g = Gen.build fam ~n ~seed:5 in
          check_true (Printf.sprintf "%s n=%d connected" name n) (Path.is_connected g);
          check_int (Printf.sprintf "%s n=%d size" name n) n (Graph.n g))
        [ 12; 17; 40 ])
    (Gen.all_families ~seed:5)

let test_random_connected_seeded () =
  let a = Gen.random_connected ~n:30 ~p:0.1 ~seed:3 in
  let b = Gen.random_connected ~n:30 ~p:0.1 ~seed:3 in
  check_true "same seed, same graph" (edge_list a = edge_list b);
  let c = Gen.random_connected ~n:30 ~p:0.1 ~seed:4 in
  check_true "different seed, different graph" (edge_list a <> edge_list c)

(* The reference: one [Path.eccentricity] per node, [None] at the first
   node that cannot reach every node. *)
let largest_eccentricity g =
  let rec go u acc =
    if u = Graph.n g then Some acc
    else match Path.eccentricity g u with Some e -> go (u + 1) (max acc e) | None -> None
  in
  go 0 0

(* Edge sets for the diameter property on [n] nodes, relabelled by a
   random permutation so the root and the id order land anywhere in the
   shape:
   - 0: [k] random pairs, [k] up to [4n], often disconnected;
   - 1: a random tree, from a path to a bushy one;
   - 2: a path that ends in a clique;
   - 3: two cliques joined by a path;
   - 4: a grid with a pendant path off one of its nodes.
   Cliques are kept to 120 nodes, so the fringe of 2 and 3 can still
   fill two batches of 63 and the per-node reference stays cheap. *)
let shape_edges ~n ~shape rng =
  let edges = ref [] in
  let edge u v = if u <> v then edges := (u, v) :: !edges in
  let path lo hi =
    for v = lo to hi - 1 do
      edge v (v + 1)
    done
  in
  let clique lo hi =
    for u = lo to hi do
      for v = u + 1 to hi do
        edge u v
      done
    done
  in
  let clique_size limit = 1 + Prng.int rng (max 1 (min 120 limit)) in
  (match shape with
  | 0 ->
    for _ = 1 to Prng.int rng ((4 * n) + 1) do
      edge (Prng.int rng n) (Prng.int rng n)
    done
  | 1 ->
    let span = 1 + Prng.int rng n in
    for v = 1 to n - 1 do
      edge v (v - 1 - Prng.int rng (min v span))
    done
  | 2 ->
    let k = clique_size n in
    path 0 (n - k);
    clique (n - k) (n - 1)
  | 3 ->
    let k1 = clique_size (n - 1) in
    let k2 = clique_size (n - k1) in
    clique 0 (k1 - 1);
    path (k1 - 1) (n - k2);
    clique (n - k2) (n - 1)
  | _ ->
    let cells = 1 + Prng.int rng n in
    let w = max 1 (int_of_float (sqrt (float_of_int cells))) in
    for v = 0 to cells - 1 do
      if v mod w + 1 < w && v + 1 < cells then edge v (v + 1);
      if v + w < cells then edge v (v + w)
    done;
    edge (Prng.int rng cells) (cells mod n);
    path cells (n - 1));
  let label = Array.init n Fun.id in
  Prng.shuffle rng label;
  List.map (fun (u, v) -> (label.(u), label.(v))) !edges

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"generated graphs are connected with sane diameter" ~count:60
      (pair (int_range 12 60) small_int)
      (fun (n, seed) ->
        List.for_all
          (fun (_, fam) ->
            let g = Topo.build fam ~n ~seed in
            Path.is_connected g
            && match Path.diameter g with Some d -> d >= 1 && d < n | None -> false)
          (Topo.all_families ~seed));
    Test.make ~name:"bfs distances satisfy triangle inequality along edges" ~count:40
      (pair (int_range 5 40) small_int)
      (fun (n, seed) ->
        let g = Topo.random_connected ~n ~p:0.1 ~seed in
        let dist = Path.bfs g 0 in
        List.for_all (fun (u, v) -> abs (dist.(u) - dist.(v)) <= 1) (edge_list g));
    Test.make ~name:"removing nodes never adds reachability" ~count:40
      (pair (int_range 6 40) small_int)
      (fun (n, seed) ->
        let g = Topo.random_connected ~n ~p:0.08 ~seed in
        let removed = [ 1 + (seed mod (n - 1)); 1 + ((seed * 7) mod (n - 1)) ] in
        let g' =
          Graph.of_edges ~n
            (Graph.fold_edges
               (fun u v acc ->
                 if List.mem u removed || List.mem v removed then acc else (u, v) :: acc)
               g [])
        in
        let before = reach g Graph.root in
        let after = reach g' Graph.root in
        List.for_all (fun u -> List.mem u before) after);
    (* [Path.diameter] stops its sweep early from a centre it guesses;
       one [Path.eccentricity] per node stays the reference.  Past 63
       nodes, on shapes whose centre is easy to misplace. *)
    Test.make ~name:"diameter is the largest eccentricity, or None" ~count:300
      (triple (int_range 1 300) (int_range 0 4) small_int)
      (fun (n, shape, seed) ->
        let g = Graph.of_edges ~n (shape_edges ~n ~shape (Prng.create seed)) in
        Path.diameter g = largest_eccentricity g);
    (* Past one 63-source batch: every family up to 300 nodes, against
       one BFS per node. *)
    Test.make ~name:"diameter = one BFS per node, every family, n <= 300" ~count:12
      (pair (int_range 8 300) small_int)
      (fun (n, seed) ->
        List.for_all
          (fun (_, fam) ->
            let g = Topo.build fam ~n ~seed in
            Path.diameter g = largest_eccentricity g)
          (Topo.all_families ~seed));
  ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("graph: of_edges", test_of_edges_basic);
      ("graph: dedup", test_of_edges_dedup);
      ("graph: rejects bad edges", test_of_edges_rejects);
      ("graph: neighbors sorted", test_neighbors_sorted);
      ("path: bfs on path", test_bfs_path);
      ("path: bfs unreachable", test_bfs_unreachable);
      ("path: diameters of families", test_diameter_families);
      ("path: disconnected", test_diameter_disconnected);
      ("path: components", test_component_of);
      ("gen: grid structure", test_grid_structure);
      ("gen: binary tree structure", test_binary_tree_structure);
      ("gen: caterpillar", test_caterpillar_connected_with_leaves);
      ("gen: lollipop", test_lollipop_shape);
      ("gen: all families connected", test_all_families_connected);
      ("gen: random seeded", test_random_connected_seeded);
    ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
