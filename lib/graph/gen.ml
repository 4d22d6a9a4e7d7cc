type family =
  | Path
  | Ring
  | Grid
  | Star
  | Binary_tree
  | Complete
  | Random of float
  | Caterpillar
  | Lollipop
  | Torus
  | Random_regular of int

let check_n name n min_n =
  if n < min_n then invalid_arg (Printf.sprintf "Gen.%s: need n >= %d" name min_n)

(* Every family is defined as an edge *emitter*: a function that calls
   [emit u v] once per edge.  [Graph.of_iter] streams the emission into
   the packed CSR for the constructors below, and [Scale.Bigraph] for the
   scale specs: one edge source, one builder, and no intermediate
   [(int * int) list]. *)

let iter_path n emit =
  check_n "path" n 2;
  for i = 0 to n - 2 do
    emit i (i + 1)
  done

let iter_ring n emit =
  check_n "ring" n 3;
  emit (n - 1) 0;
  for i = 0 to n - 2 do
    emit i (i + 1)
  done

let iter_grid n emit =
  check_n "grid" n 2;
  (* Near-square: w columns, enough full/partial rows to reach n nodes.
     Node k sits at (row = k / w, col = k mod w); root 0 is the corner. *)
  let w = max 1 (int_of_float (sqrt (float_of_int n))) in
  for k = 0 to n - 1 do
    let row = k / w and col = k mod w in
    if col + 1 < w && k + 1 < n then emit k (k + 1);
    if row >= 1 then emit (k - w) k
  done

let iter_star n emit =
  check_n "star" n 2;
  for i = 1 to n - 1 do
    emit 0 i
  done

let iter_binary_tree n emit =
  check_n "binary_tree" n 2;
  for i = 1 to n - 1 do
    emit ((i - 1) / 2) i
  done

let iter_complete n emit =
  check_n "complete" n 2;
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      emit u v
    done
  done

let iter_caterpillar n emit =
  check_n "caterpillar" n 2;
  (* Spine nodes 0 .. s-1, leaves s .. n-1; leaf j hangs off spine node
     (j - s) when that spine node exists. *)
  let s = (n + 1) / 2 in
  for i = 0 to s - 2 do
    emit i (i + 1)
  done;
  for j = 0 to n - s - 1 do
    emit (j mod s) (s + j)
  done

let iter_lollipop n emit =
  check_n "lollipop" n 4;
  let k = n / 2 in
  (* Path part: 0 .. n-k-1 (root at 0); clique part: n-k .. n-1, attached
     to the path's far end. *)
  for i = 0 to n - k - 2 do
    emit i (i + 1)
  done;
  emit (n - k - 1) (n - k);
  for u = n - k to n - 1 do
    for v = u + 1 to n - 1 do
      emit u v
    done
  done

let iter_torus n emit =
  check_n "torus" n 9;
  (* Near-square w x h torus with a possibly short last row; wrap edges
     are added only across full rows/columns so the graph stays simple. *)
  let w = max 3 (int_of_float (sqrt (float_of_int n))) in
  let h = (n + w - 1) / w in
  let id r c = (r * w) + c in
  for k = 0 to n - 1 do
    let r = k / w and c = k mod w in
    let right = if c + 1 < w then id r ((c + 1) mod w) else id r 0 in
    if right < n && right <> k then emit k right;
    if c = w - 1 && id r 0 < n then emit k (id r 0);
    let down = id ((r + 1) mod h) c in
    if r + 1 < h && down < n then emit k down;
    if r = h - 1 && id 0 c < n && h > 2 then emit k (id 0 c)
  done

let iter_hypercube dims emit =
  if dims < 1 || dims > 16 then invalid_arg "Gen.hypercube: need 1 <= dims <= 16";
  let n = 1 lsl dims in
  for u = 0 to n - 1 do
    for b = 0 to dims - 1 do
      let v = u lxor (1 lsl b) in
      if v > u then emit u v
    done
  done

let iter_two_tier ~clusters ~cluster_size emit =
  if clusters < 1 || cluster_size < 1 then
    invalid_arg "Gen.two_tier: need clusters >= 1 and cluster_size >= 1";
  let head k = 1 + (k * (1 + cluster_size)) in
  let member k j = head k + 1 + j in
  for k = 0 to clusters - 1 do
    emit Graph.root (head k);
    if k + 1 < clusters then emit (head k) (head (k + 1));
    for j = 0 to cluster_size - 1 do
      emit (head k) (member k j);
      (* a member-level detour so a dead head does not orphan its whole
         cluster *)
      if j = 0 && k + 1 < clusters then emit (member k 0) (head (k + 1))
    done
  done

let iter_random_regular ~n ~degree ~seed emit =
  if degree < 3 then invalid_arg "Gen.random_regular: need degree >= 3";
  if n <= degree then invalid_arg "Gen.random_regular: need n > degree";
  let g = Ftagg_util.Prng.create seed in
  (* Pairing model: [degree] stubs per node, random perfect matching,
     simplified.  A ring is overlaid to guarantee connectivity. *)
  let stubs = Array.concat (List.init degree (fun _ -> Array.init n (fun i -> i))) in
  Ftagg_util.Prng.shuffle g stubs;
  emit (n - 1) 0;
  for k = 0 to n - 2 do
    emit k (k + 1)
  done;
  let m = Array.length stubs in
  let i = ref 0 in
  while !i + 1 < m do
    let u = stubs.(!i) and v = stubs.(!i + 1) in
    if u <> v then emit (min u v) (max u v);
    i := !i + 2
  done

let iter_random_connected ~n ~p ~seed emit =
  check_n "random_connected" n 2;
  if p < 0.0 || p > 1.0 then invalid_arg "Gen.random_connected: p out of [0,1]";
  let g = Ftagg_util.Prng.create seed in
  (* Random spanning tree (uniform attachment order) guarantees
     connectivity; ER edges are overlaid on top. *)
  let order = Array.init n (fun i -> i) in
  (* Keep the root first so it stays a "natural" position. *)
  let tail = Array.sub order 1 (n - 1) in
  Ftagg_util.Prng.shuffle g tail;
  Array.blit tail 0 order 1 (n - 1);
  for i = 1 to n - 1 do
    let parent = order.(Ftagg_util.Prng.int g i) in
    emit parent order.(i)
  done;
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Ftagg_util.Prng.float g 1.0 < p then emit u v
    done
  done

let iter_edges family ~n ~seed emit =
  match family with
  | Path -> iter_path n emit
  | Ring -> iter_ring n emit
  | Grid -> iter_grid n emit
  | Star -> iter_star n emit
  | Binary_tree -> iter_binary_tree n emit
  | Complete -> iter_complete n emit
  | Random p -> iter_random_connected ~n ~p ~seed emit
  | Caterpillar -> iter_caterpillar n emit
  | Lollipop -> iter_lollipop n emit
  | Torus -> iter_torus n emit
  | Random_regular k -> iter_random_regular ~n ~degree:k ~seed emit

let build family ~n ~seed = Graph.of_iter ~n (iter_edges family ~n ~seed)

let path n = Graph.of_iter ~n (iter_path n)
let ring n = Graph.of_iter ~n (iter_ring n)
let grid n = Graph.of_iter ~n (iter_grid n)
let star n = Graph.of_iter ~n (iter_star n)
let binary_tree n = Graph.of_iter ~n (iter_binary_tree n)
let complete n = Graph.of_iter ~n (iter_complete n)
let caterpillar n = Graph.of_iter ~n (iter_caterpillar n)
let lollipop n = Graph.of_iter ~n (iter_lollipop n)
let torus n = Graph.of_iter ~n (iter_torus n)

let hypercube dims =
  if dims < 1 || dims > 16 then invalid_arg "Gen.hypercube: need 1 <= dims <= 16";
  Graph.of_iter ~n:(1 lsl dims) (iter_hypercube dims)

let two_tier ~clusters ~cluster_size =
  if clusters < 1 || cluster_size < 1 then
    invalid_arg "Gen.two_tier: need clusters >= 1 and cluster_size >= 1";
  let n = 1 + (clusters * (1 + cluster_size)) in
  Graph.of_iter ~n (iter_two_tier ~clusters ~cluster_size)

let random_regular ~n ~degree ~seed =
  if degree < 3 then invalid_arg "Gen.random_regular: need degree >= 3";
  if n <= degree then invalid_arg "Gen.random_regular: need n > degree";
  Graph.of_iter ~n (iter_random_regular ~n ~degree ~seed)

let random_connected ~n ~p ~seed = Graph.of_iter ~n (iter_random_connected ~n ~p ~seed)

let family_name = function
  | Path -> "path"
  | Ring -> "ring"
  | Grid -> "grid"
  | Star -> "star"
  | Binary_tree -> "binary_tree"
  | Complete -> "complete"
  | Random p -> Printf.sprintf "random(p=%.2f)" p
  | Caterpillar -> "caterpillar"
  | Lollipop -> "lollipop"
  | Torus -> "torus"
  | Random_regular k -> Printf.sprintf "random_regular(%d)" k

let all_families ~seed:_ =
  let fams =
    [
      Path; Ring; Grid; Star; Binary_tree; Complete; Random 0.05; Caterpillar;
      Lollipop; Torus; Random_regular 4;
    ]
  in
  List.map (fun f -> (family_name f, f)) fams
