module Graph = Ftagg_graph.Graph
module Prng = Ftagg_util.Prng

let never = max_int

type t = int array (* crash round per node; [never] if it survives *)

let none ~n = Array.make n never

let of_list ~n entries =
  let t = Array.make n never in
  List.iter
    (fun (node, round) ->
      if node <= 0 || node >= n then
        invalid_arg "Failure.of_list: node out of range or root";
      if round < 1 then invalid_arg "Failure.of_list: round must be >= 1";
      t.(node) <- min t.(node) round)
    entries;
  t

let of_crash_rounds a =
  let t = Array.copy a in
  if Array.length t = 0 then invalid_arg "Failure.of_crash_rounds: empty";
  if t.(0) <> never then invalid_arg "Failure.of_crash_rounds: root must not crash";
  Array.iter (fun r -> if r < 1 then invalid_arg "Failure.of_crash_rounds: round must be >= 1") t;
  t

let crash_round t u = t.(u)

let to_list t =
  let acc = ref [] in
  for u = Array.length t - 1 downto 0 do
    if t.(u) <> never then acc := (u, t.(u)) :: !acc
  done;
  !acc

let crashed_by t ~round =
  let acc = ref [] in
  for u = Array.length t - 1 downto 0 do
    if t.(u) <= round then acc := u :: !acc
  done;
  !acc

let crashed_nodes t = crashed_by t ~round:(never - 1)

let is_alive t ~node ~round = t.(node) > round

let crash_rounds t = t

let shift t ~by =
  Array.map (fun r -> if r = never then never else max 1 (r - by)) t

let edge_failures g t =
  Graph.fold_edges
    (fun u v acc -> if t.(u) <> never || t.(v) <> never then acc + 1 else acc)
    g 0

let edge_failures_in_window g t ~first ~last =
  Graph.fold_edges
    (fun u v acc ->
      let r = min t.(u) t.(v) in
      if r >= first && r <= last then acc + 1 else acc)
    g 0

(* Incremental edge-failure cost of crashing [u] given [crashed]. *)
let marginal_cost g crashed u =
  List.length (List.filter (fun v -> not (Hashtbl.mem crashed v)) (Graph.neighbors g u))

(* Walk [candidates] in order, crashing each one whose marginal edge cost
   is positive and still fits the budget, at round [pick_round ()]. *)
let budgeted_crashes g ~budget ~pick_round candidates =
  let t = Array.make (Graph.n g) never in
  let crashed = Hashtbl.create 16 in
  let spent = ref 0 in
  List.iter
    (fun u ->
      let cost = marginal_cost g crashed u in
      if cost > 0 && !spent + cost <= budget then begin
        spent := !spent + cost;
        Hashtbl.replace crashed u ();
        t.(u) <- pick_round ()
      end)
    candidates;
  t

(* Every non-root node, in a random order. *)
let shuffled g rng =
  let candidates = Array.init (Graph.n g - 1) (fun i -> i + 1) in
  Prng.shuffle rng candidates;
  Array.to_list candidates

let random g ~rng ~budget ~max_round =
  budgeted_crashes g ~budget (shuffled g rng) ~pick_round:(fun () ->
      Prng.in_range rng 1 (max max_round 1))

let burst g ~rng ~budget ~round =
  budgeted_crashes g ~budget (shuffled g rng) ~pick_round:(fun () -> round)

let kill_nodes ~n ~nodes ~round = of_list ~n (List.map (fun u -> (u, round)) nodes)

let chain ~n ~first ~len ~round =
  if first <= 0 then invalid_arg "Failure.chain: must not include the root";
  let nodes = List.init len (fun i -> first + i) in
  kill_nodes ~n ~nodes ~round

let high_degree g ~budget ~round =
  List.init (Graph.n g - 1) (fun i -> i + 1)
  |> List.sort (fun u v -> compare (Graph.degree g v) (Graph.degree g u))
  |> budgeted_crashes g ~budget ~pick_round:(fun () -> round)

let per_interval g ~rng ~budget ~interval_len ~intervals =
  if intervals < 1 || interval_len < 1 then
    invalid_arg "Failure.per_interval: need positive interval geometry";
  (* Round-robin crashes over the interval windows so every window gets
     hit before any gets a second crash, within the edge budget. *)
  let slot = ref 0 in
  budgeted_crashes g ~budget (shuffled g rng) ~pick_round:(fun () ->
      let r = (!slot * interval_len) + 1 + Prng.int rng interval_len in
      slot := (!slot + 1) mod intervals;
      r)

let neighborhood g ~center ~round =
  let nodes =
    center :: Graph.neighbors g center
    |> List.filter (fun u -> u <> Graph.root)
  in
  kill_nodes ~n:(Graph.n g) ~nodes ~round

let modes = [ "none"; "random"; "burst"; "chain"; "neighborhood" ]

let generate g ~mode ~budget ~seed ~window =
  let n = Graph.n g in
  (* The one-shot modes strike a third of the way into the window, and
     never before round 1 however short the window. *)
  let round = max 1 (window / 3) in
  match String.lowercase_ascii mode with
  | "none" -> Some (none ~n)
  | "random" -> Some (random g ~rng:(Prng.create seed) ~budget ~max_round:window)
  | "burst" -> Some (burst g ~rng:(Prng.create seed) ~budget ~round)
  | "chain" -> Some (chain ~n ~first:1 ~len:(max 0 (min budget (n - 2))) ~round)
  | "neighborhood" -> Some (neighborhood g ~center:(n / 2) ~round)
  | _ -> None

let pp ppf t =
  Format.fprintf ppf "@[<h>";
  let first = ref true in
  Array.iteri
    (fun u r ->
      if r <> never then begin
        if not !first then Format.fprintf ppf ",@ ";
        first := false;
        Format.fprintf ppf "%d@@%d" u r
      end)
    t;
  if !first then Format.fprintf ppf "(none)";
  Format.fprintf ppf "@]"
