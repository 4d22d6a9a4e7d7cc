module Graph = Ftagg_graph.Graph
module Csr = Ftagg_graph.Csr
module Failure = Ftagg_sim.Failure

(* The nodes not failed in the model's sense at [round] (§2): one BFS
   from the root over the graph's rows that never enters a node crashed
   by [round]. *)
let survivors ~graph ~failures ~round =
  let n = Graph.n graph in
  let ok = Array.make n false in
  let alive v = Failure.is_alive failures ~node:v ~round in
  if alive Graph.root then begin
    let queue = Array.make n Graph.root in
    let head = ref 0 and tail = ref 1 in
    ok.(Graph.root) <- true;
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      Csr.iter_neighbors graph u (fun v ->
          if (not ok.(v)) && alive v then begin
            ok.(v) <- true;
            queue.(!tail) <- v;
            incr tail
          end)
    done
  end;
  ok

(* Every ground truth below reads a [survivors] array [ok], so
   [pair_truth] can compute each round's once. *)
let sets_of ok ~inputs =
  let base = ref [] and optional = ref [] in
  for u = Array.length ok - 1 downto 0 do
    if ok.(u) then base := inputs.(u) :: !base else optional := inputs.(u) :: !optional
  done;
  (!base, !optional)

let correctness_sets ~graph ~failures ~end_round ~inputs =
  sets_of (survivors ~graph ~failures ~round:end_round) ~inputs

let correct_of ok ~params result =
  let base, optional = sets_of ok ~inputs:params.Params.inputs in
  Ftagg_caaf.Caaf.is_correct params.Params.caaf ~base ~optional result

let result_correct ~graph ~failures ~end_round ~params result =
  correct_of (survivors ~graph ~failures ~round:end_round) ~params result

let edge_failures_of graph ok =
  Graph.fold_edges (fun u v acc -> if ok.(u) && ok.(v) then acc else acc + 1) graph 0

let model_edge_failures ~graph ~failures ~round =
  edge_failures_of graph (survivors ~graph ~failures ~round)

type agg_trace = {
  agg_nodes : Agg.node array;
  agg_start : int;
  failures : Failure.t;
  params : Params.t;
  graph : Graph.t;
}

(* A node at level l receives its first tree_construct in phase round 2l
   (the phase-1 recurrence: ack in the receipt round, tree_construct one
   round later) and takes its aggregation action in phase round
   [3cd + 2 − l]; crashing strictly between the ack broadcast and the
   action is the paper's critical failure. *)
let critical_failures tr =
  let cd = Params.cd tr.params in
  let acc = ref [] in
  Array.iteri
    (fun u node ->
      if u <> Graph.root && Agg.activated node then begin
        let l = Agg.level node in
        let r = Failure.crash_round tr.failures u in
        let ack_global = tr.agg_start + (2 * l) - 1 in
        let action_global = tr.agg_start + (3 * cd) + 1 - l in
        if r > ack_global && r <= action_global then acc := u :: !acc
      end)
    tr.agg_nodes;
  !acc

(* The nodes of [tr]'s run not failed in the model's sense at [round]:
   neither crashed nor disconnected from the root by others' crashes
   (§2). *)
let survivors_at tr ~round = survivors ~graph:tr.graph ~failures:tr.failures ~round

(* Global round of a node's aggregation action: phase 2 starts at
   agg_start + 2cd + 1; a level-l node acts in phase round cd − l + 1. *)
let action_global tr u =
  let cd = Params.cd tr.params in
  tr.agg_start + (2 * cd) + 1 + (cd - Agg.level tr.agg_nodes.(u) + 1) - 1

let included_inputs tr ~source =
  let rec collect u acc =
    let acc = u :: acc in
    List.fold_left
      (fun acc c ->
        if Failure.crash_round tr.failures c > action_global tr c then collect c acc
        else acc)
      acc
      (Agg.children tr.agg_nodes.(u))
  in
  List.sort compare (collect source [])

type representative_report = {
  disjoint : bool;
  covers_alive : bool;
  psums_match : bool;
}

let representative_set tr ~selected ~end_round =
  let n = Array.length tr.agg_nodes in
  let counted = Array.make n 0 in
  let caaf = tr.params.Params.caaf in
  let psums_match = ref true in
  List.iter
    (fun s ->
      let included = included_inputs tr ~source:s in
      List.iter (fun u -> counted.(u) <- counted.(u) + 1) included;
      let expect =
        Ftagg_caaf.Caaf.aggregate caaf
          (List.map (fun u -> tr.params.Params.inputs.(u)) included)
      in
      if expect <> Agg.psum tr.agg_nodes.(s) then psums_match := false)
    selected;
  let disjoint = Array.for_all (fun c -> c <= 1) counted in
  let ok_end = survivors_at tr ~round:end_round in
  let covers_alive = ref true in
  for u = 0 to n - 1 do
    if ok_end.(u) && counted.(u) = 0 then covers_alive := false
  done;
  { disjoint; covers_alive = !covers_alive; psums_match = !psums_match }

let agg_end tr = tr.agg_start + Agg.duration tr.params - 1

(* [has_lfc] given the survivors at AGG's end and at VERI's. *)
let lfc_of tr ~ok_agg_end ~ok_veri_end =
  let n = Array.length tr.agg_nodes in
  let failed u = not ok_agg_end.(u) in
  let alive_at_veri_end u = ok_veri_end.(u) in
  let visible = Agg.saw_crit tr.agg_nodes.(Graph.root) in
  let activated u = Agg.activated tr.agg_nodes.(u) in
  let parent u = Agg.parent tr.agg_nodes.(u) in
  let children = Array.make n [] in
  for u = 0 to n - 1 do
    if u <> Graph.root && activated u then begin
      let p = parent u in
      if p >= 0 then children.(p) <- u :: children.(p)
    end
  done;
  (* Longest all-failed chain ending at [u], cut at fragment boundaries
     (the tree edge above a root-visible critical failure is removed). *)
  let len = Array.make n (-1) in
  let rec chain_len u =
    if len.(u) >= 0 then len.(u)
    else begin
      let above =
        if visible u then 0
        else
          let p = parent u in
          if p >= 0 && p <> Graph.root && failed p then chain_len p else 0
      in
      len.(u) <- 1 + above;
      len.(u)
    end
  in
  (* Whether [u] has a strict local descendant alive at [veri_end]. *)
  let rec live_below u =
    List.exists
      (fun w ->
        (not (visible w))
        && (alive_at_veri_end w || live_below w))
      children.(u)
  in
  let threshold = max tr.params.Params.t 1 in
  let exists = ref false in
  for u = 0 to n - 1 do
    if
      (not !exists)
      && u <> Graph.root
      && activated u
      && failed u
      && chain_len u >= threshold
      && live_below u
    then exists := true
  done;
  !exists

let has_lfc tr ~veri_end =
  lfc_of tr
    ~ok_agg_end:(survivors_at tr ~round:(agg_end tr))
    ~ok_veri_end:(survivors_at tr ~round:veri_end)

type pair_truth = {
  verdict : Pair.verdict option;
  trace : agg_trace;
  lfc : bool;
  edge_failures : int;
  correct : bool;
}

let pair_truth ~graph ~failures ~params ~end_round states =
  let duration = Pair.duration params in
  let verdict =
    if end_round < duration then None else Some (Pair.root_verdict states.(Graph.root))
  in
  let trace = { agg_nodes = Array.map Pair.agg states; agg_start = 1; failures; params; graph } in
  let ok_veri = survivors ~graph ~failures ~round:duration in
  let correct =
    match verdict with
    | None | Some { Pair.result = Agg.Aborted; _ } -> true
    | Some { Pair.result = Agg.Value v; _ } ->
      let ok_end =
        if end_round = duration then ok_veri else survivors ~graph ~failures ~round:end_round
      in
      correct_of ok_end ~params v
  in
  {
    verdict;
    trace;
    lfc = lfc_of trace ~ok_agg_end:(survivors_at trace ~round:(agg_end trace)) ~ok_veri_end:ok_veri;
    edge_failures = edge_failures_of graph ok_veri;
    correct;
  }
