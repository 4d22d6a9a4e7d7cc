module Graph = Ftagg_graph.Graph
module Engine = Ftagg_sim.Engine
module Failure = Ftagg_sim.Failure

let pair_bit_cap params =
  Params.agg_bit_budget params + Params.veri_bit_budget params
  + Message.bits params Message.Agg_abort
  + Message.bits params Message.Veri_overflow

(* Tree-construction sanity: levels stay in [0, cd] and are only assigned
   in a round after the parent's, parents are physical neighbours,
   activated, and a child's level is exactly its parent's plus one.  These
   hold round by round even under duplication/delay faults (activation is
   latched on first receipt and the [sender_level + 1 <= cd] gate bounds
   levels).

   Only the round's broadcasters are checked.  That reports the same
   first violation as checking all n nodes: every activation broadcasts
   its [Ack] (or the abort symbol) in the step that activates, and what
   the check reads — the node's level and parent, the parent's
   activation and level, adjacency — never changes once the node is
   activated, while the "below the round" bound only loosens.  So a node
   that passes in its activation round passes in every later one, and
   one that fails is a broadcaster of that round.  The root, activated
   at level 0 from the start, cannot fail. *)
let check_activation ~graph ~cd ~n ~round states broadcasters =
  let check u =
    let a = Pair.agg states.(u) in
    if not (Agg.activated a) then None
    else begin
      let l = Agg.level a in
      let bad detail = Some ("activation_discipline", Printf.sprintf "node %d: %s" u detail) in
      if l < 0 || l > cd then bad (Printf.sprintf "level %d outside [0, cd=%d]" l cd)
      else if l >= round then
        bad (Printf.sprintf "level %d not below round %d (activated too early)" l round)
      else if u = Graph.root then if l <> 0 then bad "root level is not 0" else None
      else begin
        let p = Agg.parent a in
        if p < 0 || p >= n then bad "activated with no parent"
        else if not (Graph.has_edge graph u p) then
          bad (Printf.sprintf "parent %d is not a neighbour" p)
        else begin
          let pa = Pair.agg states.(p) in
          if not (Agg.activated pa) then bad (Printf.sprintf "parent %d never activated" p)
          else if Agg.level pa <> l - 1 then
            bad (Printf.sprintf "parent %d has level %d, expected %d" p (Agg.level pa) (l - 1))
          else None
        end
      end
    end
  in
  List.find_map check broadcasters

let trace_of ~params ~graph (view : Pair.node Engine.view) =
  {
    Checker.agg_nodes = Array.map Pair.agg view.Engine.v_states;
    agg_start = 1;
    failures = Failure.of_crash_rounds view.Engine.v_crash_rounds;
    params;
    graph;
  }

let psums_mismatch =
  ("representative_psums", "a selected partial sum disagrees with the schedule recomputation")

let pair_watch ?bit_cap ~params ~graph () : Pair.node Engine.watch =
  let cap = match bit_cap with Some c -> c | None -> pair_bit_cap params in
  let cd = Params.cd params in
  let n = Graph.n graph in
  let agg_end = Agg.duration params in
  let pair_end = Pair.duration params in
  let psums_checked = ref false in
  fun view ->
    let round = view.Engine.v_round in
    let states = view.Engine.v_states in
    match Backend.bits_watch ~bit_cap:cap view with
    | Some v -> Some v
    | None -> (
      match check_activation ~graph ~cd ~n ~round states view.Engine.v_broadcasters with
      | Some v -> Some v
      | None ->
        (* At the end of the AGG half: each selected partial sum must equal
           the fold of the inputs the crash schedule says it aggregated
           (§4.3) — the earliest round this is checkable. *)
        let psums_violation =
          if round >= agg_end && not !psums_checked then begin
            psums_checked := true;
            match Agg.root_result (Pair.agg states.(Graph.root)) with
            | Agg.Aborted -> None
            | Agg.Value _ ->
              let trace = trace_of ~params ~graph view in
              let selected = Agg.selected_sources (Pair.agg states.(Graph.root)) in
              let r = Checker.representative_set trace ~selected ~end_round:round in
              if not r.Checker.psums_match then Some psums_mismatch else None
          end
          else None
        in
        (match psums_violation with
        | Some v -> Some v
        | None ->
          if round < pair_end then None
          else begin
            (* Final round: the root's verdict exists — check the Table 2
               row this schedule landed in, and the §4.3 representative-set
               structure behind an accepting verdict. *)
            let failures = Failure.of_crash_rounds view.Engine.v_crash_rounds in
            let truth = Checker.pair_truth ~graph ~failures ~params ~end_round:round states in
            let verdict = Option.get truth.Checker.verdict in
            let edge_failures = truth.Checker.edge_failures in
            let correct = truth.Checker.correct in
            let table2 =
              if edge_failures <= params.Params.t then begin
                if verdict.Pair.result = Agg.Aborted then
                  Some
                    ( "table2_s1_no_abort",
                      Printf.sprintf "AGG aborted with only %d <= t=%d edge failures"
                        edge_failures params.Params.t )
                else if not correct then
                  Some ("table2_s1_correct", "scenario 1 value outside the correctness interval")
                else if not verdict.Pair.veri_ok then
                  Some ("table2_s1_veri", "VERI rejected a scenario 1 run")
                else None
              end
              else if not truth.Checker.lfc then begin
                if not correct then
                  Some
                    ( "table2_s2_correct",
                      "no long failure chain, yet the value is outside the correctness interval" )
                else None
              end
              else if verdict.Pair.veri_ok then
                Some ("table2_s3_veri", "VERI accepted a run containing a long failure chain")
              else None
            in
            match table2 with
            | Some v -> Some v
            | None -> (
              match verdict.Pair.result with
              | Agg.Aborted -> None
              | Agg.Value _ ->
                let selected = Agg.selected_sources (Pair.agg states.(Graph.root)) in
                let r =
                  Checker.representative_set truth.Checker.trace ~selected ~end_round:round
                in
                if not r.Checker.psums_match then Some psums_mismatch
                else if verdict.Pair.veri_ok && not r.Checker.disjoint then
                  Some ("representative_disjoint", "an accepted representative set double-counts a node")
                else if verdict.Pair.veri_ok && not r.Checker.covers_alive then
                  Some
                    ( "representative_covers",
                      "an accepted representative set misses a surviving node's input" )
                else None)
          end))

(* Theorem 1 as a watch.  The driver halts in the round the root
   outputs, so its value is judged once, against the crashes so far; a
   root still silent when the b·d budget runs out broke the time bound. *)
let tradeoff_watch ?bit_cap ~params ~graph ~b () : Tradeoff.node Engine.watch =
  let deadline = Tradeoff.max_rounds params ~b in
  fun view ->
    match Option.bind bit_cap (fun cap -> Backend.bits_watch ~bit_cap:cap view) with
    | Some v -> Some v
    | None ->
      let round = view.Engine.v_round in
      let root = view.Engine.v_states.(Graph.root) in
      if Tradeoff.root_done root then begin
        let failures = Failure.of_crash_rounds view.Engine.v_crash_rounds in
        if
          Checker.result_correct ~graph ~failures ~end_round:round ~params
            (Tradeoff.root_result root)
        then None
        else Some ("theorem1_correct", "Algorithm 1 value outside the correctness interval")
      end
      else if round >= deadline then
        Some
          ( "theorem1_time",
            Printf.sprintf "Algorithm 1's root has no output after b·d = %d rounds (b=%d)"
              deadline b )
      else None
