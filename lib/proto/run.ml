module Engine = Ftagg_sim.Engine
module Metrics = Ftagg_sim.Metrics
module Graph = Ftagg_graph.Graph

module Backend = Backend

type common = Backend.common = {
  metrics : Metrics.t;
  rounds : int;
  flooding_rounds : int;
  correct : bool;
}

let mk_common ~params ~metrics ~correct =
  Backend.mk_common ~d:params.Params.d ~metrics ~correct

let check_value ~graph ~failures ~params ~metrics value =
  Checker.result_correct ~graph ~failures ~end_round:(Metrics.rounds metrics) ~params value

let value_exn = function
  | Agg.Value v -> v
  | Agg.Aborted -> invalid_arg "Run.value_exn: protocol aborted"

type pair_outcome = {
  result : Agg.result;
  verdict : Pair.verdict;
  trace : Checker.agg_trace;
  lfc : bool;
  edge_failures : int;
  common : common;
}

(* Run's typed finishers package a run's final states; the exact
   backends below reuse them. *)
let finish_pair ~graph ~failures ~params ~states ~metrics =
  let truth =
    Checker.pair_truth ~graph ~failures ~params ~end_round:(Metrics.rounds metrics) states
  in
  (truth, mk_common ~params ~metrics ~correct:truth.Checker.correct)

let pair ~graph ~failures ~params ~seed () =
  let states, metrics =
    Engine.run ~graph ~failures ~max_rounds:(Pair.duration params) ~seed (Pair.protocol params)
  in
  let truth, common = finish_pair ~graph ~failures ~params ~states ~metrics in
  (* [Engine.run] always runs the pair's full duration, so the verdict
     exists. *)
  let verdict = Option.get truth.Checker.verdict in
  {
    result = verdict.Pair.result;
    verdict;
    trace = truth.Checker.trace;
    lfc = truth.Checker.lfc;
    edge_failures = truth.Checker.edge_failures;
    common;
  }

type agg_outcome = {
  result : Agg.result;
  trace : Checker.agg_trace;
  common : common;
}

let finish_agg ~graph ~failures ~params ~states ~metrics =
  let result = Agg.root_result states.(Graph.root) in
  let trace = { Checker.agg_nodes = states; agg_start = 1; failures; params; graph } in
  let correct =
    match result with
    | Agg.Aborted -> true
    | Agg.Value v -> check_value ~graph ~failures ~params ~metrics v
  in
  { result; trace; common = mk_common ~params ~metrics ~correct }

let agg ?ablation ~graph ~failures ~params ~seed () =
  let states, metrics =
    Engine.run ~graph ~failures ~max_rounds:(Agg.duration params) ~seed
      (Agg.protocol ?ablation params)
  in
  finish_agg ~graph ~failures ~params ~states ~metrics

type value_outcome = {
  result : Agg.result;
  common : common;
}

let finish_brute_force ~graph ~failures ~params ~states ~metrics =
  let v = Brute_force.root_result states.(Graph.root) in
  let correct = check_value ~graph ~failures ~params ~metrics v in
  { result = Agg.Value v; common = mk_common ~params ~metrics ~correct }

let brute_force ~graph ~failures ~params ~seed () =
  let states, metrics =
    Engine.run ~graph ~failures ~max_rounds:(Brute_force.duration params) ~seed
      (Brute_force.protocol params)
  in
  finish_brute_force ~graph ~failures ~params ~states ~metrics

type folklore_outcome = {
  result : Agg.result;
  f_result : Folklore.result;
  epochs : int;
  common : common;
}

let finish_folklore ~graph ~failures ~params ~states ~metrics =
  let root = states.(Graph.root) in
  let f_result = Folklore.root_result root in
  let result, correct =
    match f_result with
    | Folklore.No_clean_epoch -> (Agg.Aborted, true)
    | Folklore.Value v -> (Agg.Value v, check_value ~graph ~failures ~params ~metrics v)
  in
  let common = mk_common ~params ~metrics ~correct in
  { result; f_result; epochs = Folklore.epochs_used root; common }

let folklore ~graph ~failures ~params ~mode ~seed () =
  let states, metrics =
    Engine.run ~graph ~failures ~max_rounds:(Folklore.duration params mode) ~seed
      (Folklore.protocol params ~mode)
  in
  finish_folklore ~graph ~failures ~params ~states ~metrics

(* Algorithm 1 and unknown-f are two plans of one interval driver; both
   always output a value (the brute-force fallback cannot abort). *)
let finish_intervals ~graph ~failures ~params ~states ~metrics =
  let root = states.(Graph.root) in
  let v = Tradeoff.root_result root in
  let correct = check_value ~graph ~failures ~params ~metrics v in
  (root, Agg.Value v, mk_common ~params ~metrics ~correct)

let run_intervals ?obs ~graph ~failures ~params ~seed ~max_rounds proto =
  let states, metrics = Engine.run ?obs ~graph ~failures ~max_rounds ~seed proto in
  finish_intervals ~graph ~failures ~params ~states ~metrics

type tradeoff_outcome = {
  result : Agg.result;
  how : Tradeoff.how;
  common : common;
}

let tradeoff ?obs ?strategy ~graph ~failures ~params ~b ~f ~seed () =
  let root, result, common =
    run_intervals ?obs ~graph ~failures ~params ~seed
      ~max_rounds:(Tradeoff.max_rounds params ~b)
      (Tradeoff.protocol ?strategy params ~b ~f)
  in
  { result; how = Tradeoff.root_how root; common }

type unknown_f_outcome = {
  result : Agg.result;
  how : Unknown_f.how;
  common : common;
}

let unknown_f ~graph ~failures ~params ~seed () =
  let root, result, common =
    run_intervals ~graph ~failures ~params ~seed
      ~max_rounds:(Unknown_f.max_rounds params) (Unknown_f.protocol params)
  in
  { result; how = Unknown_f.root_how root; common }

(* ------------------------------------------------------------------ *)
(* The rows: every runnable automaton as one Backend, finished by the  *)
(* typed finishers above, and the two name views over them.           *)
(* ------------------------------------------------------------------ *)

type backend = Backend.t

(* A watchdog-truncated chaos run: the protocol never output, and the
   violation on the chaos record is the authoritative verdict. *)
let halted_early ?(evidence = []) ~params ~metrics () =
  {
    Backend.result = Backend.Exact Agg.Aborted;
    common = mk_common ~params ~metrics ~correct:true;
    evidence = ("halted_early", "true") :: evidence;
  }

let exact ?(evidence = []) result common =
  { Backend.result = Backend.Exact result; common; evidence }

let pair_row =
  Backend.make ~name:"agg"
    ~guarantee:
      "zero-error or abort; with <= t edge failures: correct value, VERI accepts (Table 2)"
    ~watch:(fun ?bit_cap ~params ~graph ~b:_ ~f:_ () ->
      Some (Watchdog.pair_watch ?bit_cap ~params ~graph ()))
    ~protocol:(fun ~graph:_ ~params ~b:_ ~f:_ -> Pair.protocol params)
    ~max_rounds:(fun ~params ~b:_ ~f:_ -> Pair.duration params)
    (fun ~graph ~failures ~params ~b:_ ~f:_ ~states ~metrics ->
      let truth, common = finish_pair ~graph ~failures ~params ~states ~metrics in
      (* The ground truth exists on a halted run too. *)
      let evidence =
        [ ("lfc", string_of_bool truth.Checker.lfc);
          ("edge_failures", string_of_int truth.Checker.edge_failures) ]
      in
      match truth.Checker.verdict with
      | None -> halted_early ~evidence ~params ~metrics ()
      | Some v ->
        exact v.Pair.result common ~evidence:(("veri_ok", string_of_bool v.Pair.veri_ok) :: evidence))

let agg_row =
  Backend.make ~name:"agg-alone"
    ~guarantee:"with <= t edge failures: correct value, no abort; unverified beyond t (no VERI)"
    ~protocol:(fun ~graph:_ ~params ~b:_ ~f:_ -> Agg.protocol params)
    ~max_rounds:(fun ~params ~b:_ ~f:_ -> Agg.duration params)
    (fun ~graph ~failures ~params ~b:_ ~f:_ ~states ~metrics ->
      if Metrics.rounds metrics < Agg.duration params then halted_early ~params ~metrics ()
      else
        let o = finish_agg ~graph ~failures ~params ~states ~metrics in
        exact o.result o.common)

let flood_row =
  Backend.make ~name:"flood" ~guarantee:"zero-error under any number of crashes; CC O(N log N)"
    ~protocol:(fun ~graph:_ ~params ~b:_ ~f:_ -> Brute_force.protocol params)
    ~max_rounds:(fun ~params ~b:_ ~f:_ -> Brute_force.duration params)
    (fun ~graph ~failures ~params ~b:_ ~f:_ ~states ~metrics ->
      if Metrics.rounds metrics < Brute_force.duration params then halted_early ~params ~metrics ()
      else
        let o = finish_brute_force ~graph ~failures ~params ~states ~metrics in
        exact o.result o.common)

(* Folklore's two modes: the retry with [f + 1] epochs, and naive TAG's
   single unguarded epoch. *)
let folklore_row ~name ~guarantee mode =
  Backend.make ~name ~guarantee
    ~protocol:(fun ~graph:_ ~params ~b:_ ~f -> Folklore.protocol params ~mode:(mode f))
    ~max_rounds:(fun ~params ~b:_ ~f -> Folklore.duration params (mode f))
    (fun ~graph ~failures ~params ~b:_ ~f:_ ~states ~metrics ->
      if not (Folklore.root_done states.(Graph.root)) then halted_early ~params ~metrics ()
      else
        let o = finish_folklore ~graph ~failures ~params ~states ~metrics in
        exact o.result o.common ~evidence:[ ("epochs", string_of_int o.epochs) ])

let retry_row =
  folklore_row ~name:"folklore"
    ~guarantee:"zero-error with f + 1 retry epochs under <= f edge failures; aborts otherwise"
    (fun f -> Folklore.Retry (f + 1))

let naive_row =
  folklore_row ~name:"naive"
    ~guarantee:"none: one TAG epoch; a crash silently drops the inputs routed through it"
    (fun _ -> Folklore.Naive)

(* The interval driver's two plans; [via] renders how the root got its
   value. *)
let intervals_row ~name ~guarantee ?watch ~protocol ~max_rounds via =
  Backend.make ~name ~guarantee ?watch ~protocol ~max_rounds
    (fun ~graph ~failures ~params ~b:_ ~f:_ ~states ~metrics ->
      if not (Tradeoff.root_done states.(Graph.root)) then halted_early ~params ~metrics ()
      else
        let root, result, common = finish_intervals ~graph ~failures ~params ~states ~metrics in
        exact result common ~evidence:[ ("via", via root) ])

let tradeoff_row =
  intervals_row ~name:"tradeoff"
    ~guarantee:
      "zero-error within b flooding rounds; CC O(f/b log^2 N + log^2 N) under <= f edge \
       failures (Theorem 1)"
    ~watch:(fun ?bit_cap ~params ~graph ~b ~f:_ () ->
      Some (Watchdog.tradeoff_watch ?bit_cap ~params ~graph ~b ()))
    ~protocol:(fun ~graph:_ ~params ~b ~f -> Tradeoff.protocol params ~b ~f)
    ~max_rounds:(fun ~params ~b ~f:_ -> Tradeoff.max_rounds params ~b)
    (fun root ->
      match Tradeoff.root_how root with
      | Tradeoff.Via_pair y -> Printf.sprintf "pair interval %d" y
      | Tradeoff.Via_brute_force -> "brute-force fallback")

let unknown_f_row =
  intervals_row ~name:"unknown-f"
    ~guarantee:"zero-error without knowing f: pairs at doubling t, then brute-force fallback"
    ~protocol:(fun ~graph:_ ~params ~b:_ ~f:_ -> Unknown_f.protocol params)
    ~max_rounds:(fun ~params ~b:_ ~f:_ -> Unknown_f.max_rounds params)
    (fun root ->
      match Unknown_f.root_how root with
      | Unknown_f.Via_slot g -> Printf.sprintf "slot %d" g
      | Unknown_f.Via_brute_force -> "brute-force fallback")

let protocols =
  [ ("tradeoff", tradeoff_row); ("brute", flood_row); ("folklore", retry_row);
    ("naive", naive_row); ("unknown-f", unknown_f_row); ("pair", pair_row); ("agg", agg_row) ]

let backends =
  [ ("agg", pair_row); ("flood", flood_row); ("folklore", retry_row);
    ("pushsum", Gossip.backend); ("flowupdating", Flow_updating.backend);
    ("flowupdating-avg", Flow_updating.avg_backend) ]

let find view name =
  let key = match String.lowercase_ascii name with "unknown_f" -> "unknown-f" | k -> k in
  Option.map (fun row -> (key, row)) (List.assoc_opt key view)

let backend_of_string name = Option.map snd (find backends name)
let protocol_of_string name = Option.map snd (find protocols name)
