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
  veri_end : int;
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

let pair ?ablation ?loss ?obs ~graph ~failures ~params ~seed () =
  let duration = Pair.duration params in
  let states, metrics =
    Engine.run ?obs ?loss ~graph ~failures ~max_rounds:duration ~seed
      (Pair.protocol ?ablation params)
  in
  let truth, common = finish_pair ~graph ~failures ~params ~states ~metrics in
  (* [Engine.run] always runs the pair's full duration, so the verdict
     exists. *)
  let verdict = Option.get truth.Checker.verdict in
  {
    result = verdict.Pair.result;
    verdict;
    trace = truth.Checker.trace;
    veri_end = duration;
    lfc = truth.Checker.lfc;
    edge_failures = truth.Checker.edge_failures;
    common;
  }

type agg_outcome = {
  result : Agg.result;
  trace : Checker.agg_trace;
  common : common;
}

let agg ?ablation ?loss ?obs ~graph ~failures ~params ~seed () =
  let duration = Agg.duration params in
  let states, metrics =
    Engine.run ?obs ?loss ~graph ~failures ~max_rounds:duration ~seed
      (Agg.protocol ?ablation params)
  in
  let result = Agg.root_result states.(Graph.root) in
  let trace = { Checker.agg_nodes = states; agg_start = 1; failures; params; graph } in
  let correct =
    match result with
    | Agg.Aborted -> true
    | Agg.Value v -> check_value ~graph ~failures ~params ~metrics v
  in
  { result; trace; common = mk_common ~params ~metrics ~correct }

type value_outcome = {
  result : Agg.result;
  common : common;
}

let finish_brute_force ~graph ~failures ~params ~states ~metrics =
  let v = Brute_force.root_result states.(Graph.root) in
  let correct = check_value ~graph ~failures ~params ~metrics v in
  { result = Agg.Value v; common = mk_common ~params ~metrics ~correct }

let brute_force ?loss ?obs ~graph ~failures ~params ~seed () =
  let states, metrics =
    Engine.run ?obs ?loss ~graph ~failures ~max_rounds:(Brute_force.duration params) ~seed
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

let folklore ?loss ?obs ~graph ~failures ~params ~mode ~seed () =
  let states, metrics =
    Engine.run ?obs ?loss ~graph ~failures ~max_rounds:(Folklore.duration params mode) ~seed
      (Folklore.protocol params ~mode)
  in
  finish_folklore ~graph ~failures ~params ~states ~metrics

(* Algorithm 1 and unknown-f are two plans of one interval driver; both
   always output a value (the brute-force fallback cannot abort). *)
let run_intervals ?loss ?obs ~graph ~failures ~params ~seed ~max_rounds proto =
  let states, metrics = Engine.run ?obs ?loss ~graph ~failures ~max_rounds ~seed proto in
  let root = states.(Graph.root) in
  let v = Tradeoff.root_result root in
  let correct = check_value ~graph ~failures ~params ~metrics v in
  (root, Agg.Value v, mk_common ~params ~metrics ~correct)

type tradeoff_outcome = {
  result : Agg.result;
  how : Tradeoff.how;
  common : common;
}

let tradeoff ?loss ?obs ?strategy ~graph ~failures ~params ~b ~f ~seed () =
  let root, result, common =
    run_intervals ?loss ?obs ~graph ~failures ~params ~seed
      ~max_rounds:(Tradeoff.max_rounds params ~b)
      (Tradeoff.protocol ?strategy params ~b ~f)
  in
  { result; how = Tradeoff.root_how root; common }

type unknown_f_outcome = {
  result : Agg.result;
  how : Unknown_f.how;
  common : common;
}

let unknown_f ?loss ?obs ~graph ~failures ~params ~seed () =
  let root, result, common =
    run_intervals ?loss ?obs ~graph ~failures ~params ~seed
      ~max_rounds:(Unknown_f.max_rounds params) (Unknown_f.protocol params)
  in
  { result; how = Unknown_f.root_how root; common }

(* ------------------------------------------------------------------ *)
(* Protocol backends: the exact protocols above packaged behind the    *)
(* first-class Backend interface, plus the registry.                   *)
(* ------------------------------------------------------------------ *)

type backend = Backend.t

(* A watchdog-truncated chaos run: the protocol never output, and the
   violation on the chaos record is the authoritative verdict. *)
let halted_early ~params ~metrics =
  {
    Backend.result = Backend.Exact Agg.Aborted;
    common = mk_common ~params ~metrics ~correct:true;
    evidence = [ ("halted_early", "true") ];
  }

let agg_backend : backend =
  (module struct
    type state = Pair.node
    type msg = Message.body

    let name = "agg"
    let exact = true

    let guarantee =
      "zero-error or abort; with <= t edge failures: correct value, VERI accepts (Table 2)"

    let protocol ~graph:_ ~params ~b:_ ~f:_ = Pair.protocol params
    let max_rounds ~params ~b:_ ~f:_ = Pair.duration params

    let finish ~graph ~failures ~params ~b:_ ~f:_ ~states ~metrics =
      match finish_pair ~graph ~failures ~params ~states ~metrics with
      | { Checker.verdict = None; _ }, _ -> halted_early ~params ~metrics
      | ({ Checker.verdict = Some v; _ } as truth), common ->
        {
          Backend.result = Backend.Exact v.Pair.result;
          common;
          evidence =
            [
              ("veri_ok", string_of_bool v.Pair.veri_ok);
              ("lfc", string_of_bool truth.Checker.lfc);
              ("edge_failures", string_of_int truth.Checker.edge_failures);
            ];
        }

    let watch = Backend.cap_watch
  end)

let flood_backend : backend =
  (module struct
    type state = Brute_force.node
    type msg = Message.body

    let name = "flood"
    let exact = true
    let guarantee = "zero-error under any number of crashes; CC O(N log N)"
    let protocol ~graph:_ ~params ~b:_ ~f:_ = Brute_force.protocol params
    let max_rounds ~params ~b:_ ~f:_ = Brute_force.duration params

    let finish ~graph ~failures ~params ~b:_ ~f:_ ~states ~metrics =
      if Metrics.rounds metrics < Brute_force.duration params then halted_early ~params ~metrics
      else
        let o = finish_brute_force ~graph ~failures ~params ~states ~metrics in
        { Backend.result = Backend.Exact o.result; common = o.common; evidence = [] }

    let watch = Backend.cap_watch
  end)

let folklore_backend : backend =
  (module struct
    type state = Folklore.node
    type msg = Message.t

    let name = "folklore"
    let exact = true

    let guarantee =
      "zero-error with f + 1 retry epochs under <= f edge failures; aborts otherwise"

    let protocol ~graph:_ ~params ~b:_ ~f = Folklore.protocol params ~mode:(Folklore.Retry (f + 1))
    let max_rounds ~params ~b:_ ~f = Folklore.duration params (Folklore.Retry (f + 1))

    let finish ~graph ~failures ~params ~b:_ ~f:_ ~states ~metrics =
      if not (Folklore.root_done states.(Graph.root)) then halted_early ~params ~metrics
      else
        let o = finish_folklore ~graph ~failures ~params ~states ~metrics in
        {
          Backend.result = Backend.Exact o.result;
          common = o.common;
          evidence = [ ("epochs", string_of_int o.epochs) ];
        }

    let watch = Backend.cap_watch
  end)

let backends =
  [
    ("agg", agg_backend);
    ("flood", flood_backend);
    ("folklore", folklore_backend);
    ("pushsum", Gossip.backend);
    ("flowupdating", Flow_updating.backend);
    ("flowupdating-avg", Flow_updating.avg_backend);
  ]

let backend_of_string name = List.assoc_opt (String.lowercase_ascii name) backends
let exec = Backend.exec
let exec_chaos = Backend.exec_chaos
