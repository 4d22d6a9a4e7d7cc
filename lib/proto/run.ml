module Engine = Ftagg_sim.Engine
module Metrics = Ftagg_sim.Metrics
module Failure = Ftagg_sim.Failure
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

(* Wrap a body-level single-execution automaton as an engine protocol.
   Single-execution runs never need the exec tag, so the wire messages are
   raw bodies: the pre-overhaul [{ exec = 0; body }] boxing cost a
   filter_map + map + per-message reallocation for every node every round
   on the hot path.  [Message.bits] charges exactly what [Message.msg_bits]
   charged for the exec-0 wrapping, so the accounting is unchanged. *)
let single_exec_protocol ~name ~params ~create ~step ~is_done =
  {
    Engine.name;
    init = (fun u ~rng:_ -> create u);
    step = (fun ~round ~me:_ ~state ~inbox -> (state, step state ~rr:round ~inbox));
    msg_bits = Message.bits params;
    root_done = is_done;
    wake = Engine.every_round;
  }

type pair_outcome = {
  result : Agg.result;
  verdict : Pair.verdict;
  trace : Checker.agg_trace;
  veri_end : int;
  lfc : bool;
  edge_failures : int;
  common : common;
}

let pair ?ablation ?loss ?obs ~graph ~failures ~params ~seed () =
  let duration = Pair.duration params in
  let proto =
    single_exec_protocol ~name:"pair" ~params
      ~create:(fun u -> Pair.create ?ablation params ~me:u)
      ~step:Pair.step
      ~is_done:(fun _ -> false)
  in
  let states, metrics = Engine.run ?obs ?loss ~graph ~failures ~max_rounds:duration ~seed proto in
  let verdict = Pair.root_verdict states.(Graph.root) in
  let trace =
    {
      Checker.agg_nodes = Array.map Pair.agg states;
      agg_start = 1;
      failures;
      params;
      graph;
    }
  in
  let veri_end = duration in
  let lfc = Checker.has_lfc trace ~veri_end in
  let edge_failures = Checker.model_edge_failures ~graph ~failures ~round:duration in
  let correct =
    match verdict.Pair.result with
    | Agg.Aborted -> true
    | Agg.Value v -> check_value ~graph ~failures ~params ~metrics v
  in
  {
    result = verdict.Pair.result;
    verdict;
    trace;
    veri_end;
    lfc;
    edge_failures;
    common = mk_common ~params ~metrics ~correct;
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

let brute_force ?loss ?obs ~graph ~failures ~params ~seed () =
  let duration = Brute_force.duration params in
  let proto =
    single_exec_protocol ~name:"brute_force" ~params
      ~create:(fun u -> Brute_force.create params ~me:u)
      ~step:Brute_force.step
      ~is_done:(fun _ -> false)
  in
  let states, metrics = Engine.run ?obs ?loss ~graph ~failures ~max_rounds:duration ~seed proto in
  let v = Brute_force.root_result states.(Graph.root) in
  let correct = check_value ~graph ~failures ~params ~metrics v in
  { result = Agg.Value v; common = mk_common ~params ~metrics ~correct }

type folklore_outcome = {
  result : Agg.result;
  f_result : Folklore.result;
  epochs : int;
  common : common;
}

let folklore ?loss ?obs ~graph ~failures ~params ~mode ~seed () =
  let duration = Folklore.duration params mode in
  let proto =
    {
      Engine.name = "folklore";
      init = (fun u ~rng:_ -> Folklore.create params ~mode ~me:u);
      step =
        (fun ~round ~me:_ ~state ~inbox ->
          let out = Folklore.step state ~rr:round ~inbox in
          (state, out));
      msg_bits = Message.msg_bits params;
      root_done = Folklore.root_done;
      wake = Engine.every_round;
    }
  in
  let states, metrics = Engine.run ?obs ?loss ~graph ~failures ~max_rounds:duration ~seed proto in
  let root = states.(Graph.root) in
  let f_result = Folklore.root_result root in
  let result =
    match f_result with
    | Folklore.No_clean_epoch -> Agg.Aborted
    | Folklore.Value v -> Agg.Value v
  in
  let correct =
    match f_result with
    | Folklore.No_clean_epoch -> true
    | Folklore.Value v -> check_value ~graph ~failures ~params ~metrics v
  in
  {
    result;
    f_result;
    epochs = Folklore.epochs_used root;
    common = mk_common ~params ~metrics ~correct;
  }

type tradeoff_outcome = {
  result : Agg.result;
  how : Tradeoff.how;
  common : common;
}

let tradeoff_with ?loss ?obs ~strategy ~graph ~failures ~params ~b ~f ~seed () =
  let proto =
    {
      Engine.name = "tradeoff";
      init = (fun u ~rng -> Tradeoff.create ~strategy params ~b ~f ~me:u ~rng);
      step =
        (fun ~round ~me:_ ~state ~inbox ->
          let out = Tradeoff.step state ~round ~inbox in
          (state, out));
      msg_bits = Message.msg_bits params;
      root_done = Tradeoff.root_done;
      wake = Engine.every_round;
    }
  in
  let max_rounds = Tradeoff.max_rounds params ~b in
  let states, metrics = Engine.run ?obs ?loss ~graph ~failures ~max_rounds ~seed proto in
  let root = states.(Graph.root) in
  let v = Tradeoff.root_result root in
  let correct = check_value ~graph ~failures ~params ~metrics v in
  {
    result = Agg.Value v;
    how = Tradeoff.root_how root;
    common = mk_common ~params ~metrics ~correct;
  }

let tradeoff ?loss ?obs ~graph ~failures ~params ~b ~f ~seed () =
  tradeoff_with ?loss ?obs ~strategy:Tradeoff.Sampled ~graph ~failures ~params ~b ~f ~seed ()

type unknown_f_outcome = {
  result : Agg.result;
  how : Unknown_f.how;
  common : common;
}

let unknown_f ?loss ?obs ~graph ~failures ~params ~seed () =
  let proto =
    {
      Engine.name = "unknown_f";
      init = (fun u ~rng:_ -> Unknown_f.create params ~me:u);
      step =
        (fun ~round ~me:_ ~state ~inbox ->
          let out = Unknown_f.step state ~round ~inbox in
          (state, out));
      msg_bits = Message.msg_bits params;
      root_done = Unknown_f.root_done;
      wake = Engine.every_round;
    }
  in
  let max_rounds = Unknown_f.max_rounds params in
  let states, metrics = Engine.run ?obs ?loss ~graph ~failures ~max_rounds ~seed proto in
  let root = states.(Graph.root) in
  let v = Unknown_f.root_result root in
  let correct = check_value ~graph ~failures ~params ~metrics v in
  {
    result = Agg.Value v;
    how = Unknown_f.root_how root;
    common = mk_common ~params ~metrics ~correct;
  }

(* ------------------------------------------------------------------ *)
(* Protocol backends: the exact protocols above packaged behind the    *)
(* first-class Backend interface, plus the registry.                   *)
(* ------------------------------------------------------------------ *)

type backend = Backend.t

(* Generic chaos watch for the exact backends: honour a planted bit cap,
   nothing else — the full AGG+VERI invariant watchdog lives in
   Ftagg_chaos.Watchdog (it needs the Checker machinery the campaign
   already wires in for "agg" scenarios). *)
let cap_only_watch ?bit_cap ~params:_ ~graph:_ () =
  Option.map (fun cap -> Backend.bits_watch ~bit_cap:cap) bit_cap

let agg_backend : backend =
  (module struct
    type state = Pair.node
    type msg = Message.body

    let name = "agg"
    let exact = true

    let guarantee =
      "zero-error or abort; with <= t edge failures: correct value, VERI accepts (Table 2)"

    let protocol ~graph:_ ~params ~b:_ ~f:_ =
      single_exec_protocol ~name:"pair" ~params
        ~create:(fun u -> Pair.create params ~me:u)
        ~step:Pair.step
        ~is_done:(fun _ -> false)

    let max_rounds ~params ~b:_ ~f:_ = Pair.duration params

    let finish ~graph ~failures ~params ~b:_ ~f:_ ~states ~metrics =
      let duration = Pair.duration params in
      let rounds = Metrics.rounds metrics in
      if rounds < duration then
        (* Watchdog-truncated chaos run: the pair never output — the
           violation on the chaos record is the authoritative verdict. *)
        {
          Backend.result = Backend.Exact Agg.Aborted;
          common = mk_common ~params ~metrics ~correct:true;
          evidence = [ ("halted_early", "true") ];
        }
      else begin
        let verdict = Pair.root_verdict states.(Graph.root) in
        let trace =
          {
            Checker.agg_nodes = Array.map Pair.agg states;
            agg_start = 1;
            failures;
            params;
            graph;
          }
        in
        let lfc = Checker.has_lfc trace ~veri_end:duration in
        let edge_failures = Checker.model_edge_failures ~graph ~failures ~round:duration in
        let correct =
          match verdict.Pair.result with
          | Agg.Aborted -> true
          | Agg.Value v -> check_value ~graph ~failures ~params ~metrics v
        in
        {
          Backend.result = Backend.Exact verdict.Pair.result;
          common = mk_common ~params ~metrics ~correct;
          evidence =
            [
              ("veri_ok", string_of_bool verdict.Pair.veri_ok);
              ("lfc", string_of_bool lfc);
              ("edge_failures", string_of_int edge_failures);
            ];
        }
      end

    let watch = cap_only_watch
  end)

let flood_backend : backend =
  (module struct
    type state = Brute_force.node
    type msg = Message.body

    let name = "flood"
    let exact = true
    let guarantee = "zero-error under any number of crashes; CC O(N log N)"

    let protocol ~graph:_ ~params ~b:_ ~f:_ =
      single_exec_protocol ~name:"brute_force" ~params
        ~create:(fun u -> Brute_force.create params ~me:u)
        ~step:Brute_force.step
        ~is_done:(fun _ -> false)

    let max_rounds ~params ~b:_ ~f:_ = Brute_force.duration params

    let finish ~graph ~failures ~params ~b:_ ~f:_ ~states ~metrics =
      (* A watchdog-truncated run never produced the root's fold — report
         it as an abort; the violation is the authoritative verdict. *)
      if Metrics.rounds metrics < Brute_force.duration params then
        {
          Backend.result = Backend.Exact Agg.Aborted;
          common = mk_common ~params ~metrics ~correct:true;
          evidence = [ ("halted_early", "true") ];
        }
      else begin
        let v = Brute_force.root_result states.(Graph.root) in
        let correct = check_value ~graph ~failures ~params ~metrics v in
        {
          Backend.result = Backend.Exact (Agg.Value v);
          common = mk_common ~params ~metrics ~correct;
          evidence = [];
        }
      end

    let watch = cap_only_watch
  end)

let folklore_backend : backend =
  (module struct
    type state = Folklore.node
    type msg = Message.t

    let name = "folklore"
    let exact = true

    let guarantee =
      "zero-error with f + 1 retry epochs under <= f edge failures; aborts otherwise"

    let protocol ~graph:_ ~params ~b:_ ~f =
      let mode = Folklore.Retry (f + 1) in
      {
        Engine.name = "folklore";
        init = (fun u ~rng:_ -> Folklore.create params ~mode ~me:u);
        step =
          (fun ~round ~me:_ ~state ~inbox ->
            let out = Folklore.step state ~rr:round ~inbox in
            (state, out));
        msg_bits = Message.msg_bits params;
        root_done = Folklore.root_done;
        wake = Engine.every_round;
      }

    let max_rounds ~params ~b:_ ~f = Folklore.duration params (Folklore.Retry (f + 1))

    let finish ~graph ~failures ~params ~b:_ ~f:_ ~states ~metrics =
      let root = states.(Graph.root) in
      (* [root_result] raises on a watchdog-truncated run (no verdict
         yet): report an abort, the violation is authoritative. *)
      match Folklore.root_result root with
      | exception Invalid_argument _ ->
        {
          Backend.result = Backend.Exact Agg.Aborted;
          common = mk_common ~params ~metrics ~correct:true;
          evidence = [ ("halted_early", "true") ];
        }
      | f_result ->
        let result, correct =
          match f_result with
          | Folklore.No_clean_epoch -> (Agg.Aborted, true)
          | Folklore.Value v -> (Agg.Value v, check_value ~graph ~failures ~params ~metrics v)
        in
        {
          Backend.result = Backend.Exact result;
          common = mk_common ~params ~metrics ~correct;
          evidence = [ ("epochs", string_of_int (Folklore.epochs_used root)) ];
        }

    let watch = cap_only_watch
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
