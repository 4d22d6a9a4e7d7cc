module Engine = Ftagg_sim.Engine
module Metrics = Ftagg_sim.Metrics
module Failure = Ftagg_sim.Failure
module Graph = Ftagg_graph.Graph
module Params = Ftagg_proto.Params
module Agg = Ftagg_proto.Agg
module Registry = Ftagg_obs.Registry

type outcome = {
  result : Agg.result;
  metrics : Metrics.t;
  rounds : int;
  states : Agg.node array;
  caller_id : int -> int;
}

let params ?(t = 1) ~graph ~inputs () =
  let n = Bigraph.n graph in
  if Array.length inputs <> n then invalid_arg "Scale_run.params: inputs length mismatch";
  Params.of_diameter ~t ~d:(Bigraph.pseudo_diameter graph) ~inputs ()

let protocol p = Agg.protocol p

let outcome ?(caller_id = Fun.id) (states, metrics) =
  {
    result = Agg.root_result states.(Graph.root);
    metrics;
    rounds = Metrics.rounds metrics;
    states;
    caller_id;
  }

(* The run on [Layout.make graph ~domains]: inputs and crash rounds are
   permuted in, states and metrics mapped back to the caller's ids.  A
   schedule without crashes is the same under every numbering. *)
let agg ?(domains = 1) ?meter ?registry ~graph ~failures ~params ~seed () =
  let n = Bigraph.n graph in
  if params.Params.n <> n || Array.length (Failure.crash_rounds failures) <> n then
    invalid_arg "Scale_run.agg: params or failures do not cover the graph's nodes";
  let t0 = Unix.gettimeofday () in
  let layout = Layout.make graph ~domains in
  (* Only the ids outlive the run, not the renumbered CSR. *)
  let ids = layout.Layout.caller_id in
  let caller_id v = Bigarray.Array1.unsafe_get ids v in
  let inputs = params.Params.inputs in
  let lparams =
    Params.with_inputs params ~caaf:params.Params.caaf
      ~inputs:(Array.init n (fun v -> inputs.(caller_id v)))
  in
  let lfailures =
    if Failure.crashed_nodes failures = [] then failures
    else
      let crash = Failure.crash_rounds failures in
      Failure.of_crash_rounds (Array.init n (fun v -> crash.(caller_id v)))
  in
  let relabel_s = Unix.gettimeofday () -. t0 in
  let states, metrics =
    Executor.run ~domains ?meter ?registry ~graph:layout.Layout.graph ~failures:lfailures
      ~max_rounds:(Agg.duration params) ~seed (protocol lparams)
  in
  let t1 = Unix.gettimeofday () in
  let states =
    let back = Array.make n states.(Graph.root) in
    Array.iteri (fun v st -> back.(caller_id v) <- st) states;
    back
  in
  Metrics.relabel metrics caller_id;
  (match registry with
  | Some reg when Registry.enabled () ->
    Registry.set_gauge reg "scale_layout_seconds" (relabel_s +. Unix.gettimeofday () -. t1)
  | _ -> ());
  outcome ~caller_id (states, metrics)

let reference ~graph ~failures ~params ~seed =
  outcome
    (Engine.run_reference ~graph ~failures ~max_rounds:(Agg.duration params) ~seed
       (protocol params))

let agrees a b =
  let n = Array.length a.states in
  let rec per_node u =
    u >= n
    || Metrics.bits_sent a.metrics u = Metrics.bits_sent b.metrics u
       && Metrics.msgs_sent a.metrics u = Metrics.msgs_sent b.metrics u
       && per_node (u + 1)
  in
  a.result = b.result
  && a.rounds = b.rounds
  && Metrics.cc a.metrics = Metrics.cc b.metrics
  && Metrics.total_bits a.metrics = Metrics.total_bits b.metrics
  && Array.length b.states = n
  && per_node 0

let expected_sum p = Array.fold_left ( + ) 0 p.Params.inputs
