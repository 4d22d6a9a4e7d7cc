module Engine = Ftagg_sim.Engine
module Metrics = Ftagg_sim.Metrics
module Graph = Ftagg_graph.Graph
module Params = Ftagg_proto.Params
module Agg = Ftagg_proto.Agg

type outcome = {
  result : Agg.result;
  metrics : Metrics.t;
  rounds : int;
  states : Agg.node array;
}

let params ?(c = 2) ?(t = 1) ~graph ~inputs () =
  let n = Bigraph.n graph in
  if Array.length inputs <> n then invalid_arg "Scale_run.params: inputs length mismatch";
  Params.of_diameter ~c ~t ~d:(Bigraph.pseudo_diameter graph) ~inputs ()

let protocol p = Agg.protocol p

let outcome (states, metrics) =
  { result = Agg.root_result states.(Graph.root); metrics; rounds = Metrics.rounds metrics; states }

let agg ?domains ?meter ?registry ~graph ~failures ~params ~seed () =
  outcome
    (Executor.run ?domains ?meter ?registry ~graph ~failures ~max_rounds:(Agg.duration params)
       ~seed (protocol params))

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
