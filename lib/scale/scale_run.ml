module Engine = Ftagg_sim.Engine
module Metrics = Ftagg_sim.Metrics
module Graph = Ftagg_graph.Graph
module Params = Ftagg_proto.Params
module Agg = Ftagg_proto.Agg
module Message = Ftagg_proto.Message

type outcome = {
  result : Agg.result;
  metrics : Metrics.t;
  rounds : int;
  states : Agg.node array;
}

let params ?(c = 2) ?(t = 1) ~graph ~inputs () =
  let n = Bigraph.n graph in
  if Array.length inputs <> n then invalid_arg "Scale_run.params: inputs length mismatch";
  Array.iter (fun x -> if x < 0 then invalid_arg "Scale_run.params: negative input") inputs;
  let d = Bigraph.pseudo_diameter graph in
  let max_input = Array.fold_left max 1 inputs in
  { Params.n; d; c; t; max_input; caaf = Ftagg_caaf.Instances.sum; inputs }

let protocol p =
  {
    Engine.name = "agg";
    init = (fun u ~rng:_ -> Agg.create p ~me:u);
    step = (fun ~round ~me:_ ~state ~inbox -> (state, Agg.step state ~rr:round ~inbox));
    msg_bits = Message.bits p;
    root_done = (fun _ -> false);
  }

let agg ?domains ?meter ?registry ~graph ~failures ~params ~seed () =
  let states, metrics =
    Executor.run ?domains ?meter ?registry ~graph ~failures
      ~max_rounds:(Agg.duration params) ~seed (protocol params)
  in
  {
    result = Agg.root_result states.(Graph.root);
    metrics;
    rounds = Metrics.rounds metrics;
    states;
  }

let expected_sum p = Array.fold_left ( + ) 0 p.Params.inputs
