module Graph = Ftagg_graph.Graph
module Failure = Ftagg_sim.Failure
module Metrics = Ftagg_sim.Metrics
module Params = Ftagg_proto.Params
module Run = Ftagg_proto.Run
module Instances = Ftagg_caaf.Instances

type outcome = {
  average : float;
  variance : float;
  range : int;
  population : int;
  metrics : Metrics.t;
  rounds : int;
}

let summary ~graph ~failures ~params ~b ~f ~seed =
  let n = Graph.n graph in
  let metrics = Metrics.create n in
  let offset = ref 0 in
  let step = ref 0 in
  let component ~caaf ~inputs =
    incr step;
    let p = Params.with_inputs params ~caaf ~inputs in
    let o =
      Run.tradeoff ~graph
        ~failures:(Failure.shift failures ~by:!offset)
        ~params:p ~b ~f ~seed:(seed + !step) ()
    in
    offset := !offset + o.Run.common.Run.rounds;
    Metrics.merge_into metrics o.Run.common.Run.metrics;
    (Run.value_exn o.Run.result)
  in
  let inputs = params.Params.inputs in
  let sum = component ~caaf:Instances.sum ~inputs in
  let count = component ~caaf:Instances.count ~inputs:(Array.make n 1) in
  let sumsq = component ~caaf:Instances.sum ~inputs:(Array.map (fun x -> x * x) inputs) in
  let maxv = component ~caaf:Instances.max_ ~inputs in
  let minv = component ~caaf:Instances.min_ ~inputs in
  let count = max count 1 in
  let average = float_of_int sum /. float_of_int count in
  let variance =
    Float.max 0.0 ((float_of_int sumsq /. float_of_int count) -. (average *. average))
  in
  { average; variance; range = maxv - minv; population = count; metrics; rounds = !offset }
