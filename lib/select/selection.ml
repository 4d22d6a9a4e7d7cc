module Bits = Ftagg_util.Bits
module Graph = Ftagg_graph.Graph
module Failure = Ftagg_sim.Failure
module Metrics = Ftagg_sim.Metrics
module Params = Ftagg_proto.Params
module Run = Ftagg_proto.Run
module Message = Ftagg_proto.Message

type outcome = {
  value : int;
  probes : int;
  metrics : Metrics.t;
  rounds : int;
}

(* One fault-tolerant COUNT of [{i : pred i}] via the tradeoff protocol.
   The threshold announcement is a flood of the probe value: every live
   node forwards it once, charged at the value's width (plus tag and id,
   matching Message's accounting) over c·d rounds. *)
let count_probe ~graph ~failures ~params ~b ~f ~seed ~offset pred =
  let n = Graph.n graph in
  let inputs = Array.init n (fun i -> if pred i then 1 else 0) in
  let probe_params = Params.with_inputs params ~caaf:Ftagg_caaf.Instances.count ~inputs in
  let shifted = Failure.shift failures ~by:offset in
  let announce_rounds = Params.cd params in
  let announce_bits =
    5 + Params.id_bits params + Bits.bits_for_value params.Params.max_input
  in
  let o =
    Run.tradeoff ~graph ~failures:(Failure.shift shifted ~by:announce_rounds)
      ~params:probe_params ~b ~f ~seed ()
  in
  let metrics = o.Run.common.Run.metrics in
  (* Charge the announcement flood to every node alive when it happened. *)
  for u = 0 to n - 1 do
    if Failure.is_alive shifted ~node:u ~round:announce_rounds then
      Metrics.charge metrics ~node:u ~bits:announce_bits
  done;
  let total_rounds = Metrics.rounds metrics + announce_rounds in
  Metrics.note_round metrics total_rounds;
  ((Run.value_exn o.Run.result), metrics, total_rounds)

let select ~graph ~failures ~params ~b ~f ~k ~seed =
  if k < 1 then invalid_arg "Selection.select: k must be >= 1";
  let metrics = Metrics.create (Graph.n graph) in
  let probes = ref 0 in
  let offset = ref 0 in
  let probe v =
    incr probes;
    let count, m, rounds =
      count_probe ~graph ~failures ~params ~b ~f ~seed:(seed + !probes) ~offset:!offset
        (fun i -> params.Params.inputs.(i) <= v)
    in
    offset := !offset + rounds;
    Metrics.merge_into metrics m;
    count
  in
  (* Binary search for the smallest v with count_{<=v} >= k. *)
  let lo = ref 0 and hi = ref params.Params.max_input in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if probe mid >= k then hi := mid else lo := mid + 1
  done;
  { value = !lo; probes = !probes; metrics; rounds = !offset }

let median ~graph ~failures ~params ~b ~f ~seed =
  let m, metrics0, rounds0 =
    count_probe ~graph ~failures ~params ~b ~f ~seed ~offset:0 (fun _ -> true)
  in
  let k = max 1 ((m + 1) / 2) in
  let o =
    select ~graph ~failures:(Failure.shift failures ~by:rounds0) ~params ~b ~f ~k
      ~seed:(seed + 1)
  in
  Metrics.merge_into o.metrics metrics0;
  { o with probes = o.probes + 1; rounds = o.rounds + rounds0 }

let kth_smallest xs k =
  let a = Array.of_list xs in
  if k < 1 || k > Array.length a then invalid_arg "Selection.kth_smallest";
  Array.sort compare a;
  a.(k - 1)
