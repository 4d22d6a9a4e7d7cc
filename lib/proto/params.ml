module Bits = Ftagg_util.Bits
module Graph = Ftagg_graph.Graph
module Path = Ftagg_graph.Path

type t = {
  n : int;
  d : int;
  c : int;
  t : int;
  max_input : int;
  caaf : Ftagg_caaf.Caaf.t;
  inputs : int array;
  id_bits : int;
  level_bits : int;
  value_bits : int;
  input_bits : int;
}

let check ~who ~n ~c ~t inputs =
  if Array.length inputs <> n then invalid_arg (who ^ ": wrong inputs length");
  Array.iter (fun x -> if x < 0 then invalid_arg (who ^ ": negative input")) inputs;
  if t < 0 then invalid_arg (who ^ ": t must be >= 0");
  if c < 1 then invalid_arg (who ^ ": c must be >= 1")

(* Every value is built here, after [check]: the widths [Message.bits]
   charges are computed once per parameter set, from the fields they
   depend on. *)
let fill ~n ~d ~c ~t ~caaf ~inputs =
  let max_input = max 1 (Array.fold_left max 0 inputs) in
  {
    n;
    d;
    c;
    t;
    max_input;
    caaf;
    inputs;
    id_bits = max 1 (Bits.bits_for n);
    level_bits = max 1 (Bits.bits_for_value ((c * d) + 1));
    value_bits = max 1 (caaf.Ftagg_caaf.Caaf.domain_bits ~n ~max_input);
    input_bits = max 1 (Bits.bits_for_value max_input);
  }

let make ?(c = 2) ?(t = 0) ?(caaf = Ftagg_caaf.Instances.sum) ~graph ~inputs () =
  let n = Graph.n graph in
  check ~who:"Params.make" ~n ~c ~t inputs;
  let d =
    match Path.diameter graph with
    | Some d -> max d 1
    | None -> invalid_arg "Params.make: graph is disconnected"
  in
  fill ~n ~d ~c ~t ~caaf ~inputs

let of_diameter ?(t = 0) ~d ~inputs () =
  let n = Array.length inputs in
  check ~who:"Params.of_diameter" ~n ~c:2 ~t inputs;
  fill ~n ~d ~c:2 ~t ~caaf:Ftagg_caaf.Instances.sum ~inputs

let with_t p t =
  if t < 0 then invalid_arg "Params.with_t: t must be >= 0";
  { p with t }

let with_inputs p ~caaf ~inputs =
  check ~who:"Params.with_inputs" ~n:p.n ~c:p.c ~t:p.t inputs;
  fill ~n:p.n ~d:p.d ~c:p.c ~t:p.t ~caaf ~inputs

let cd p = p.c * p.d
let id_bits p = p.id_bits
let level_bits p = p.level_bits
let value_bits p = p.value_bits

let log_n p = p.id_bits

let agg_bit_budget p = ((11 * p.t) + 14) * (log_n p + 5)
let veri_bit_budget p = ((5 * p.t) + 7) * ((3 * log_n p) + 10)

let random_inputs ~rng ~n ~max_input =
  Array.init n (fun _ -> Ftagg_util.Prng.int rng (max_input + 1))
