module Graph = Ftagg_graph.Graph
module Engine = Ftagg_sim.Engine
module Metrics = Ftagg_sim.Metrics
module Prng = Ftagg_util.Prng

type outcome = {
  estimate : float;
  relative_error : float;
  cc : int;
  rounds : int;
}

let bitmap_bits = 32
let phi = 0.77351  (* Flajolet–Martin's magic constant *)

(* One synopsis = k bitmaps packed as ints. *)
type synopsis = int array

type msg = Synopsis of synopsis

(* Deterministic per-element hashing: a fresh splitmix stream seeded by
   (bitmap index, element) yields the geometric bit position. *)
let insert syn ~element =
  Array.iteri
    (fun j bitmap ->
      let h = Prng.create ((element * 1_000_003) + j) in
      (* geometric(1/2): position of the first heads in a fair-coin run *)
      let rec first_heads p =
        if p >= bitmap_bits - 1 || Prng.bool h then p else first_heads (p + 1)
      in
      syn.(j) <- bitmap lor (1 lsl first_heads 0))
    syn

let merge a b = Array.mapi (fun j x -> x lor b.(j)) a

let lowest_zero bitmap =
  let rec go i = if i >= bitmap_bits then bitmap_bits else if bitmap land (1 lsl i) = 0 then i else go (i + 1) in
  go 0

let estimate_of syn =
  let k = Array.length syn in
  let mean_z =
    float_of_int (Array.fold_left (fun acc b -> acc + lowest_zero b) 0 syn)
    /. float_of_int k
  in
  (2.0 ** mean_z) /. phi

type state = { mutable syn : synopsis }

let run_generic ~graph ~failures ~k ~rounds ~seed ~contribution ~truth =
  if k < 1 then invalid_arg "Synopsis: need k >= 1";
  let proto =
    {
      Engine.init =
        (fun u ~rng:_ ->
          let syn = Array.make k 0 in
          List.iter (fun e -> insert syn ~element:e) (contribution u);
          { syn });
      step =
        (fun ~round:_ ~me:_ ~state ~inbox ->
          List.iter (fun (_, Synopsis s) -> state.syn <- merge state.syn s) inbox;
          (state, [ Synopsis state.syn ]));
      msg_bits = (fun (Synopsis _) -> 5 + (k * bitmap_bits));
      root_done = (fun _ -> false);
      wake = Engine.every_round;
    }
  in
  let states, metrics = Engine.run ~graph ~failures ~max_rounds:rounds ~seed proto in
  let estimate = estimate_of states.(Graph.root).syn in
  let relative_error =
    if truth = 0.0 then Float.abs estimate else Float.abs (estimate -. truth) /. truth
  in
  { estimate; relative_error; cc = Metrics.cc metrics; rounds = Metrics.rounds metrics }

let run_count ~graph ~failures ~k ~rounds ~seed =
  let n = Graph.n graph in
  run_generic ~graph ~failures ~k ~rounds ~seed
    ~contribution:(fun u -> [ u + 1 ])
    ~truth:(float_of_int n)

let run_sum ~graph ~failures ~inputs ~k ~rounds ~seed =
  let n = Graph.n graph in
  if Array.length inputs <> n then invalid_arg "Synopsis.run_sum: wrong inputs length";
  run_generic ~graph ~failures ~k ~rounds ~seed
    ~contribution:(fun u -> List.init inputs.(u) (fun j -> (u * 100_000) + j + 1))
    ~truth:(float_of_int (Array.fold_left ( + ) 0 inputs))
