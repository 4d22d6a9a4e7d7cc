module Graph = Ftagg_graph.Graph
module Engine = Ftagg_sim.Engine
module Metrics = Ftagg_sim.Metrics

let value_bits = 32

type state = {
  mutable s : float;
  mutable w : float;
  degree : int;  (* static degree; a real node learns it during discovery *)
}

type msg = Share of { s : float; w : float }

let push_sum_protocol ~graph ~inputs =
  let n = Graph.n graph in
  if Array.length inputs <> n then invalid_arg "Gossip.run: wrong inputs length";
  {
    Engine.init =
      (fun u ~rng:_ ->
        {
          s = float_of_int inputs.(u);
          w = (if u = Graph.root then 1.0 else 0.0);
          degree = Graph.degree graph u;
        });
    step =
      (fun ~round:_ ~me:_ ~state ~inbox ->
        List.iter
          (fun (_, Share { s; w }) ->
            state.s <- state.s +. s;
            state.w <- state.w +. w)
          inbox;
        (* Split the current mass over self + neighbours and broadcast
           one share; keep our own share. *)
        let parts = float_of_int (state.degree + 1) in
        let share_s = state.s /. parts and share_w = state.w /. parts in
        state.s <- share_s;
        state.w <- share_w;
        (state, [ Share { s = share_s; w = share_w } ]));
    msg_bits = (fun (Share _) -> 5 + (2 * value_bits));
    root_done = (fun _ -> false);
    wake = Engine.every_round;
  }

let estimate_of_root (root : state) = if root.w > 0.0 then root.s /. root.w else Float.nan

let rel_error ~truth estimate =
  if truth = 0.0 then Float.abs estimate else Float.abs (estimate -. truth) /. truth

let package ~graph ~failures ~params ~states ~metrics =
  let root = states.(Graph.root) in
  let estimate = estimate_of_root root in
  let truth = float_of_int (Array.fold_left ( + ) 0 params.Params.inputs) in
  let relative_error = rel_error ~truth estimate in
  let correct =
    Float.is_finite estimate
    && Float.abs estimate < 1e15
    && Checker.result_correct ~graph ~failures ~end_round:(Metrics.rounds metrics) ~params
         (int_of_float (Float.round estimate))
  in
  {
    Backend.result = Backend.Estimate { value = estimate; relative_error };
    common = Backend.mk_common ~d:params.Params.d ~metrics ~correct;
    evidence =
      [
        ("estimate_root", Printf.sprintf "%.6g" estimate);
        ("w_root", Printf.sprintf "%.6g" root.w);
      ];
  }

let run ~graph ~failures ~params ~rounds ~seed () =
  let states, metrics =
    Engine.run ~graph ~failures ~max_rounds:rounds ~seed
      (push_sum_protocol ~graph ~inputs:params.Params.inputs)
  in
  package ~graph ~failures ~params ~states ~metrics

let backend =
  Backend.make ~name:"pushsum" ~exact:false
    ~guarantee:
      "approximate; mass held by a crashed node is destroyed, so the estimate keeps a \
       permanent error after crashes"
    ~protocol:(fun ~graph ~params ~b:_ ~f:_ ->
      push_sum_protocol ~graph ~inputs:params.Params.inputs)
    ~max_rounds:(fun ~params ~b ~f:_ -> b * params.Params.d)
    (fun ~graph ~failures ~params ~b:_ ~f:_ ~states ~metrics ->
      package ~graph ~failures ~params ~states ~metrics)
