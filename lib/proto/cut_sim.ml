module Graph = Ftagg_graph.Graph
module Engine = Ftagg_sim.Engine
module Metrics = Ftagg_sim.Metrics

type cut = {
  alice : bool array;
  boundary_alice : int list;
  boundary_bob : int list;
  cut_edges : int;
}

let partition graph ~alice:side =
  let n = Graph.n graph in
  let alice = Array.init n side in
  if not alice.(Graph.root) then invalid_arg "Cut_sim.partition: root must be on Alice's side";
  let boundary_alice = ref [] and boundary_bob = ref [] and cut_edges = ref 0 in
  Graph.iter_edges graph (fun u v ->
      if alice.(u) <> alice.(v) then begin
        incr cut_edges;
        let a, b = if alice.(u) then (u, v) else (v, u) in
        if not (List.mem a !boundary_alice) then boundary_alice := a :: !boundary_alice;
        if not (List.mem b !boundary_bob) then boundary_bob := b :: !boundary_bob
      end);
  {
    alice;
    boundary_alice = List.sort compare !boundary_alice;
    boundary_bob = List.sort compare !boundary_bob;
    cut_edges = !cut_edges;
  }

let halves graph =
  let n = Graph.n graph in
  partition graph ~alice:(fun u -> u < (n + 1) / 2)

type transcript = {
  alice_to_bob_bits : int;
  bob_to_alice_bits : int;
  total_bits : int;
  protocol_cc : int;
}

let sum_transcript ~graph ~failures ~params ~b ~f ~seed ~cut =
  let a2b = ref 0 and b2a = ref 0 in
  let is_boundary_alice = Array.make (Graph.n graph) false in
  let is_boundary_bob = Array.make (Graph.n graph) false in
  List.iter (fun u -> is_boundary_alice.(u) <- true) cut.boundary_alice;
  List.iter (fun u -> is_boundary_bob.(u) <- true) cut.boundary_bob;
  let observer ~round:_ ~node out =
    let bits =
      List.fold_left (fun acc m -> acc + Message.msg_bits params m) 0 out
    in
    if is_boundary_alice.(node) then a2b := !a2b + bits
    else if is_boundary_bob.(node) then b2a := !b2a + bits
  in
  let _, metrics =
    Engine.run ~observer ~graph ~failures ~max_rounds:(Tradeoff.max_rounds params ~b) ~seed
      (Tradeoff.protocol params ~b ~f)
  in
  {
    alice_to_bob_bits = !a2b;
    bob_to_alice_bits = !b2a;
    total_bits = !a2b + !b2a;
    protocol_cc = Metrics.cc metrics;
  }
