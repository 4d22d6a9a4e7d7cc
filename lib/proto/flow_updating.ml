module Graph = Ftagg_graph.Graph
module Engine = Ftagg_sim.Engine
module Metrics = Ftagg_sim.Metrics
module Failure = Ftagg_sim.Failure

type mode =
  | Sum
  | Avg

let value_bits = 32

type state = {
  me : int;
  input : float;
  neighbors : int array;
  flows : float array;  (* F_me(j), aligned with [neighbors] *)
  alive : bool array;  (* neighbour believed alive, aligned *)
  mutable estimate : float;
  mutable dead : int;  (* slots declared dead (flows reset) *)
}

type msg = Flow of { dst : int; flow : float; est : float }

let node_estimate st = st.estimate
let node_net_flow st = Array.fold_left ( +. ) 0.0 st.flows
let dead_links st = st.dead

let broadcast st =
  let out = ref [] in
  for k = Array.length st.neighbors - 1 downto 0 do
    if st.alive.(k) then
      out := Flow { dst = st.neighbors.(k); flow = st.flows.(k); est = st.estimate } :: !out
  done;
  !out

let protocol ~graph ~params () =
  let msg_cost = 5 + Params.id_bits params + (2 * value_bits) in
  {
    Engine.init =
      (fun u ~rng:_ ->
        let neighbors = Array.of_list (Graph.neighbors graph u) in
        let deg = Array.length neighbors in
        {
          me = u;
          input = float_of_int params.Params.inputs.(u);
          neighbors;
          flows = Array.make deg 0.0;
          alive = Array.make deg true;
          estimate = float_of_int params.Params.inputs.(u);
          dead = 0;
        });
    step =
      (fun ~round ~me ~state:st ~inbox ->
        if Ftagg_obs.Span.active () then
          Ftagg_obs.Span.phase ~node:me
            (if round = 1 then "flowupdating/seed" else "flowupdating/iterate");
        if round = 1 then (st, broadcast st)
        else begin
          let deg = Array.length st.neighbors in
          let heard = Array.make deg false in
          let recv_flow = Array.make deg 0.0 in
          let recv_est = Array.make deg 0.0 in
          let index_of sender =
            let rec go k = if k >= deg then -1 else if st.neighbors.(k) = sender then k else go (k + 1) in
            go 0
          in
          List.iter
            (fun (sender, Flow { dst; flow; est }) ->
              if dst = st.me then begin
                let k = index_of sender in
                if k >= 0 then begin
                  (* A silent neighbour was declared dead; a late (delayed)
                     message revives it.  Duplicates just overwrite. *)
                  if not st.alive.(k) then begin
                    st.alive.(k) <- true;
                    st.dead <- st.dead - 1
                  end;
                  heard.(k) <- true;
                  recv_flow.(k) <- flow;
                  recv_est.(k) <- est
                end
              end)
            inbox;
          (* Crash recovery: a believed-alive neighbour that went silent is
             dead; resetting its flow returns the routed mass to our side. *)
          for k = 0 to deg - 1 do
            if st.alive.(k) && not heard.(k) then begin
              st.alive.(k) <- false;
              st.flows.(k) <- 0.0;
              st.dead <- st.dead + 1
            end
          done;
          (* Adopt the neighbours' view of each shared flow. *)
          for k = 0 to deg - 1 do
            if heard.(k) then st.flows.(k) <- -.recv_flow.(k)
          done;
          let own = st.input -. Array.fold_left ( +. ) 0.0 st.flows in
          let live = ref 0 and est_sum = ref 0.0 in
          for k = 0 to deg - 1 do
            if heard.(k) then begin
              incr live;
              est_sum := !est_sum +. recv_est.(k)
            end
          done;
          let a = (own +. !est_sum) /. float_of_int (!live + 1) in
          for k = 0 to deg - 1 do
            if heard.(k) then st.flows.(k) <- st.flows.(k) +. (a -. recv_est.(k))
          done;
          st.estimate <- a;
          (st, broadcast st)
        end);
    msg_bits = (fun (Flow _) -> msg_cost);
    root_done = (fun _ -> false);
    wake = Engine.every_round;
  }

let run_states ~graph ~failures ~params ~rounds ~seed () =
  Engine.run ~graph ~failures ~max_rounds:rounds ~seed (protocol ~graph ~params ())

(* Σ over intact edges of |F_u(v) + F_v(u)| — exactly 0 at the
   antisymmetric fixed point, so it doubles as a convergence witness. *)
let flow_skew ~failures states =
  let skew = ref 0.0 in
  let n = Array.length states in
  for u = 0 to n - 1 do
    if Failure.crash_round failures u = Failure.never then
      let su = states.(u) in
      Array.iteri
        (fun k v ->
          if v > u && Failure.crash_round failures v = Failure.never then begin
            let sv = states.(v) in
            let rec find i =
              if i >= Array.length sv.neighbors then 0.0
              else if sv.neighbors.(i) = u then sv.flows.(i)
              else find (i + 1)
            in
            skew := !skew +. Float.abs (su.flows.(k) +. find 0)
          end)
        su.neighbors
  done;
  !skew

let finish ~mode ~graph ~failures ~params ~states ~metrics =
  let root = states.(Graph.root) in
  let n = float_of_int params.Params.n in
  let avg = root.estimate in
  let sum_est = avg *. n in
  let value = match mode with Sum -> sum_est | Avg -> avg in
  let truth_sum = float_of_int (Array.fold_left ( + ) 0 params.Params.inputs) in
  let truth = match mode with Sum -> truth_sum | Avg -> truth_sum /. n in
  let relative_error =
    if truth = 0.0 then Float.abs value else Float.abs (value -. truth) /. Float.abs truth
  in
  let correct =
    Float.is_finite sum_est
    && Float.abs sum_est < 1e15
    && Checker.result_correct ~graph ~failures ~end_round:(Metrics.rounds metrics) ~params
         (int_of_float (Float.round sum_est))
  in
  let dead = Array.fold_left (fun acc st -> acc + st.dead) 0 states in
  {
    Backend.result = Backend.Estimate { value; relative_error };
    common = Backend.mk_common ~d:params.Params.d ~metrics ~correct;
    evidence =
      [
        ("estimate_root", Printf.sprintf "%.6g" value);
        ("dead_links", string_of_int dead);
        ("flow_skew", Printf.sprintf "%.6g" (flow_skew ~failures states));
      ];
  }

let run ~graph ~failures ~params ~rounds ~seed () =
  let states, metrics = run_states ~graph ~failures ~params ~rounds ~seed () in
  finish ~mode:Sum ~graph ~failures ~params ~states ~metrics

let finite_watch (view : state Engine.view) =
  let states = view.Engine.v_states in
  let n = Array.length states in
  let rec go u =
    if u >= n then None
    else if not (Float.is_finite states.(u).estimate) then
      Some
        ( "flow_estimate_finite",
          Printf.sprintf "node %d's estimate is %h" u states.(u).estimate )
    else go (u + 1)
  in
  go 0

let make_backend name mode =
  Backend.make ~name ~exact:false
    ~guarantee:
      "approximate; mass-conserving: crash-reset flows return routed mass, estimates \
       re-converge to the survivors' average"
    ~watch:(fun ?bit_cap ~params:_ ~graph:_ ~b:_ ~f:_ () ->
      Some
        (fun view ->
          match Option.bind bit_cap (fun cap -> Backend.bits_watch ~bit_cap:cap view) with
          | Some v -> Some v
          | None -> finite_watch view))
    ~protocol:(fun ~graph ~params ~b:_ ~f:_ -> protocol ~graph ~params ())
    ~max_rounds:(fun ~params ~b ~f:_ -> b * params.Params.d)
    (fun ~graph ~failures ~params ~b:_ ~f:_ ~states ~metrics ->
      finish ~mode ~graph ~failures ~params ~states ~metrics)

let backend = make_backend "flowupdating" Sum
let avg_backend = make_backend "flowupdating-avg" Avg
