module Engine = Ftagg_sim.Engine
module Metrics = Ftagg_sim.Metrics
module Failure = Ftagg_sim.Failure
module Graph = Ftagg_graph.Graph

type common = {
  metrics : Metrics.t;
  rounds : int;
  flooding_rounds : int;
  correct : bool;
}

let mk_common ~d ~metrics ~correct =
  let rounds = Metrics.rounds metrics in
  { metrics; rounds; flooding_rounds = (rounds + d - 1) / d; correct }

type result =
  | Exact of Agg.result
  | Estimate of { value : float; relative_error : float }

type outcome = {
  result : result;
  common : common;
  evidence : (string * string) list;
}

let value_exn o =
  match o.result with
  | Exact (Agg.Value v) -> v
  | Exact Agg.Aborted -> invalid_arg "Backend.value_exn: protocol aborted"
  | Estimate _ -> invalid_arg "Backend.value_exn: approximate outcome"

let estimate_of o =
  match o.result with
  | Exact (Agg.Value v) -> float_of_int v
  | Exact Agg.Aborted -> invalid_arg "Backend.estimate_of: protocol aborted"
  | Estimate { value; _ } -> value

let relative_error o ~truth =
  let v = estimate_of o in
  if truth = 0.0 then Float.abs v else Float.abs (v -. truth) /. Float.abs truth

module type S = sig
  type state
  type msg

  val name : string
  val exact : bool
  val guarantee : string

  val protocol :
    graph:Graph.t -> params:Params.t -> b:int -> f:int -> (state, msg) Engine.protocol

  val max_rounds : params:Params.t -> b:int -> f:int -> int

  val finish :
    graph:Graph.t ->
    failures:Failure.t ->
    params:Params.t ->
    b:int ->
    f:int ->
    states:state array ->
    metrics:Metrics.t ->
    outcome

  val watch :
    ?bit_cap:int ->
    params:Params.t ->
    graph:Graph.t ->
    b:int ->
    f:int ->
    unit ->
    state Engine.watch option
end

type t = (module S)

let name (module B : S) = B.name
let exact (module B : S) = B.exact
let guarantee (module B : S) = B.guarantee

(* Protocol-agnostic per-node bit accounting — any backend's state type
   fits, so a planted cap plants the same invariant everywhere.  A node's
   bits change only when it broadcasts, and every node starts at 0, so
   with a cap >= 0 the first node over it is among the round's
   broadcasters: walking them reports what a scan of all n would. *)
let bits_watch ~bit_cap view =
  let metrics = view.Engine.v_metrics in
  let over u =
    let b = Metrics.bits_sent metrics u in
    if b > bit_cap then
      Some
        ("bit_budget", Printf.sprintf "node %d has sent %d bits, over the %d-bit cap" u b bit_cap)
    else None
  in
  (* Under a negative cap every node is over it from the start. *)
  if bit_cap < 0 then over 0 else List.find_map over view.Engine.v_broadcasters

let cap_watch ?bit_cap ~params:_ ~graph:_ ~b:_ ~f:_ () =
  Option.map (fun cap -> bits_watch ~bit_cap:cap) bit_cap

let make (type s m) ~name ?(exact = true) ~guarantee ?(watch = cap_watch) ~protocol ~max_rounds
    finish : t =
  (module struct
    type state = s
    type msg = m

    let name = name
    let exact = exact
    let guarantee = guarantee
    let protocol = protocol
    let max_rounds = max_rounds
    let finish = finish
    let watch = watch
  end)

let exec ?obs ~backend ~graph ~failures ~params ~b ~f ~seed () =
  let module B = (val backend : S) in
  let proto = B.protocol ~graph ~params ~b ~f in
  let states, metrics =
    Engine.run ?obs ~graph ~failures ~max_rounds:(B.max_rounds ~params ~b ~f) ~seed proto
  in
  B.finish ~graph ~failures ~params ~b ~f ~states ~metrics

type chaos = {
  c_outcome : outcome;
  c_schedule : Failure.t;
  c_violation : Engine.violation option;
  c_completed : bool;
}

let exec_chaos ?obs ?faults ?online ?bit_cap ~backend ~graph ~failures ~params ~b ~f ~seed ()
    =
  let module B = (val backend : S) in
  let proto = B.protocol ~graph ~params ~b ~f in
  let max_rounds = B.max_rounds ~params ~b ~f in
  let watch = B.watch ?bit_cap ~params ~graph ~b ~f () in
  let res =
    Engine.run_chaos ?obs ?faults ?online ?watch ~graph ~failures ~max_rounds ~seed proto
  in
  let metrics = res.Engine.c_metrics in
  let materialized = res.Engine.c_schedule in
  let outcome =
    B.finish ~graph ~failures:materialized ~params ~b ~f ~states:res.Engine.c_states ~metrics
  in
  {
    c_outcome = outcome;
    c_schedule = materialized;
    c_violation = res.Engine.c_violation;
    c_completed = res.Engine.c_violation = None;
  }
