module Graph = Ftagg_graph.Graph
module Prng = Ftagg_util.Prng
module Failure = Ftagg_sim.Failure
module Engine = Ftagg_sim.Engine
module Metrics = Ftagg_sim.Metrics

type strategy =
  | Top_talkers
  | First_speakers
  | Random_online

type t =
  | Oblivious of string * (Graph.t -> rng:Prng.t -> budget:int -> window:int -> Failure.t)
  | Adaptive of strategy

let strategy_name = function
  | Top_talkers -> "adaptive:top_talkers"
  | First_speakers -> "adaptive:first_speakers"
  | Random_online -> "adaptive:random_online"

let name = function
  | Oblivious (n, _) -> n
  | Adaptive s -> strategy_name s

let none = Oblivious ("oblivious:none", fun g ~rng:_ ~budget:_ ~window:_ -> Failure.none ~n:(Graph.n g))

let random =
  Oblivious
    ("oblivious:random", fun g ~rng ~budget ~window -> Failure.random g ~rng ~budget ~max_round:window)

let burst =
  Oblivious
    ( "oblivious:burst",
      fun g ~rng ~budget ~window -> Failure.burst g ~rng ~budget ~round:(1 + Prng.int rng window) )

let high_degree =
  Oblivious
    ( "oblivious:high_degree",
      fun g ~rng ~budget ~window -> Failure.high_degree g ~budget ~round:(1 + Prng.int rng window) )

let oblivious_all = [ none; random; burst; high_degree ]
let adaptive_all = [ Adaptive Top_talkers; Adaptive First_speakers; Adaptive Random_online ]
let all = oblivious_all @ adaptive_all

(* Adding [u] to the crashed set fails exactly the edges to its
   not-yet-crashed neighbours (edges with an already-crashed endpoint are
   failed already). *)
let marginal_cost g crashed u =
  List.fold_left (fun k v -> if crashed.(v) then k else k + 1) 0 (Graph.neighbors g u)

let online_of_strategy strategy g ~rng ~budget =
  let n = Graph.n g in
  (* The nodes this adversary crashed, by id: only queried and added to. *)
  let crashed = Array.make n false in
  let spent = ref 0 in
  (* Crash [u] iff it is live, non-root, and its marginal edge-failure cost
     fits the remaining budget; returns the nodes to report to the engine. *)
  let try_crash (report : Engine.round_report) u =
    if
      u = Graph.root || u < 0 || u >= n
      || crashed.(u)
      || report.Engine.rr_crash_rounds.(u) <= report.Engine.rr_round
    then []
    else begin
      let cost = marginal_cost g crashed u in
      if cost > 0 && !spent + cost <= budget then begin
        spent := !spent + cost;
        crashed.(u) <- true;
        [ u ]
      end
      else []
    end
  in
  match strategy with
  | Top_talkers ->
    (* Kill the current bandwidth leader: the live non-root node with the
       most bits sent so far, ties to the smaller id.  Early in the run
       this is the tree-construction frontier around the root — traffic-
       aware placement the oblivious generators cannot express.  Only a
       round's broadcasters gain bits, and a node that stops being
       eligible never is again, so the leader is kept from one report to
       the next and only the broadcasters can overtake it.  All [n] nodes
       are scanned only when the leader stops being eligible.  No node
       has bits before the run's first report, so [-1] is right then. *)
    let eligible (report : Engine.round_report) u =
      (not crashed.(u)) && report.Engine.rr_crash_rounds.(u) > report.Engine.rr_round
    in
    let best = ref (-1) and best_bits = ref 0 in
    let consider report u =
      if u <> Graph.root && eligible report u then begin
        let b = Metrics.bits_sent report.Engine.rr_metrics u in
        if b > !best_bits || (b = !best_bits && b > 0 && u < !best) then begin
          best := u;
          best_bits := b
        end
      end
    in
    fun report ->
      if !best >= 0 && not (eligible report !best) then begin
        best := -1;
        best_bits := 0;
        for u = 1 to n - 1 do
          consider report u
        done
      end
      else begin
        if !best >= 0 then best_bits := Metrics.bits_sent report.Engine.rr_metrics !best;
        List.iter (consider report) report.Engine.rr_broadcasters
      end;
      if !best < 0 then [] else try_crash report !best
  | First_speakers ->
    fun report ->
      (* Kill the first node heard from this round — crashes chase the
         activation wavefront outward from the root. *)
      (match
         List.find_opt
           (fun u -> u <> Graph.root && not crashed.(u))
           report.Engine.rr_broadcasters
       with
      | None -> []
      | Some u -> try_crash report u)
  | Random_online ->
    fun report ->
      (* A paced random adversary that only strikes rounds with real
         traffic: with probability 1/3, kill a uniformly random
         broadcaster. *)
      let candidates =
        List.filter
          (fun u -> u <> Graph.root && not crashed.(u))
          report.Engine.rr_broadcasters
      in
      if candidates = [] || Prng.int rng 3 <> 0 then []
      else try_crash report (List.nth candidates (Prng.int rng (List.length candidates)))

let instantiate t g ~rng ~budget ~window =
  match t with
  | Oblivious (_, gen) -> (gen g ~rng ~budget ~window, None)
  | Adaptive s -> (Failure.none ~n:(Graph.n g), Some (online_of_strategy s g ~rng ~budget))
