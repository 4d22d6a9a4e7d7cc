(* Churn schedules: deterministic per-(schedule, seed, generation) plans
   of joins/leaves and in-run crash schedules.  The crash side rides the
   existing adversary machinery (Failure generators for the oblivious
   kinds, Adversary.instantiate for the adaptive one) so the failure
   mass stays comparable to the paper's edge-budget [f]. *)

module Prng = Ftagg_util.Prng
module Fnv = Ftagg_util.Fnv
module Graph = Ftagg_graph.Graph
module Failure = Ftagg_sim.Failure
module Engine = Ftagg_sim.Engine

type kind = Clear_skies | Steady_churn | Burst_failure | Adversarial

type t = kind

let clear_skies = Clear_skies
let steady_churn = Steady_churn
let burst_failure = Burst_failure
let adversarial = Adversarial
let all = [ Clear_skies; Steady_churn; Burst_failure; Adversarial ]
let kind t = t

let name = function
  | Clear_skies -> "clear_skies"
  | Steady_churn -> "steady_churn"
  | Burst_failure -> "burst_failure"
  | Adversarial -> "adversarial"

let of_name s =
  match String.lowercase_ascii (String.map (fun c -> if c = '-' then '_' else c) s) with
  | "clear_skies" -> Some Clear_skies
  | "steady_churn" -> Some Steady_churn
  | "burst_failure" -> Some Burst_failure
  | "adversarial" -> Some Adversarial
  | _ -> None

(* One private stream per (schedule, seed, generation, purpose): churn
   decisions and crash draws must not share a stream, or adding a join
   would silently reshuffle the crash schedule of the same generation. *)
let rng t ~seed ~generation ~purpose =
  let key = String.concat "" [ name t; string_of_int seed; string_of_int generation; purpose ] in
  Prng.create (Int64.to_int (Fnv.hash key))

(* Bursts land every third generation, starting at generation 2, so a
   five-generation scenario sees calm -> calm -> burst -> recovery ->
   calm. *)
let burst_at generation = generation > 0 && generation mod 3 = 2

let churn t ~generation ~seed =
  if generation = 0 then (0, 0)
  else
    let g = rng t ~seed ~generation ~purpose:"churn" in
    match t with
    | Clear_skies -> (0, 0)
    | Steady_churn ->
      let joins = 1 + Prng.int g 2 in
      let leaves = if Prng.int g 3 = 0 then 1 else 0 in
      (joins, leaves)
    | Burst_failure ->
      (* recovery joins in the generation after a burst *)
      if burst_at (generation - 1) then (1 + Prng.int g 2, 0) else (0, 0)
    | Adversarial -> (Prng.int g 2, 0)

let failures t ~graph ~generation ~seed ~budget ~window =
  let g = rng t ~seed ~generation ~purpose:"crash" in
  let n = Graph.n graph in
  let none = Failure.none ~n in
  match t with
  | Clear_skies -> (none, None)
  | Steady_churn -> (Failure.random graph ~rng:g ~budget:(max 1 (budget / 2)) ~max_round:window, None)
  | Burst_failure ->
    if burst_at generation then
      (Failure.burst graph ~rng:g ~budget ~round:(max 1 (window / 3)), None)
    else (none, None)
  | Adversarial ->
    let schedule, online =
      Adversary.instantiate (Adversary.Adaptive Adversary.Top_talkers) graph ~rng:g ~budget
        ~window
    in
    (schedule, online)

let scenario_of_run ~family ~n ~topo_seed ~run_seed ~c ~t_param ~inputs ~backend ~b ~f ~schedule =
  {
    Incident.family;
    n;
    topo_seed;
    run_seed;
    c;
    t = t_param;
    inputs = Array.copy inputs;
    schedule = Failure.to_list schedule;
    faults = Engine.no_faults;
    kind = Incident.Backend_run { backend; b; f };
    bit_cap = None;
  }
