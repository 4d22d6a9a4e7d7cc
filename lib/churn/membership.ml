(* Topology generations: a base recipe plus an ordered event history,
   with the evolved graph memoized per value.  Ids are append-only (a
   joined node gets the next fresh id, retirement never frees one), so
   an event history is a complete, replayable description and the
   digest below is a sound cache key. *)

module Prng = Ftagg_util.Prng
module Fnv = Ftagg_util.Fnv
module Graph = Ftagg_graph.Graph
module Gen = Ftagg_graph.Gen
module Failure = Ftagg_sim.Failure
module Incident = Ftagg_chaos.Incident

type event = Join of { node : int; targets : int list } | Leave of int

type t = {
  family : Gen.family;
  base_n : int;
  seed : int;
  generation : int;
  events : event list;  (* reverse chronological *)
  graph : Graph.t lazy_t;
}

let joins t =
  List.fold_left (fun acc e -> match e with Join _ -> acc + 1 | Leave _ -> acc) 0 t.events

let total_n t = t.base_n + joins t

let retired t =
  List.sort compare (List.filter_map (function Leave u -> Some u | Join _ -> None) t.events)

let live t =
  let gone = retired t in
  List.filter (fun u -> not (List.mem u gone)) (List.init (total_n t) Fun.id)

let generation t = t.generation
let graph t = Lazy.force t.graph

let build_graph ~family ~base_n ~seed ~events =
  let n = base_n + List.fold_left (fun a e -> match e with Join _ -> a + 1 | _ -> a) 0 events in
  Graph.of_iter ~n (fun emit ->
      Gen.iter_edges family ~n:base_n ~seed emit;
      List.iter
        (function Join { node; targets } -> List.iter (fun v -> emit node v) targets | Leave _ -> ())
        events)

let with_events t ~generation events =
  let family = t.family and base_n = t.base_n and seed = t.seed in
  {
    t with
    generation;
    events;
    graph = lazy (build_graph ~family ~base_n ~seed ~events);
  }

let create ~family ~n ~seed =
  {
    family;
    base_n = n;
    seed;
    generation = 0;
    events = [];
    graph = lazy (build_graph ~family ~base_n:n ~seed ~events:[]);
  }

(* Seeded streams for join attachment and leave selection.  Keyed on the
   event's position in history (the fresh node id for joins, the event
   count for leaves) so inserting an event never reshuffles earlier
   decisions. *)
let event_rng t ~purpose ~k =
  Prng.create
    (Int64.to_int (Fnv.hash (String.concat "" [ string_of_int t.seed; purpose; string_of_int k ])))

let attach_targets t ~node =
  let candidates = Array.of_list (live t) in
  let g = event_rng t ~purpose:"join" ~k:node in
  Prng.shuffle g candidates;
  Array.to_list (Array.sub candidates 0 (min 2 (Array.length candidates)))

let join t =
  let node = total_n t in
  let targets = attach_targets t ~node in
  (with_events t ~generation:(t.generation + 1) (Join { node; targets } :: t.events), node)

let leave t ~node =
  if node = Graph.root then invalid_arg "Membership.leave: the root never leaves";
  if node < 0 || node >= total_n t then invalid_arg "Membership.leave: unknown node";
  if List.mem node (retired t) then invalid_arg "Membership.leave: node already retired";
  with_events t ~generation:(t.generation + 1) (Leave node :: t.events)

let advance t ~joins:j ~leaves =
  if j < 0 || leaves < 0 then invalid_arg "Membership.advance: negative event count";
  let t' = ref { t with generation = t.generation + 1 } in
  for _ = 1 to j do
    let node = total_n !t' in
    let targets = attach_targets !t' ~node in
    t' := with_events !t' ~generation:!t'.generation (Join { node; targets } :: !t'.events)
  done;
  for i = 1 to leaves do
    let candidates = Array.of_list (List.filter (fun u -> u <> Graph.root) (live !t')) in
    if Array.length candidates > 0 then begin
      let g = event_rng !t' ~purpose:"leave" ~k:(List.length !t'.events + i) in
      let node = candidates.(Prng.int g (Array.length candidates)) in
      t' := with_events !t' ~generation:!t'.generation (Leave node :: !t'.events)
    end
  done;
  !t'

let retirement t =
  Failure.of_list ~n:(total_n t) (List.map (fun u -> (u, 1)) (retired t))

let merge_failures a b =
  let ra = Failure.crash_rounds a and rb = Failure.crash_rounds b in
  if Array.length ra <> Array.length rb then
    invalid_arg "Membership.merge_failures: schedules over different node counts";
  Failure.of_crash_rounds (Array.init (Array.length ra) (fun i -> min ra.(i) rb.(i)))

let key t =
  let canonical =
    String.concat "|"
      (Incident.family_to_string t.family
      :: string_of_int t.base_n
      :: string_of_int t.seed
      :: List.rev_map
           (function
             | Join { node; targets } ->
               Printf.sprintf "j%d<%s" node (String.concat "," (List.map string_of_int targets))
             | Leave u -> Printf.sprintf "l%d" u)
           t.events)
  in
  Printf.sprintf "g%d:%016Lx" t.generation (Fnv.hash canonical)

let pp ppf t =
  Format.fprintf ppf "generation %d: %d nodes (%d joined, %d retired)" t.generation (total_n t)
    (joins t)
    (List.length (retired t))
