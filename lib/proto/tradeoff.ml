module Bits = Ftagg_util.Bits
module Prng = Ftagg_util.Prng
module Engine = Ftagg_sim.Engine
module Span = Ftagg_obs.Span

let bf_exec = -1  (* execution tag of the brute-force fallback *)

type how = Via_pair of int | Via_brute_force

type strategy = Sampled | Sequential

type plan = {
  params : Params.t;
  starts : Prng.t -> int list;
  pair_params : int -> Params.t;
  fallback : int;
  spans : bool;
}

type exec = { tag : int; start : int; pair : Pair.node }

type node = {
  plan : plan;
  me : int;
  starts : int list;  (* root only *)
  mutable current : exec option;
  mutable bf : Brute_force.node option;
  mutable output : (int * how) option;
}

let intervals (p : Params.t) ~b =
  if b < 21 * p.Params.c then invalid_arg "Tradeoff: need b >= 21c";
  (b - (2 * p.Params.c)) / (19 * p.Params.c)

let pair_t p ~b ~f =
  if f < 0 then invalid_arg "Tradeoff: f must be >= 0";
  2 * f / intervals p ~b

let max_rounds (p : Params.t) ~b = b * p.Params.d

let interval_len p = 19 * Params.cd p

let create plan ~me ~rng =
  {
    plan;
    me;
    starts = (if me = Ftagg_graph.Graph.root then plan.starts rng else []);
    current = None;
    bf = None;
    output = None;
  }

let root_done node = node.output <> None

(* Telemetry: under a plan with [spans], each execution is a
   [tradeoff/interval#y] span wrapping the Pair phase spans opened by
   Agg/Veri, and the brute-force fallback is a phase of its own.  All
   calls are ambient no-ops when the engine was given no [?obs] sink. *)
let span_name y = "tradeoff/interval#" ^ string_of_int y

let start_pair node y ~start =
  let pair = Pair.create (node.plan.pair_params y) ~me:node.me in
  node.current <- Some { tag = y; start; pair };
  if node.plan.spans then Span.enter ~node:node.me (span_name y)

let end_pair node y =
  if node.plan.spans then Span.exit_named ~node:node.me (span_name y);
  node.current <- None

let step node ~round ~inbox =
  let plan = node.plan in
  let p = plan.params in
  let is_root = node.me = Ftagg_graph.Graph.root in
  if node.output <> None then []
  else begin
    let pair_inbox y =
      List.filter_map
        (fun (sender, Message.{ exec; body }) ->
          if exec = y then Some (sender, body) else None)
        inbox
    in
    (* Expire a finished execution.  [Pair.duration] does not depend on
       [t], so every tag expires after the same number of rounds. *)
    (match node.current with
    | Some { tag; start; _ } when round - start + 1 > Pair.duration p -> end_pair node tag
    | _ -> ());
    let out = ref [] in
    (* Root: start pair [y] at the head of interval [y]. *)
    (if is_root then
       match List.find_opt (fun y -> ((y - 1) * interval_len p) + 1 = round) node.starts with
       | Some y -> start_pair node y ~start:round
       | None -> ());
    (* Non-root: activation by a tree_construct of a new execution. *)
    (if (not is_root) && node.current = None then
       match
         List.find_opt
           (fun (_, Message.{ exec; body }) ->
             exec >= 1 && match body with Message.Tree_construct _ -> true | _ -> false)
           inbox
       with
       | Some (_, Message.{ exec = y; body = Message.Tree_construct { level; _ } }) ->
         (* A level-(s+1) node receives its first tree_construct in round
            2s+2 of the execution: the phase-1 recurrence is recv = 2·level
            (ack in the receipt round, tree_construct one round later). *)
         let rr = (2 * level) + 2 in
         start_pair node y ~start:(round - rr + 1)
       | _ -> ());
    (* Advance the current pair. *)
    (match node.current with
    | Some { tag = y; start; pair } ->
      let rr = round - start + 1 in
      let bodies = Pair.step pair ~rr ~inbox:(pair_inbox y) in
      out := List.map (fun body -> Message.{ exec = y; body }) bodies;
      if is_root && rr = Pair.duration p then begin
        let v = Pair.root_verdict pair in
        (match v.Pair.result with
        | Agg.Value value when v.Pair.veri_ok -> node.output <- Some (value, Via_pair y)
        | Agg.Value _ | Agg.Aborted -> ());
        end_pair node y
      end
    | None -> ());
    (* Brute-force fallback from the plan's fallback round on. *)
    if node.output = None then begin
      (if is_root && round = plan.fallback then node.bf <- Some (Brute_force.create p ~me:node.me));
      (if (not is_root) && node.bf = None
       && List.exists (fun (_, Message.{ exec; _ }) -> exec = bf_exec) inbox
      then node.bf <- Some (Brute_force.create p ~me:node.me));
      match node.bf with
      | Some bf ->
        if plan.spans && node.current = None then
          Span.phase ~node:node.me "tradeoff/brute_force";
        let rr = round - plan.fallback + 1 in
        let bodies = Brute_force.step bf ~rr ~inbox:(pair_inbox bf_exec) in
        out := !out @ List.map (fun body -> Message.{ exec = bf_exec; body }) bodies;
        if is_root && round = plan.fallback + Brute_force.duration p - 1 then
          node.output <- Some (Brute_force.root_result bf, Via_brute_force)
      | None -> ()
    end;
    !out
  end

(* The driver's schedule: the root's next start tag and its fallback
   round, the current pair's own schedule and its expiry round (which
   clears [current] and closes its span), and the fallback's schedule —
   the two sub-schedules shifted from execution to global rounds.  Mail
   wakes an idle non-root node; nothing wakes anyone once the root has
   output. *)
let wake node ~round =
  if node.output <> None then max_int
  else begin
    let plan = node.plan in
    let p = plan.params in
    let next a acc = if a > round && a < acc then a else acc in
    let shift ~start = function r when r = max_int -> max_int | r -> start + r - 1 in
    let root =
      if node.me <> Ftagg_graph.Graph.root then max_int
      else
        List.fold_left
          (fun acc y -> next (((y - 1) * interval_len p) + 1) acc)
          (next plan.fallback max_int) node.starts
    in
    let pair =
      match node.current with
      | Some { start; pair; _ } ->
        min (start + Pair.duration p)
          (shift ~start (Pair.wake pair ~round:(round - start + 1)))
      | None -> max_int
    in
    let bf =
      match node.bf with
      | Some bf ->
        shift ~start:plan.fallback (Brute_force.wake bf ~round:(round - plan.fallback + 1))
      | None -> max_int
    in
    min root (min pair bf)
  end

let drive plan =
  {
    Engine.init = (fun me ~rng -> create plan ~me ~rng);
    step = (fun ~round ~me:_ ~state ~inbox -> (state, step state ~round ~inbox));
    msg_bits = Message.msg_bits plan.params;
    root_done;
    wake;
  }

let plan ?(strategy = Sampled) (p : Params.t) ~b ~f =
  let x = intervals p ~b in
  let p = Params.with_t p (pair_t p ~b ~f) in
  let starts rng =
    match strategy with
    | Sequential -> List.init x (fun i -> i + 1)
    | Sampled ->
      (* log N integers drawn with replacement from [1, x]; duplicates
         collapse (Algorithm 1 runs each distinct interval once). *)
      let draws = max 1 (Bits.bits_for p.Params.n) in
      let module IS = Set.Make (Int) in
      let s = ref IS.empty in
      for _ = 1 to draws do
        s := IS.add (Prng.in_range rng 1 x) !s
      done;
      IS.elements !s
  in
  {
    params = p;
    starts;
    pair_params = (fun _ -> p);
    fallback = (b * p.Params.d) - (2 * Params.cd p);
    spans = true;
  }

let protocol ?strategy p ~b ~f = drive (plan ?strategy p ~b ~f)

let root_result node =
  match node.output with
  | Some (v, _) -> v
  | None -> invalid_arg "Tradeoff.root_result: execution not finished"

let root_how node =
  match node.output with
  | Some (_, how) -> how
  | None -> invalid_arg "Tradeoff.root_how: execution not finished"
