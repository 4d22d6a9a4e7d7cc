module Caaf = Ftagg_caaf.Caaf

type result = Value of int | Aborted

type ablation = Full | No_speculation | No_witnesses

(* Phase layout in execution-relative rounds (cd = c·d):
     tree construction : 1            .. 2cd+1
     tree aggregation  : 2cd+2        .. 4cd+2
     speculative flood : 4cd+3        .. 6cd+3
     selection         : 6cd+4        .. 7cd+4   (root outputs in the last round) *)

type node = {
  p : Params.t;
  me : int;
  ablation : ablation;
  flood : Message.body Flood.t;
  mutable activated : bool;
  mutable level : int;
  mutable parent : int;
  mutable children : int list;
  ancestors : int array;  (* length 2t+1, index 0 = me, -1 = undefined *)
  mutable tc_send_round : int;  (* when to send our own tree_construct; -1 = never *)
  mutable psum : int;
  mutable max_level : int;
  (* Int-keyed maps as association lists: newest first, one entry per
     key, [] until the first write.  Critical failures and compulsory
     determinations have no set of their own: [flood]'s seen-set answers
     for them ([saw_crit], [compute_output]). *)
  mutable child_psums : (int * (int * int)) list;  (* child -> (psum, max_level) *)
  mutable psum_sources : (int * int) list;  (* flooded source -> its partial sum *)
  mutable parent_flood_ever : bool;  (* used by the No_speculation ablation *)
  mutable sent_bits : int;
  mutable abort_seen : bool;
  mutable selected : int list;  (* root: sources included in the output *)
  mutable output : result option;
  (* Cached action rounds, fixed once the node's level is known (at
     creation for the root, at activation otherwise); -1 = not scheduled.
     They turn the phase arithmetic into plain comparisons, let
     quiescent rounds return immediately, and are the schedule [wake]
     declares to the engine. *)
  mutable agg_action : int;  (* execution round of our aggregation send *)
  mutable spec_action : int;  (* execution round of our speculative flood *)
  sel_round : int;  (* 6cd + 4: witnesses flood determinations *)
  final_round : int;  (* root only: the round it outputs; -1 elsewhere *)
}

let duration p = (7 * Params.cd p) + 4

(* Aggregation happens in round cd − level + 1 of its phase (which starts
   at 2cd + 2); speculative flooding in phase round level + 1 (pushed a
   full flooding round later for non-root nodes under [No_speculation]). *)
let agg_action_round p ~level = (3 * Params.cd p) + 2 - level

let spec_action_round p ~ablation ~is_root ~level =
  let spec_base = (4 * Params.cd p) + 2 in
  match ablation with
  | Full | No_witnesses -> spec_base + level + 1
  | No_speculation -> if is_root then spec_base + 1 else spec_base + level + 1 + Params.cd p

let create ?(ablation = Full) (p : Params.t) ~me =
  let is_root = me = Ftagg_graph.Graph.root in
  let ancestors = Array.make ((2 * p.Params.t) + 1) (-1) in
  ancestors.(0) <- me;
  {
    p;
    me;
    ablation;
    flood = Flood.create ();
    activated = is_root;
    level = (if is_root then 0 else -1);
    parent = -1;
    children = [];
    ancestors;
    tc_send_round = (if is_root then 1 else -1);
    psum = p.Params.inputs.(me);
    max_level = (if is_root then 0 else -1);
    child_psums = [];
    psum_sources = [];
    parent_flood_ever = false;
    sent_bits = 0;
    abort_seen = false;
    selected = [];
    output = None;
    agg_action = (if is_root then agg_action_round p ~level:0 else -1);
    spec_action = (if is_root then spec_action_round p ~ablation ~is_root ~level:0 else -1);
    sel_round = (6 * Params.cd p) + 4;
    final_round = (if is_root then duration p else -1);
  }

(* Record the protocol-level consequences of a flood body the node now
   knows (whether received or self-originated).  It runs exactly when
   [Flood.receive] or [Flood.originate] returns true, so a fact that is
   only "this body was seen" needs no arm: the seen-set holds it. *)
let note_flood node = function
  | Message.Flooded_psum { source; psum } ->
    node.psum_sources <- (source, psum) :: List.remove_assoc source node.psum_sources
  | Message.Agg_abort -> node.abort_seen <- true
  | _ -> ()

let saw_crit node v = Flood.seen node.flood (Message.Critical_failure v)

let originate node body = if Flood.originate node.flood body then note_flood node body

(* The defined ancestor ids, nearest first, for our tree_construct. *)
let defined_ancestors node =
  let t2 = 2 * node.p.Params.t in
  let rec collect i acc =
    if i > t2 || i > node.level || node.ancestors.(i) = -1 then List.rev acc
    else collect (i + 1) (node.ancestors.(i) :: acc)
  in
  collect 1 []

(* Index of [v] in the ancestor array within [0, bound], or None. *)
let ancestor_index node ~bound v =
  let rec go i =
    if i > bound then None
    else if node.ancestors.(i) = v then Some i
    else go (i + 1)
  in
  go 0

(* Smallest index whose ancestor is the root or a seen critical failure
   (the fragment boundary), within [0, 2t]. *)
let boundary_index node =
  let t2 = 2 * node.p.Params.t in
  let rec go j =
    if j > t2 then None
    else
      let a = node.ancestors.(j) in
      if a = -1 then None
      else if a = Ftagg_graph.Graph.root || saw_crit node a then Some j
      else go (j + 1)
  in
  go 0

let handle_activation node ~rr ~inbox ~out =
  match
    List.find_opt (function _, Message.Tree_construct _ -> true | _ -> false) inbox
  with
  | Some (sender, Message.Tree_construct { level = sender_level; ancestors = sanc })
    when sender_level + 1 <= Params.cd node.p ->
    (* The model guarantees post-failure diameter <= cd, so levels beyond
       cd cannot arise; the guard keeps adversarial tests from driving the
       phase arithmetic out of range. *)
    node.activated <- true;
    node.level <- sender_level + 1;
    node.max_level <- node.level;
    node.parent <- sender;
    let t2 = 2 * node.p.Params.t in
    if t2 >= 1 then begin
      node.ancestors.(1) <- sender;
      List.iteri (fun k a -> if k + 2 <= t2 then node.ancestors.(k + 2) <- a) sanc
    end;
    node.tc_send_round <- rr + 1;
    node.agg_action <- agg_action_round node.p ~level:node.level;
    node.spec_action <-
      spec_action_round node.p ~ablation:node.ablation ~is_root:false ~level:node.level;
    out := Message.Ack { parent = sender } :: !out
  | _ -> ()

(* Witness determinations (§4.3 / Algorithm 2, selection phase). *)
let make_determinations node =
  let t = node.p.Params.t in
  let t2 = 2 * t in
  let j_opt = boundary_index node in
  let j_bound = match j_opt with Some j -> j | None -> t2 in
  List.iter
    (fun (source, _) ->
      match ancestor_index node ~bound:t2 source with
      | Some i when i <= t && i <= j_bound ->
        (* I am a witness of [source]. *)
        let upper = j_bound in
        let dominated_by_k =
          let rec scan k =
            if k > upper then false
            else if
              node.ancestors.(k) <> -1 && List.mem_assoc node.ancestors.(k) node.psum_sources
            then true
            else scan (k + 1)
          in
          scan (i + 1)
        in
        let determination =
          match j_opt with
          | None -> Message.Dominated source
          | Some _ -> if dominated_by_k then Message.Dominated source else Message.Compulsory source
        in
        originate node determination
      | _ -> ())
    (List.rev node.psum_sources)

let compute_output node =
  if node.abort_seen then Aborted
  else begin
    let caaf = node.p.Params.caaf in
    let acc = ref caaf.Caaf.identity in
    let selected = ref [] in
    List.iter
      (fun (source, psum) ->
        let keep =
          match node.ablation with
          | No_witnesses -> true
          | Full | No_speculation -> Flood.seen node.flood (Message.Compulsory source)
        in
        if keep then begin
          acc := caaf.Caaf.combine !acc psum;
          selected := source :: !selected
        end)
      node.psum_sources;
    node.selected <- !selected;
    Value !acc
  end

(* Hot-path helpers: [step] runs for every node with mail, so the
   per-round intake loops and bit folds are top-level recursive functions
   rather than closures (a closure here is one allocation per step). *)
let rec flood_intake node = function
  | [] -> ()
  | (_, body) :: tl ->
    if Message.is_flood body then
      if Flood.receive node.flood body then note_flood node body;
    flood_intake node tl

let rec p2p_intake node = function
  | [] -> ()
  | (sender, body) :: tl ->
    (match body with
    | Message.Ack { parent } when parent = node.me ->
      node.children <- sender :: node.children
    | Message.Aggregation { psum; max_level } when List.mem sender node.children ->
      node.child_psums <- (sender, (psum, max_level)) :: List.remove_assoc sender node.child_psums
    | Message.Flooded_psum _ when sender = node.parent -> node.parent_flood_ever <- true
    | _ -> ());
    p2p_intake node tl

let rec bits_of p acc = function
  | [] -> acc
  | b :: tl -> bits_of p (acc + Message.bits p b) tl

(* Telemetry: mark which phase window this execution round falls in.
   [Span.phase] is range-based (switch-on-change), not enter-on-round-1:
   Tradeoff activates non-root executions mid-window, so the first [rr]
   a node sees here can be any round of any phase. *)
let span_phase node ~rr =
  if Ftagg_obs.Span.active () then begin
    let cd = Params.cd node.p in
    let name =
      if rr <= (2 * cd) + 1 then "agg/tree"
      else if rr <= (4 * cd) + 2 then "agg/aggregate"
      else if rr <= (6 * cd) + 3 then "agg/flood"
      else "agg/witness"
    in
    Ftagg_obs.Span.phase ~node:node.me name
  end

let step node ~rr ~inbox =
  let p = node.p in
  let is_root = node.me = Ftagg_graph.Graph.root in
  span_phase node ~rr;
  if node.abort_seen then begin
    (* Aborted: keep forwarding only the abort symbol. *)
    let saw_new_abort =
      List.exists
        (fun (_, body) -> body = Message.Agg_abort && Flood.receive node.flood body)
        inbox
    in
    ignore saw_new_abort;
    let out = Flood.drain node.flood in
    let out = List.filter (fun b -> b = Message.Agg_abort) out in
    List.iter (fun b -> node.sent_bits <- node.sent_bits + Message.bits p b) out;
    if rr = node.final_round then node.output <- Some Aborted;
    out
  end
  else if
    (* Quiescent round: nothing arrived, nothing queued, and none of this
       node's scheduled action rounds (all cached, -1 when unscheduled) is
       due.  Everything below is then a no-op producing [], so return
       immediately — this is the common case for most nodes most rounds. *)
    inbox == []
    && rr <> node.tc_send_round
    && rr <> node.agg_action
    && rr <> node.spec_action
    && rr <> node.sel_round
    && rr <> node.final_round
    && not (Flood.pending node.flood)
  then []
  else begin
    let cd = Params.cd p in
    let out = ref [] in
    (* 1. Flood intake: forward first receipts, record side information. *)
    flood_intake node inbox;
    (* 2. Point-to-point intake. *)
    p2p_intake node inbox;
    (* 3. Phase actions. *)
    if (not node.activated) && rr <= (2 * cd) + 1 then handle_activation node ~rr ~inbox ~out;
    if node.activated then begin
      (* Tree construction: send our tree_construct one round after ack. *)
      if rr = node.tc_send_round then
        out :=
          Message.Tree_construct { level = node.level; ancestors = defined_ancestors node }
          :: !out;
      (* Aggregation: act in round cd − level + 1 of the phase. *)
      if rr = node.agg_action then begin
        List.iter
          (fun child ->
            match List.assoc_opt child node.child_psums with
            | Some (cpsum, cmax) ->
              node.psum <- p.Params.caaf.Caaf.combine node.psum cpsum;
              node.max_level <- max node.max_level cmax
            | None -> originate node (Message.Critical_failure child))
          node.children;
        out := Message.Aggregation { psum = node.psum; max_level = node.max_level } :: !out
      end;
      (* Speculative flooding: root in phase round 1; level l in phase
         round l+1 iff nothing flooded arrived from the parent this round
         (the No_speculation ablation holds non-root nodes back a full
         flooding round to be sure the parent's flood is really absent). *)
      if rr = node.spec_action then begin
        let parent_flooded =
          match node.ablation with
          | No_speculation -> node.parent_flood_ever
          | Full | No_witnesses ->
            (* The paper's "in that round" check.  Sound because a flood
               from any source reaches a level-l node no earlier than phase
               round l+1, so a live parent necessarily broadcast a flooded
               partial sum in phase round l — either its own or its first
               receipt. *)
            List.exists
              (fun (sender, body) ->
                sender = node.parent
                && match body with Message.Flooded_psum _ -> true | _ -> false)
              inbox
        in
        if is_root || not parent_flooded then
          originate node (Message.Flooded_psum { source = node.me; psum = node.psum })
      end;
      (* Selection: witnesses flood determinations in phase round 1. *)
      if rr = node.sel_round && node.ablation <> No_witnesses then make_determinations node
    end;
    (* 4. Drain floods queued this round. *)
    let outgoing = !out @ Flood.drain node.flood in
    (* 5. Budget enforcement (§4): flood the abort symbol at the threshold. *)
    let cost = bits_of p 0 outgoing in
    let outgoing =
      if node.sent_bits + cost > Params.agg_bit_budget p then begin
        node.abort_seen <- true;
        ignore (Flood.originate node.flood Message.Agg_abort);
        ignore (Flood.drain node.flood);
        let abort_only = [ Message.Agg_abort ] in
        node.sent_bits <-
          node.sent_bits + List.fold_left (fun a b -> a + Message.bits p b) 0 abort_only;
        abort_only
      end
      else begin
        node.sent_bits <- node.sent_bits + cost;
        outgoing
      end
    in
    if rr = node.final_round then node.output <- Some (compute_output node);
    outgoing
  end

(* The next round whose empty-inbox step is not the quiescent return
   above: a pending flood, or the earliest of the five action rounds
   still ahead.  In the aborted branch an empty-inbox step only drains
   floods and sets the output at [final_round], both covered here. *)
let wake node ~round =
  if Flood.pending node.flood then round + 1
  else
    let next a acc = if a > round && a < acc then a else acc in
    next node.tc_send_round
      (next node.agg_action
         (next node.spec_action (next node.sel_round (next node.final_round max_int))))

let protocol ?ablation p =
  {
    Ftagg_sim.Engine.init = (fun u ~rng:_ -> create ?ablation p ~me:u);
    step = (fun ~round ~me:_ ~state ~inbox -> (state, step state ~rr:round ~inbox));
    msg_bits = Message.bits p;
    root_done = (fun _ -> false);
    wake;
  }

let root_result node =
  match node.output with
  | Some r -> r
  | None -> invalid_arg "Agg.root_result: execution not finished"

let activated node = node.activated
let level node = node.level
let parent node = node.parent
let children node = node.children
let ancestor node i = node.ancestors.(i)
let max_level node = node.max_level
let psum node = node.psum
let selected_sources node = node.selected
let aborted node = node.abort_seen
