(* Phase layout in execution-relative rounds:
     failed-parent detection : 1      .. 2cd+1
     failed-child  detection : 2cd+2  .. 4cd+2
     LFC detection           : 4cd+3  .. 5cd+3   (root outputs last round) *)

type node = {
  p : Params.t;
  me : int;
  tree : Agg.node;
      (* the AGG execution this one verifies: its tree (activation, level,
         parent, children, ancestors, max level) and critical failures,
         read in place — frozen once VERI steps *)
  flood : Message.body Flood.t;
      (* also the failed children and LFC determinations seen: no set of
         its own restates them *)
  mutable failed_parents : (int * int) list;
      (* claimed node -> max depth claimed, newest first, one entry per node *)
  mutable overflow : bool;
  mutable sent_bits : int;
  mutable verdict : bool option;
}

let duration p = (5 * Params.cd p) + 3

let create (p : Params.t) ~me ~from_agg =
  {
    p;
    me;
    tree = from_agg;
    flood = Flood.create ();
    failed_parents = [];
    overflow = false;
    sent_bits = 0;
    verdict = None;
  }

(* Runs exactly on a first receipt (or origination), like
   [Agg.note_flood]: bodies that only need to have been seen get no arm. *)
let note_flood node = function
  | Message.Failed_parent { node = v; depth } ->
    let prev = Option.value (List.assoc_opt v node.failed_parents) ~default:min_int in
    node.failed_parents <- (v, max prev depth) :: List.remove_assoc v node.failed_parents
  | Message.Veri_overflow -> node.overflow <- true
  | _ -> ()

let originate node body = if Flood.originate node.flood body then note_flood node body

(* LFC determinations by witnesses (Algorithm 3, lines 20–31). *)
let make_determinations node =
  let t = node.p.Params.t in
  let t2 = 2 * t in
  let tree = node.tree in
  let j_opt = Agg.boundary_index tree in
  let j_bound = match j_opt with Some j -> j | None -> t2 in
  List.iter
    (fun (v, _) ->
      match Agg.ancestor_index tree ~bound:t2 v with
      | Some i when i <= t && i <= j_bound ->
        (* I am a witness of [v]: find the nearest failed child / fragment
           boundary at or above it. *)
        let k_opt =
          let rec scan k =
            if k > t2 then None
            else
              let a = Agg.ancestor tree k in
              if a = -1 then None
              else if
                Flood.seen node.flood (Message.Failed_child a)
                || a = Ftagg_graph.Graph.root
                || Agg.saw_crit tree a
              then Some k
              else scan (k + 1)
          in
          scan i
        in
        let is_tail = match k_opt with None -> true | Some k -> k - i + 1 >= t in
        originate node (if is_tail then Message.Lfc_tail v else Message.Not_lfc_tail v)
      | _ -> ())
    (List.rev node.failed_parents)

(* Execution-relative action rounds of an activated node at [level],
   besides failed-parent detection in round level + 1 (round 1 for the
   root): the failed-child beat in phase round cd − level + 1, and the
   LFC determinations. *)
let fc_action ~cd ~level = (3 * cd) + 2 - level
let lfc_action ~cd = (4 * cd) + 3

let compute_verdict node =
  let saw_lfc_tail =
    Flood.fold_seen
      (fun body saw -> saw || match body with Message.Lfc_tail _ -> true | _ -> false)
      node.flood false
  in
  if node.overflow || saw_lfc_tail then false
  else
    not
      (List.exists
         (fun (v, depth) ->
           depth >= node.p.Params.t && not (Flood.seen node.flood (Message.Not_lfc_tail v)))
         node.failed_parents)

(* Telemetry phase marker; range-based for the same reason as
   [Agg.span_phase] (Pair hands us execution-relative rounds). *)
let span_phase node ~rr ~cd =
  if Ftagg_obs.Span.active () then begin
    let name =
      if rr <= (2 * cd) + 1 then "veri/failed_parent"
      else if rr <= (4 * cd) + 2 then "veri/challenge"
      else "veri/lfc"
    in
    Ftagg_obs.Span.phase ~node:node.me name
  end

let step node ~rr ~inbox =
  let p = node.p in
  let cd = Params.cd p in
  let is_root = node.me = Ftagg_graph.Graph.root in
  span_phase node ~rr ~cd;
  if node.overflow then begin
    List.iter
      (fun (_, body) ->
        if body = Message.Veri_overflow then ignore (Flood.receive node.flood body))
      inbox;
    let out = List.filter (fun b -> b = Message.Veri_overflow) (Flood.drain node.flood) in
    List.iter (fun b -> node.sent_bits <- node.sent_bits + Message.bits p b) out;
    if is_root && rr = duration p then node.verdict <- Some false;
    out
  end
  else begin
    (* 1. Flood intake. *)
    List.iter
      (fun (_, body) ->
        if Message.is_flood body then
          if Flood.receive node.flood body then note_flood node body)
      inbox;
    (* 2. Phase actions (only tree participants act; others just forward). *)
    let tree = node.tree in
    if Agg.activated tree then begin
      let level = Agg.level tree and parent = Agg.parent tree in
      (* Failed-parent detection. *)
      if is_root && rr = 1 then originate node Message.Detect_failed_parent;
      if (not is_root) && rr = level + 1 then begin
        let heard_parent = List.exists (fun (sender, _) -> sender = parent) inbox in
        if not heard_parent then
          originate node
            (Message.Failed_parent { node = parent; depth = Agg.max_level tree - level + 1 })
      end;
      (* Failed-child detection: everyone beats at phase round cd−level+1. *)
      if rr = fc_action ~cd ~level then begin
        match Agg.children tree with
        | [] -> originate node Message.Detect_failed_child
        | children ->
          List.iter
            (fun v ->
              let heard = List.exists (fun (sender, _) -> sender = v) inbox in
              if not heard then originate node (Message.Failed_child v))
            children
      end;
      (* LFC determination. *)
      if rr = lfc_action ~cd then make_determinations node
    end;
    let outgoing = Flood.drain node.flood in
    (* Budget enforcement (§5.1). *)
    let cost = List.fold_left (fun acc b -> acc + Message.bits p b) 0 outgoing in
    let outgoing =
      if node.sent_bits + cost > Params.veri_bit_budget p then begin
        node.overflow <- true;
        ignore (Flood.originate node.flood Message.Veri_overflow);
        ignore (Flood.drain node.flood);
        let only = [ Message.Veri_overflow ] in
        node.sent_bits <-
          node.sent_bits + List.fold_left (fun a b -> a + Message.bits p b) 0 only;
        only
      end
      else begin
        node.sent_bits <- node.sent_bits + cost;
        outgoing
      end
    in
    if is_root && rr = duration p then node.verdict <- Some (compute_verdict node);
    outgoing
  end

(* The action rounds [step] tests — level + 1, [fc_action], [lfc_action]
   — plus the root's verdict round (also after overflow, whose branch
   sets the verdict there).  They depend only on the AGG tree, so this is
   also VERI's schedule while AGG still runs.  An empty inbox in any other
   round leaves the state as it was: the overflow branch and the drain
   have nothing to send, and a never-activated node only forwards. *)
let wake node ~round =
  if Flood.pending node.flood then round + 1
  else if not (Agg.activated node.tree) then max_int
  else begin
    let cd = Params.cd node.p and level = Agg.level node.tree in
    let next a acc = if a > round && a < acc then a else acc in
    let verdict = if node.me = Ftagg_graph.Graph.root then duration node.p else max_int in
    next (level + 1) (next (fc_action ~cd ~level) (next (lfc_action ~cd) verdict))
  end

let root_verdict node =
  match node.verdict with
  | Some v -> v
  | None -> invalid_arg "Veri.root_verdict: execution not finished"
