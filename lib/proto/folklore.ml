module Caaf = Ftagg_caaf.Caaf

type mode = Naive | Retry of int

type result = Value of int | No_clean_epoch

(* Per-epoch tree state. *)
type epoch_state = {
  mutable activated : bool;
  mutable level : int;
  mutable parent : int;
  mutable children : int list;
  mutable tc_send_round : int;
  mutable psum : int;
  mutable clean : bool;  (* every child delivered on schedule *)
  child_psums : (int, int) Hashtbl.t;
}

type node = {
  p : Params.t;
  mode : mode;
  me : int;
  mutable epoch : int;  (* current epoch number, 1-based *)
  mutable es : epoch_state;
  mutable output : result option;
  mutable epochs_used : int;
}

let epoch_duration p = (3 * Params.cd p) + 2

let max_epochs mode = match mode with Naive -> 1 | Retry k -> max k 1

let duration p mode = epoch_duration p * max_epochs mode

let fresh_epoch_state p ~me =
  let is_root = me = Ftagg_graph.Graph.root in
  {
    activated = is_root;
    level = (if is_root then 0 else -1);
    parent = -1;
    children = [];
    tc_send_round = (if is_root then 1 else -1);
    psum = p.Params.inputs.(me);
    clean = true;
    child_psums = Hashtbl.create 4;
  }

let create p ~mode ~me =
  { p; mode; me; epoch = 1; es = fresh_epoch_state p ~me; output = None; epochs_used = 0 }

let root_done node = node.output <> None

let step node ~rr ~inbox =
  let p = node.p in
  let cd = Params.cd p in
  let is_root = node.me = Ftagg_graph.Graph.root in
  let dur = epoch_duration p in
  if node.output <> None then []
  else begin
    (* Roll to the epoch this round belongs to. *)
    let epoch_now = ((rr - 1) / dur) + 1 in
    if epoch_now > node.epoch then begin
      node.epoch <- epoch_now;
      node.es <- fresh_epoch_state p ~me:node.me
    end;
    let er = rr - ((node.epoch - 1) * dur) in
    let es = node.es in
    let inbox =
      List.filter_map
        (fun (sender, Message.{ exec; body }) ->
          if exec = node.epoch then Some (sender, body) else None)
        inbox
    in
    let out = ref [] in
    (* Intake. *)
    List.iter
      (fun (sender, body) ->
        match body with
        | Message.Ack { parent } when parent = node.me -> es.children <- sender :: es.children
        | Message.Aggregation { psum; max_level = _ } when List.mem sender es.children ->
          Hashtbl.replace es.child_psums sender psum
        | _ -> ())
      inbox;
    (* Activation. *)
    if (not es.activated) && er <= (2 * cd) + 1 then begin
      match
        List.find_opt (function _, Message.Tree_construct _ -> true | _ -> false) inbox
      with
      | Some (sender, Message.Tree_construct { level = sl; ancestors = _ })
        when sl + 1 <= cd ->
        es.activated <- true;
        es.level <- sl + 1;
        es.parent <- sender;
        es.tc_send_round <- er + 1;
        out := Message.Ack { parent = sender } :: !out
      | _ -> ()
    end;
    if es.activated then begin
      if er = es.tc_send_round then
        out := Message.Tree_construct { level = es.level; ancestors = [] } :: !out;
      (* Aggregation action in round cd − level + 1 of the second phase. *)
      let action = (2 * cd) + 1 + (cd - es.level + 1) in
      if er = action then begin
        let caaf = p.Params.caaf in
        List.iter
          (fun child ->
            match Hashtbl.find_opt es.child_psums child with
            | Some cpsum -> es.psum <- caaf.Caaf.combine es.psum cpsum
            | None -> es.clean <- false)
          es.children;
        (match node.mode with
        | Naive ->
          if not is_root then out := Message.Aggregation { psum = es.psum; max_level = 0 } :: !out
        | Retry _ ->
          (* Withhold on a dirty subtree so the failure cascades upward. *)
          if (not is_root) && es.clean then
            out := Message.Aggregation { psum = es.psum; max_level = 0 } :: !out)
      end;
      (* Epoch verdict at the root. *)
      if is_root && er = dur then begin
        node.epochs_used <- node.epoch;
        let accept = match node.mode with Naive -> true | Retry _ -> es.clean in
        if accept then node.output <- Some (Value es.psum)
        else if node.epoch >= max_epochs node.mode then node.output <- Some No_clean_epoch
      end
    end;
    List.map (fun body -> Message.{ exec = node.epoch; body }) !out
  end

let protocol p ~mode =
  {
    Ftagg_sim.Engine.init = (fun u ~rng:_ -> create p ~mode ~me:u);
    step = (fun ~round ~me:_ ~state ~inbox -> (state, step state ~rr:round ~inbox));
    msg_bits = Message.msg_bits p;
    root_done;
    wake = Ftagg_sim.Engine.every_round;
  }

let root_result node =
  match node.output with
  | Some r -> r
  | None -> invalid_arg "Folklore.root_result: execution not finished"

let epochs_used node = node.epochs_used
