module Caaf = Ftagg_caaf.Caaf

type node = {
  p : Params.t;
  me : int;
  flood : Message.body Flood.t;  (* also the values heard: one [Bf_value] per source *)
  mutable started : bool;
  mutable output : int option;
}

let duration p = (2 * Params.cd p) + 1

let create p ~me =
  {
    p;
    me;
    flood = Flood.create ();
    started = false;
    output = None;
  }

let step node ~rr ~inbox =
  let is_root = node.me = Ftagg_graph.Graph.root in
  List.iter
    (fun (_, body) ->
      if Message.is_flood body && Flood.receive node.flood body then
        match body with
        | Message.Bf_init ->
          if not node.started then begin
            node.started <- true;
            ignore
              (Flood.originate node.flood
                 (Message.Bf_value { source = node.me; value = node.p.Params.inputs.(node.me) }))
          end
        | _ -> ())
    inbox;
  if is_root && rr = 1 then begin
    node.started <- true;
    ignore (Flood.originate node.flood Message.Bf_init)
  end;
  if is_root && rr = duration node.p then begin
    let caaf = node.p.Params.caaf in
    let add body acc =
      match body with
      | Message.Bf_value { source; value } when source <> node.me -> caaf.Caaf.combine acc value
      | _ -> acc
    in
    node.output <- Some (Flood.fold_seen add node.flood node.p.Params.inputs.(node.me))
  end;
  Flood.drain node.flood

(* Only the root acts on an empty inbox (the start flood in round 1, the
   output in the last); every other node starts on the start flood and
   then only forwards, so mail is its only wake. *)
let wake node ~round =
  if Flood.pending node.flood then round + 1
  else if node.me <> Ftagg_graph.Graph.root then max_int
  else if round < 1 then 1
  else if round < duration node.p then duration node.p
  else max_int

let protocol p =
  {
    Ftagg_sim.Engine.init = (fun u ~rng:_ -> create p ~me:u);
    step = (fun ~round ~me:_ ~state ~inbox -> (state, step state ~rr:round ~inbox));
    msg_bits = Message.bits p;
    root_done = (fun _ -> false);
    wake;
  }

let root_result node =
  match node.output with
  | Some v -> v
  | None -> invalid_arg "Brute_force.root_result: execution not finished"
