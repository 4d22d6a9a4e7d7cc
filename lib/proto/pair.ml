type node = {
  p : Params.t;
  agg : Agg.node;
  veri : Veri.node;  (* reads [agg]'s tree; steps once AGG is done *)
}

type verdict = {
  result : Agg.result;
  veri_ok : bool;
}

let duration p = Agg.duration p + Veri.duration p

let create ?ablation p ~me =
  let agg = Agg.create ?ablation p ~me in
  { p; agg; veri = Veri.create p ~me ~from_agg:agg }

let step node ~rr ~inbox =
  let agg_dur = Agg.duration node.p in
  if rr <= agg_dur then Agg.step node.agg ~rr ~inbox
  else begin
    (* Straggler AGG floods still in flight are dropped here: nothing the
       root needed can arrive after its output round (every AGG flood
       completes within its own phase), so forwarding them further would
       only add bits the paper's accounting already charged at origin. *)
    let inbox =
      List.filter
        (fun (_, body) ->
          match body with
          | Message.Critical_failure _ | Message.Flooded_psum _ | Message.Dominated _
          | Message.Compulsory _ | Message.Agg_abort | Message.Tree_construct _
          | Message.Ack _ | Message.Aggregation _ ->
            false
          | _ -> true)
        inbox
    in
    Veri.step node.veri ~rr:(rr - agg_dur) ~inbox
  end

(* AGG's schedule in the AGG half, capped by VERI's first action round;
   VERI's alone after it.  [Agg.wake] is never asked past AGG's last
   round: AGG never steps again, so a flood it still had queued would
   answer [round + 1] forever. *)
let wake node ~round =
  let agg_dur = Agg.duration node.p in
  let veri =
    match Veri.wake node.veri ~round:(round - agg_dur) with
    | r when r = max_int -> max_int
    | r -> agg_dur + r
  in
  if round < agg_dur then min (Agg.wake node.agg ~round) veri else veri

let protocol ?ablation p =
  {
    Ftagg_sim.Engine.init = (fun u ~rng:_ -> create ?ablation p ~me:u);
    step = (fun ~round ~me:_ ~state ~inbox -> (state, step state ~rr:round ~inbox));
    msg_bits = Message.bits p;
    root_done = (fun _ -> false);
    wake;
  }

let root_verdict node =
  { result = Agg.root_result node.agg; veri_ok = Veri.root_verdict node.veri }

let agg node = node.agg
