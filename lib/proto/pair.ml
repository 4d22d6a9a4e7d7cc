type node = {
  p : Params.t;
  me : int;
  agg : Agg.node;
  mutable veri : Veri.node option;
}

type verdict = {
  result : Agg.result;
  veri_ok : bool;
}

let duration p = Agg.duration p + Veri.duration p

let create ?ablation p ~me = { p; me; agg = Agg.create ?ablation p ~me; veri = None }

let step node ~rr ~inbox =
  let agg_dur = Agg.duration node.p in
  if rr <= agg_dur then Agg.step node.agg ~rr ~inbox
  else begin
    let veri =
      match node.veri with
      | Some v -> v
      | None ->
        let v = Veri.create node.p ~me:node.me ~from_agg:node.agg in
        node.veri <- Some v;
        v
    in
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
    Veri.step veri ~rr:(rr - agg_dur) ~inbox
  end

let protocol ?ablation p =
  {
    Ftagg_sim.Engine.init = (fun u ~rng:_ -> create ?ablation p ~me:u);
    step = (fun ~round ~me:_ ~state ~inbox -> (state, step state ~rr:round ~inbox));
    msg_bits = Message.bits p;
    root_done = (fun _ -> false);
    wake = Ftagg_sim.Engine.every_round;
  }

let root_verdict node =
  match node.veri with
  | None -> invalid_arg "Pair.root_verdict: execution not finished"
  | Some veri -> { result = Agg.root_result node.agg; veri_ok = Veri.root_verdict veri }

let agg node = node.agg
let veri node = node.veri
