module Engine = Ftagg_sim.Engine

type budget = { mutable tries : int }

let max_tries = 300

(* One oracle probe, under the try budget.  A scenario that raises (e.g.
   a family rejecting a shrunken [n]) simply does not reproduce the
   violation. *)
let still_fails budget ~oracle ~matches sc =
  if budget.tries >= max_tries then false
  else begin
    budget.tries <- budget.tries + 1;
    match oracle sc with
    | Some v -> matches v
    | None -> false
    | exception _ -> false
  end

let without l lo hi = List.filteri (fun i _ -> i < lo || i >= hi) l

(* Classic ddmin over the crash list: try deleting aligned chunks, halving
   the chunk size whenever no deletion reproduces the violation. *)
let drop_crashes ?(note = ignore) fails sc0 =
  let sc = ref sc0 in
  let chunk = ref (max 1 ((List.length sc0.Incident.schedule + 1) / 2)) in
  let running = ref (sc0.Incident.schedule <> []) in
  while !running do
    let removed = ref false in
    let i = ref 0 in
    while !i * !chunk < List.length (!sc).Incident.schedule do
      let sched = (!sc).Incident.schedule in
      let lo = !i * !chunk in
      let hi = min (List.length sched) (lo + !chunk) in
      let cand = { !sc with Incident.schedule = without sched lo hi } in
      if fails cand then begin
        sc := cand;
        note cand;
        removed := true
        (* keep [i]: the next chunk has shifted into this position *)
      end
      else incr i
    done;
    if not !removed then begin
      if !chunk <= 1 then running := false else chunk := max 1 (!chunk / 2)
    end
    else if (!sc).Incident.schedule = [] then running := false
  done;
  !sc

(* Push each crash as late as it will go while the violation survives —
   "crash at round 2" in a report then means round 2 is load-bearing. *)
let delay_crashes ?(note = ignore) fails ~max_round sc0 =
  let sc = ref sc0 in
  let k = List.length sc0.Incident.schedule in
  for j = 0 to k - 1 do
    List.iter
      (fun step ->
        let continue_ = ref true in
        while !continue_ do
          let sched = (!sc).Incident.schedule in
          let u, r = List.nth sched j in
          if r + step > max_round then continue_ := false
          else begin
            let cand =
              {
                !sc with
                Incident.schedule = List.mapi (fun i e -> if i = j then (u, r + step) else e) sched;
              }
            in
            if fails cand then begin sc := cand; note cand end else continue_ := false
          end
        done)
      [ 64; 16; 4; 1 ]
  done;
  !sc

(* Try smaller systems: truncate the inputs and drop out-of-range crashes;
   the oracle rebuilds the topology, so a family that cannot shrink that
   far just fails the probe. *)
let shrink_n ?(note = ignore) fails sc0 =
  let candidate sc n' =
    if n' >= sc.Incident.n || n' < 2 then None
    else
      Some
        {
          sc with
          Incident.n = n';
          inputs = Array.sub sc.Incident.inputs 0 n';
          schedule = List.filter (fun (u, _) -> u < n') sc.Incident.schedule;
        }
  in
  let sc = ref sc0 in
  let progress = ref true in
  while !progress do
    progress := false;
    let n = (!sc).Incident.n in
    List.iter
      (fun n' ->
        if not !progress then
          match candidate !sc n' with
          | None -> ()
          | Some cand -> if fails cand then begin sc := cand; note cand; progress := true end)
      [ n / 2; 2 * n / 3; 3 * n / 4; n - 1 ]
  done;
  !sc

let minimize ?on_progress ~oracle ~matches ~max_round sc0 =
  let budget = { tries = 0 } in
  let fails = still_fails budget ~oracle ~matches in
  (* [note] fires on every accepted (still-failing, smaller) candidate —
     the shrink-progress feed for telemetry sinks. *)
  let note sc =
    match on_progress with
    | None -> ()
    | Some f -> f ~tries:budget.tries (sc : Incident.scenario)
  in
  let stats sc =
    ( sc,
      {
        Incident.s_tries = budget.tries;
        s_from_crashes = List.length sc0.Incident.schedule;
        s_from_n = sc0.Incident.n;
      } )
  in
  (* The input must reproduce at all, or there is nothing to minimize. *)
  if not (fails sc0) then stats sc0
  else begin
    let sc = drop_crashes ~note fails sc0 in
    let sc = shrink_n ~note fails sc in
    let sc = drop_crashes ~note fails sc in
    let sc = delay_crashes ~note fails ~max_round sc in
    stats sc
  end
