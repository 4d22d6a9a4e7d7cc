(* Extended randomized campaign — a heavier hammer than `dune runtest`.

   Every trial draws a random topology, parameters and adversary
   (oblivious schedules and adaptive, traffic-watching ones alike), runs
   a watchdog-instrumented AGG+VERI pair plus a full Algorithm 1
   execution, and checks every guarantee the paper states while the run
   executes (Table 2, bit budgets, activation discipline, §4.3
   representative sets, Theorem 1).  Run with a trial count (default
   200):

     dune exec test/fuzz/fuzz.exe -- 2000

   A violating trial does not stop the scan: the scenario is shrunk to a
   minimal reproducer (crashes dropped and delayed, the system size
   reduced) and recorded; scanning continues so one bug cannot mask
   another.  At the end every distinct violated invariant is reported
   with its minimized scenario, and the exit status is non-zero if there
   was any. *)

open Ftagg

let families = [| Gen.Path; Gen.Ring; Gen.Grid; Gen.Star; Gen.Binary_tree;
                  Gen.Complete; Gen.Random 0.05; Gen.Random 0.15; Gen.Caterpillar;
                  Gen.Lollipop; Gen.Torus; Gen.Random_regular 4 |]

(* The library's oblivious/adaptive mix, plus the chain schedule (the
   paper's long-failure-chain construction) the library set omits. *)
let chain_adversary =
  Adversary.Oblivious
    ( "oblivious:chain",
      fun g ~rng ~budget ~window ->
        let n = Graph.n g in
        Failure.chain ~n ~first:1
          ~len:(1 + Prng.int rng (max 1 (min budget (n - 3))))
          ~round:(1 + Prng.int rng window) )

let adversaries = Array.of_list (chain_adversary :: Adversary.all)

type found = {
  mutable incidents : (string * Incident.t) list;  (* distinct, newest first *)
  mutable violating_trials : int;
}

let record found ~adversary ~trial (sc : Incident.scenario) (v : Engine.violation) =
  found.violating_trials <- found.violating_trials + 1;
  if not (List.mem_assoc v.Engine.invariant found.incidents) then begin
    Printf.printf "trial %d: NEW violation %s at round %d — shrinking…\n%!" trial
      v.Engine.invariant v.Engine.at_round;
    let inc = Campaign.to_incident ~adversary sc v in
    found.incidents <- (v.Engine.invariant, inc) :: found.incidents
  end

let trial rng found i =
  let fam = families.(Prng.int rng (Array.length families)) in
  let n = 10 + Prng.int rng 40 in
  let n = if fam = Gen.Torus then max n 12 else n in
  let topo_seed = Prng.int rng 1_000_000 in
  let t = Prng.int rng 6 in
  let budget = Prng.int rng 14 in
  let run_seed = Prng.int rng 1_000_000 in
  let sc =
    {
      Incident.family = fam;
      n;
      topo_seed;
      run_seed;
      c = 2;
      t;
      inputs = Array.init n (fun k -> (k * 7 mod 50) + 1);
      schedule = [];
      faults = Engine.no_faults;
      kind = Incident.Pair_run;
      bit_cap = None;
    }
  in
  let graph = Campaign.graph_of sc in
  let params = Campaign.params_of sc graph in
  (* --- the pair, under a live watchdog: Table 2, bit budgets,
     activation discipline, representative sets --- *)
  let adversary = adversaries.(Prng.int rng (Array.length adversaries)) in
  let base, online =
    Adversary.instantiate adversary graph ~rng ~budget ~window:(Pair.duration params)
  in
  let sc = { sc with Incident.schedule = Failure.to_list base } in
  let report = Campaign.run_pair ?online sc in
  (match report.Campaign.violation with
  | None -> ()
  | Some v -> record found ~adversary:(Adversary.name adversary) ~trial:i report.Campaign.scenario v);
  (* --- Algorithm 1 under its Theorem 1 watch (oblivious schedules) --- *)
  let b = 63 + (21 * Prng.int rng 6) in
  let f = max budget 1 in
  let adversary2 =
    adversaries.(Prng.int rng (Array.length adversaries))
  in
  let base2, _online2 =
    Adversary.instantiate adversary2 graph ~rng ~budget ~window:(b * params.Params.d)
  in
  let sc2 =
    {
      sc with
      Incident.schedule = Failure.to_list base2;
      run_seed = run_seed + 1;
      kind = Incident.Backend_run { backend = "tradeoff"; b; f };
    }
  in
  match Campaign.check sc2 with
  | None -> ()
  | Some v -> record found ~adversary:(Adversary.name adversary2) ~trial:i sc2 v

let () =
  let trials =
    match Sys.argv with
    | [| _; k |] -> int_of_string k
    | _ -> 200
  in
  let rng = Prng.create 20260704 in
  let found = { incidents = []; violating_trials = 0 } in
  for i = 1 to trials do
    trial rng found i;
    if i mod 100 = 0 then Printf.printf "… %d/%d trials scanned\n%!" i trials
  done;
  match found.incidents with
  | [] -> Printf.printf "fuzz: %d trials, every guarantee held\n" trials
  | incidents ->
    Printf.eprintf "fuzz: %d trials, %d violating, %d distinct invariant(s) broken:\n" trials
      found.violating_trials (List.length incidents);
    List.iter
      (fun (invariant, (inc : Incident.t)) ->
        Format.eprintf "  %s at round %d (found by %s)@\n    minimized: %a@\n    detail: %s@\n"
          invariant inc.Incident.violation.Engine.at_round inc.Incident.adversary
          Incident.pp_scenario inc.Incident.scenario inc.Incident.violation.Engine.detail)
      (List.rev incidents);
    exit 1
