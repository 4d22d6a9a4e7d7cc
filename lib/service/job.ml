module Graph = Ftagg_graph.Graph
module Gen = Ftagg_graph.Gen
module Prng = Ftagg_util.Prng
module Failure = Ftagg_sim.Failure
module Engine = Ftagg_sim.Engine
module Metrics = Ftagg_sim.Metrics
module Caaf = Ftagg_caaf.Caaf
module Instances = Ftagg_caaf.Instances
module Params = Ftagg_proto.Params
module Agg = Ftagg_proto.Agg
module Pair = Ftagg_proto.Pair
module Run = Ftagg_proto.Run
module Backend = Ftagg_proto.Backend
module Bench_io = Ftagg_runner.Bench_io
module Incident = Ftagg_chaos.Incident

type priority = High | Normal | Low

let priority_to_string = function High -> "high" | Normal -> "normal" | Low -> "low"

let priority_of_string = function
  | "high" -> Some High
  | "normal" -> Some Normal
  | "low" -> Some Low
  | _ -> None

let priority_rank = function High -> 0 | Normal -> 1 | Low -> 2

type protocol =
  | Tradeoff of { b : int; f : int }
  | Brute
  | Unknown_f
  | Chaos_pair of { bit_cap : int option }

type failure_spec =
  | Generated of { mode : string; budget : int }
  | Explicit of (int * int) list

type spec = {
  tenant : string;
  family : Gen.family;
  n : int;
  topo_seed : int;
  inputs : int array;
  c : int;
  t : int;
  caaf : string;
  protocol : protocol;
  failures : failure_spec;
  seed : int;
  generation : int;
  deadline : int option;
  priority : priority;
}

type outcome = {
  value : int option;
  correct : bool;
  cc : int;
  rounds : int;
  flooding_rounds : int;
  via : string;
  violation : string option;
}

type executed = { outcome : outcome; violation : Engine.violation option }

(* ---- canonical digest ---- *)

(* [i]'s decimal digits, as [string_of_int] prints them, written straight
   into [buf].  A negative [i] writes its last digit separately, so
   [min_int] is never negated. *)
let rec add_digits buf i =
  if i >= 10 then add_digits buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (i mod 10)))

let add_int buf i =
  if i >= 0 then add_digits buf i
  else begin
    Buffer.add_char buf '-';
    if i <= -10 then add_digits buf (-(i / 10));
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (i mod 10)))
  end

let add_protocol buf = function
  | Tradeoff { b; f } ->
    Buffer.add_string buf "tradeoff:";
    add_int buf b;
    Buffer.add_char buf ':';
    add_int buf f
  | Brute -> Buffer.add_string buf "brute"
  | Unknown_f -> Buffer.add_string buf "unknown_f"
  | Chaos_pair { bit_cap } -> (
    Buffer.add_string buf "chaos_pair:";
    match bit_cap with Some c -> add_int buf c | None -> Buffer.add_char buf '-')

let add_failures buf = function
  | Generated { mode; budget } ->
    Buffer.add_string buf "gen:";
    Buffer.add_string buf mode;
    Buffer.add_char buf ':';
    add_int buf budget
  | Explicit schedule ->
    Buffer.add_string buf "exp:";
    List.iteri
      (fun i (u, r) ->
        if i > 0 then Buffer.add_char buf ',';
        add_int buf u;
        Buffer.add_char buf '@';
        add_int buf r)
      schedule

(* FNV-1a over the canonical request string, built in one buffer:
   family, n, topo_seed, the inputs joined by commas, c, t, the
   lower-cased aggregate, the protocol and failure tokens and the seed,
   joined by '|'.  Tenant, priority and deadline are deliberately
   excluded: they change who waits and for how long, not what is
   computed, so two tenants asking the same question share one cache
   entry. *)
let digest spec =
  let buf = Buffer.create 256 in
  let sep () = Buffer.add_char buf '|' in
  Buffer.add_string buf (Incident.family_to_string spec.family);
  sep ();
  add_int buf spec.n;
  sep ();
  add_int buf spec.topo_seed;
  sep ();
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      add_int buf x)
    spec.inputs;
  sep ();
  add_int buf spec.c;
  sep ();
  add_int buf spec.t;
  sep ();
  String.iter (fun c -> Buffer.add_char buf (Char.lowercase_ascii c)) spec.caaf;
  sep ();
  add_protocol buf spec.protocol;
  sep ();
  add_failures buf spec.failures;
  sep ();
  add_int buf spec.seed;
  Printf.sprintf "%016Lx" (Ftagg_util.Fnv.hash (Buffer.contents buf))

(* The cache key adds the topology generation the digest deliberately
   leaves out: same question, later generation → different key, so a
   churned topology can never be answered from a stale entry. *)
let key_of_digest spec digest =
  if spec.generation = 0 then digest else digest ^ "@g" ^ string_of_int spec.generation

let cache_key spec = key_of_digest spec (digest spec)

(* ---- JSON codec ---- *)

(* The wire name; for every protocol but [Chaos_pair] it is also the
   key of the job's row in [Run.protocols]. *)
let protocol_name = function
  | Tradeoff _ -> "tradeoff"
  | Brute -> "brute"
  | Unknown_f -> "unknown-f"
  | Chaos_pair _ -> "chaos-pair"

let to_json spec =
  let base =
    [
      ("tenant", Bench_io.String spec.tenant);
      ("family", Bench_io.String (Incident.family_to_string spec.family));
      ("n", Bench_io.Int spec.n);
      ("topo_seed", Bench_io.Int spec.topo_seed);
      ("inputs", Bench_io.List (Array.to_list (Array.map (fun x -> Bench_io.Int x) spec.inputs)));
      ("c", Bench_io.Int spec.c);
      ("t", Bench_io.Int spec.t);
      ("caaf", Bench_io.String spec.caaf);
      ("protocol", Bench_io.String (protocol_name spec.protocol));
      ("seed", Bench_io.Int spec.seed);
      ("priority", Bench_io.String (priority_to_string spec.priority));
    ]
  in
  let protocol_fields =
    match spec.protocol with
    | Tradeoff { b; f } -> [ ("b", Bench_io.Int b); ("f", Bench_io.Int f) ]
    | Chaos_pair { bit_cap = Some cap } -> [ ("bit_cap", Bench_io.Int cap) ]
    | _ -> []
  in
  let failure_fields =
    match spec.failures with
    | Generated { mode; budget } ->
      [ ("failures", Bench_io.String mode); ("budget", Bench_io.Int budget) ]
    | Explicit schedule ->
      [
        ( "schedule",
          Bench_io.List
            (List.map (fun (u, r) -> Bench_io.List [ Bench_io.Int u; Bench_io.Int r ]) schedule) );
      ]
  in
  let deadline_fields =
    match spec.deadline with Some d -> [ ("deadline", Bench_io.Int d) ] | None -> []
  in
  let generation_fields =
    if spec.generation = 0 then [] else [ ("generation", Bench_io.Int spec.generation) ]
  in
  Bench_io.Obj (base @ protocol_fields @ failure_fields @ deadline_fields @ generation_fields)

let ( let* ) = Result.bind

let field_int json key default =
  match Bench_io.member key json with
  | None -> Ok default
  | Some v -> (
    match Bench_io.to_int v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "job: %s must be an integer" key))

let field_string json key default =
  match Bench_io.member key json with
  | None -> Ok default
  | Some (Bench_io.String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "job: %s must be a string" key)

let of_json ~(settings : Reconfig.settings) json =
  match json with
  | Bench_io.Obj _ ->
    let* tenant = field_string json "tenant" "default" in
    let* family_s = field_string json "family" "grid" in
    let* family =
      match Incident.family_of_string family_s with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "job: unknown topology family %S" family_s)
    in
    let* n = field_int json "n" 36 in
    let* () = if n >= 2 then Ok () else Error "job: n must be >= 2" in
    let* seed = field_int json "seed" 1 in
    let* topo_seed = field_int json "topo_seed" seed in
    let* f = field_int json "f" settings.Reconfig.default_f in
    let* b = field_int json "b" settings.Reconfig.default_b in
    let* c = field_int json "c" 2 in
    let* t = field_int json "t" (max 1 (2 * f)) in
    let* max_input = field_int json "max_input" 50 in
    let* inputs =
      match Bench_io.member "inputs" json with
      | None ->
        Ok (Params.random_inputs ~rng:(Prng.create (seed + 17)) ~n ~max_input)
      | Some (Bench_io.List items) ->
        let rec conv acc = function
          | [] -> Ok (Array.of_list (List.rev acc))
          | item :: rest -> (
            match Bench_io.to_int item with
            | Some i when i >= 0 -> conv (i :: acc) rest
            | _ -> Error "job: inputs must be non-negative integers")
        in
        let* arr = conv [] items in
        if Array.length arr = n then Ok arr
        else Error (Printf.sprintf "job: inputs has %d entries, expected n = %d" (Array.length arr) n)
      | Some _ -> Error "job: inputs must be an array"
    in
    let* caaf = field_string json "caaf" "sum" in
    let* () =
      match Instances.of_name caaf with
      | Some _ -> Ok ()
      | None -> Error (Printf.sprintf "job: unknown aggregate %S" caaf)
    in
    let* protocol_s = field_string json "protocol" "tradeoff" in
    let* bit_cap =
      match Bench_io.member "bit_cap" json with
      | None -> Ok None
      | Some v -> (
        match Bench_io.to_int v with
        | Some i -> Ok (Some i)
        | None -> Error "job: bit_cap must be an integer")
    in
    let* protocol =
      match String.lowercase_ascii protocol_s with
      | "tradeoff" -> Ok (Tradeoff { b; f })
      | "brute" -> Ok Brute
      | "unknown-f" | "unknown_f" -> Ok Unknown_f
      | "chaos-pair" | "chaos_pair" -> Ok (Chaos_pair { bit_cap })
      | other -> Error (Printf.sprintf "job: unknown protocol %S" other)
    in
    let* failures =
      match Bench_io.member "schedule" json with
      | Some (Bench_io.List items) ->
        let rec conv acc = function
          | [] -> Ok (Explicit (List.rev acc))
          | Bench_io.List [ u; r ] :: rest -> (
            match (Bench_io.to_int u, Bench_io.to_int r) with
            | Some u, Some r -> conv ((u, r) :: acc) rest
            | _ -> Error "job: schedule entries must be [node, round] integer pairs")
          | _ -> Error "job: schedule entries must be [node, round] integer pairs"
        in
        conv [] items
      | Some _ -> Error "job: schedule must be an array of [node, round] pairs"
      | None ->
        let* mode = field_string json "failures" "random" in
        let mode = String.lowercase_ascii mode in
        let* () =
          if List.mem mode Failure.modes then Ok ()
          else Error (Printf.sprintf "job: unknown failure mode %S" mode)
        in
        let* budget = field_int json "budget" f in
        Ok (Generated { mode; budget })
    in
    let* deadline =
      match Bench_io.member "deadline" json with
      | None -> Ok None
      | Some v -> (
        match Bench_io.to_int v with
        | Some d when d >= 0 -> Ok (Some d)
        | _ -> Error "job: deadline must be a non-negative integer")
    in
    let* priority_s = field_string json "priority" "normal" in
    let* priority =
      match priority_of_string (String.lowercase_ascii priority_s) with
      | Some p -> Ok p
      | None -> Error (Printf.sprintf "job: unknown priority %S" priority_s)
    in
    let* generation = field_int json "generation" 0 in
    let* () =
      if generation >= 0 then Ok () else Error "job: generation must be non-negative"
    in
    Ok
      {
        tenant; family; n; topo_seed; inputs; c; t;
        caaf = String.lowercase_ascii caaf;
        protocol; failures; seed; generation; deadline; priority;
      }
  | _ -> Error "job: expected an object"

let outcome_to_json o =
  Bench_io.Obj
    [
      ("value", match o.value with Some v -> Bench_io.Int v | None -> Bench_io.Null);
      ("correct", Bench_io.Bool o.correct);
      ("cc", Bench_io.Int o.cc);
      ("rounds", Bench_io.Int o.rounds);
      ("flooding_rounds", Bench_io.Int o.flooding_rounds);
      ("via", Bench_io.String o.via);
      ("violation", match o.violation with Some v -> Bench_io.String v | None -> Bench_io.Null);
    ]

let outcome_of_json json =
  let* cc = field_int json "cc" 0 in
  let* rounds = field_int json "rounds" 0 in
  let* flooding_rounds = field_int json "flooding_rounds" 0 in
  let* via = field_string json "via" "" in
  let value =
    match Bench_io.member "value" json with Some v -> Bench_io.to_int v | None -> None
  in
  let violation =
    match Bench_io.member "violation" json with
    | Some (Bench_io.String s) -> Some s
    | _ -> None
  in
  let correct =
    match Bench_io.member "correct" json with
    | Some v -> Option.value (Bench_io.to_bool v) ~default:false
    | None -> false
  in
  Ok { value; correct; cc; rounds; flooding_rounds; via; violation }

(* ---- execution ---- *)

let materialize_failures spec graph ~window =
  match spec.failures with
  | Explicit schedule -> Failure.of_list ~n:spec.n schedule
  | Generated { mode; budget } ->
    (* [of_json] admits only the names in [Failure.modes]. *)
    Option.get (Failure.generate graph ~mode ~budget ~seed:(spec.seed + 3) ~window)

let execute spec =
  let graph = Gen.build spec.family ~n:spec.n ~seed:spec.topo_seed in
  let caaf = Option.get (Instances.of_name spec.caaf) in
  let params = Params.make ~c:spec.c ~t:spec.t ~caaf ~graph ~inputs:spec.inputs () in
  let d = params.Params.d in
  (* One outcome builder for every protocol: a watched chaos-pair run
     adds its violation. *)
  let executed ?violation ~via (o : Backend.outcome) =
    let c = o.Backend.common in
    {
      outcome =
        {
          value = (match o.Backend.result with Backend.Exact (Agg.Value v) -> Some v | _ -> None);
          correct = c.Backend.correct;
          cc = Metrics.cc c.Backend.metrics;
          rounds = c.Backend.rounds;
          flooding_rounds = c.Backend.flooding_rounds;
          via = Option.value (List.assoc_opt "via" o.Backend.evidence) ~default:via;
          violation = Option.map (fun (v : Engine.violation) -> v.Engine.invariant) violation;
        };
      violation;
    }
  in
  let run ~window ~b ~f =
    let backend = Option.get (Run.protocol_of_string (protocol_name spec.protocol)) in
    let failures = materialize_failures spec graph ~window in
    executed ~via:"brute-force"
      (Backend.exec ~backend ~graph ~failures ~params ~b ~f ~seed:spec.seed ())
  in
  match spec.protocol with
  | Tradeoff { b; f } -> run ~window:(b * d) ~b ~f
  | Brute -> run ~window:(4 * d) ~b:0 ~f:0
  | Unknown_f -> run ~window:(63 * d) ~b:0 ~f:0
  | Chaos_pair { bit_cap } ->
    (* The watched AGG+VERI pair row on the job's own graph and params:
       the service is the campaign's trial transport here (see
       [Chaos_gate]). *)
    let failures = materialize_failures spec graph ~window:(Pair.duration params) in
    let ch =
      Backend.exec_chaos ?bit_cap ~backend:(Option.get (Run.backend_of_string "agg")) ~graph
        ~failures ~params ~b:0 ~f:0 ~seed:spec.seed ()
    in
    executed ?violation:ch.Backend.c_violation ~via:"chaos pair" ch.Backend.c_outcome
