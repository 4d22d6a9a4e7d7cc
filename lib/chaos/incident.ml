module Gen = Ftagg_graph.Gen
module Engine = Ftagg_sim.Engine
module J = Ftagg_runner.Bench_io

type kind =
  | Pair_run
  | Backend_run of { backend : string; b : int; f : int }

type scenario = {
  family : Gen.family;
  n : int;
  topo_seed : int;
  run_seed : int;
  c : int;
  t : int;
  inputs : int array;
  schedule : (int * int) list;
  faults : Engine.faults;
  kind : kind;
  bit_cap : int option;
}

type shrink_stats = {
  s_tries : int;
  s_from_crashes : int;
  s_from_n : int;
}

type t = {
  adversary : string;
  scenario : scenario;
  violation : Engine.violation;
  shrink : shrink_stats option;
}

(* ---- family codec (machine form; Gen.family_name is for humans) ---- *)

let family_to_string = function
  | Gen.Path -> "path"
  | Gen.Ring -> "ring"
  | Gen.Grid -> "grid"
  | Gen.Star -> "star"
  | Gen.Binary_tree -> "binary_tree"
  | Gen.Complete -> "complete"
  | Gen.Random p -> Printf.sprintf "random:%h" p
  | Gen.Caterpillar -> "caterpillar"
  | Gen.Lollipop -> "lollipop"
  | Gen.Torus -> "torus"
  | Gen.Random_regular k -> Printf.sprintf "random_regular:%d" k

let family_of_string s =
  match String.split_on_char ':' s with
  | [ "path" ] -> Some Gen.Path
  | [ "ring" ] -> Some Gen.Ring
  | [ "grid" ] -> Some Gen.Grid
  | [ "star" ] -> Some Gen.Star
  | [ "binary_tree" ] -> Some Gen.Binary_tree
  | [ "complete" ] -> Some Gen.Complete
  | [ "random"; p ] -> Option.map (fun p -> Gen.Random p) (float_of_string_opt p)
  | [ "caterpillar" ] -> Some Gen.Caterpillar
  | [ "lollipop" ] -> Some Gen.Lollipop
  | [ "torus" ] -> Some Gen.Torus
  | [ "random_regular"; k ] -> Option.map (fun k -> Gen.Random_regular k) (int_of_string_opt k)
  | _ -> None

(* ---- JSON encoding ---- *)

let scenario_to_json sc =
  J.Obj
    [
      ("family", J.String (family_to_string sc.family));
      ("n", J.Int sc.n);
      ("topo_seed", J.Int sc.topo_seed);
      ("run_seed", J.Int sc.run_seed);
      ("c", J.Int sc.c);
      ("t", J.Int sc.t);
      ("inputs", J.List (Array.to_list (Array.map (fun x -> J.Int x) sc.inputs)));
      ("schedule", J.List (List.map (fun (u, r) -> J.List [ J.Int u; J.Int r ]) sc.schedule));
      ( "faults",
        J.Obj
          [
            ("loss", J.Float sc.faults.Engine.loss);
            ("dup", J.Float sc.faults.Engine.dup);
            ("delay", J.Float sc.faults.Engine.delay);
          ] );
      ( "kind",
        match sc.kind with
        | Pair_run -> J.String "pair"
        | Backend_run { backend; b; f } ->
          J.Obj [ ("backend", J.String backend); ("b", J.Int b); ("f", J.Int f) ] );
      ("bit_cap", match sc.bit_cap with None -> J.Null | Some c -> J.Int c);
    ]

let to_json inc =
  J.Obj
    [
      ("version", J.Int 1);
      ("adversary", J.String inc.adversary);
      ( "violation",
        J.Obj
          [
            ("at_round", J.Int inc.violation.Engine.at_round);
            ("invariant", J.String inc.violation.Engine.invariant);
            ("detail", J.String inc.violation.Engine.detail);
          ] );
      ("scenario", scenario_to_json inc.scenario);
      ( "shrink",
        match inc.shrink with
        | None -> J.Null
        | Some s ->
          J.Obj
            [
              ("tries", J.Int s.s_tries);
              ("from_crashes", J.Int s.s_from_crashes);
              ("from_n", J.Int s.s_from_n);
            ] );
    ]

(* ---- JSON decoding ---- *)

exception Bad of string

let req field v = match v with Some v -> v | None -> raise (Bad field)
let get_int field j = req field (Option.bind (J.member field j) J.to_int)
let get_float field j = req field (Option.bind (J.member field j) J.to_float)
let get_string field j = req field (Option.bind (J.member field j) J.to_string_v)

let scenario_of_json j =
  let family = req "family" (family_of_string (get_string "family" j)) in
  let inputs =
    req "inputs" (Option.bind (J.member "inputs" j) J.to_list)
    |> List.map (fun x -> req "inputs" (J.to_int x))
    |> Array.of_list
  in
  let schedule =
    req "schedule" (Option.bind (J.member "schedule" j) J.to_list)
    |> List.map (fun entry ->
           match J.to_list entry with
           | Some [ u; r ] -> (req "schedule" (J.to_int u), req "schedule" (J.to_int r))
           | _ -> raise (Bad "schedule"))
  in
  let faults =
    match J.member "faults" j with
    | None -> Engine.no_faults
    | Some fj ->
      {
        Engine.loss = get_float "loss" fj;
        dup = get_float "dup" fj;
        delay = get_float "delay" fj;
      }
  in
  let kind =
    match req "kind" (J.member "kind" j) with
    | J.String "pair" -> Pair_run
    | J.Obj _ as kj ->
      (* The older Algorithm 1 form, {"tradeoff": true, "b", "f"}, names
         no backend: it is the "tradeoff" row. *)
      let backend =
        Option.value (Option.bind (J.member "backend" kj) J.to_string_v) ~default:"tradeoff"
      in
      Backend_run { backend; b = get_int "b" kj; f = get_int "f" kj }
    | _ -> raise (Bad "kind")
  in
  let bit_cap =
    match J.member "bit_cap" j with None | Some J.Null -> None | Some v -> Some (req "bit_cap" (J.to_int v))
  in
  {
    family;
    n = get_int "n" j;
    topo_seed = get_int "topo_seed" j;
    run_seed = get_int "run_seed" j;
    c = get_int "c" j;
    t = get_int "t" j;
    inputs;
    schedule;
    faults;
    kind;
    bit_cap;
  }

let of_json j =
  try
    let vj = req "violation" (J.member "violation" j) in
    Ok
      {
        adversary = get_string "adversary" j;
        scenario = scenario_of_json (req "scenario" (J.member "scenario" j));
        violation =
          {
            Engine.at_round = get_int "at_round" vj;
            invariant = get_string "invariant" vj;
            detail = get_string "detail" vj;
          };
        shrink =
          (match J.member "shrink" j with
          | None | Some J.Null -> None
          | Some sj ->
            Some
              {
                s_tries = get_int "tries" sj;
                s_from_crashes = get_int "from_crashes" sj;
                s_from_n = get_int "from_n" sj;
              });
      }
  with Bad field -> Error (Printf.sprintf "incident: missing or malformed field %S" field)

let save ~path inc = J.write_file ~path (to_json inc)

let load ~path =
  match J.read_file ~path with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok j -> of_json j

let pp_scenario ppf sc =
  Format.fprintf ppf "%s n=%d topo_seed=%d run_seed=%d c=%d t=%d%s crashes=[%s]"
    (family_to_string sc.family) sc.n sc.topo_seed sc.run_seed sc.c sc.t
    (match sc.kind with
    | Pair_run -> ""
    | Backend_run { backend; b; f } -> Printf.sprintf " backend(%s,b=%d,f=%d)" backend b f)
    (String.concat "; " (List.map (fun (u, r) -> Printf.sprintf "%d@%d" u r) sc.schedule))
