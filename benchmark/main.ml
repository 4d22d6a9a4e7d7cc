(* The repository benchmark.  See README.md next to this file; run it
   through run.sh, which builds it and pins it to one CPU.

     main.exe --workload W --seed N --seconds S --trace 0|1
         one phase of one workload in this process; the last stdout line
         is the JSON summary of the metrics BENCHMARK.json declares
     main.exe run --seed N [--workload W] [--seconds S] [--out FILE]
         both phases of every workload, each in a fresh child process;
         appends one JSON line with every metric and the run's metadata
     main.exe compare A.jsonl B.jsonl
         per workload and metric: medians, quartiles, pair wins, verdicts
     main.exe smoke
         every workload at a small size, twice, with self-checks

   Common options: --benchmark FILE (default BENCHMARK.json), --server EXE
   (default: the ftagg binary built next to this one), --trace-dir DIR
   (write the traced phase's spans as Chrome trace_event JSON). *)

open Common

type workload = {
  w_name : string;
  timed : smoke:bool -> seed:int -> seconds:float -> exe:string -> result;
  traced : smoke:bool -> seed:int -> exe:string -> result;
}

let service kind =
  let label = Service_load.name kind in
  {
    w_name = label;
    timed =
      (fun ~smoke ~seed ~seconds ~exe ->
        with_scratch label (fun dir -> Service_load.timed ~kind ~smoke ~seed ~seconds ~exe ~dir));
    traced =
      (fun ~smoke ~seed ~exe ->
        with_scratch label (fun dir -> Service_load.traced ~kind ~smoke ~seed ~exe ~dir));
  }

let workloads =
  [
    {
      w_name = Scale_agg.name;
      timed = (fun ~smoke ~seed ~seconds ~exe:_ -> Scale_agg.timed ~smoke ~seed ~seconds);
      traced = (fun ~smoke ~seed ~exe:_ -> Scale_agg.traced ~smoke ~seed);
    };
    {
      w_name = Chaos_pairs.name;
      timed = (fun ~smoke ~seed ~seconds ~exe:_ -> Chaos_pairs.timed ~smoke ~seed ~seconds);
      traced = (fun ~smoke ~seed ~exe:_ -> Chaos_pairs.traced ~smoke ~seed);
    };
    service Service_load.Exec;
    service Service_load.Cached;
  ]

let run_phase w phase ~smoke ~seed ~seconds ~exe =
  match phase with Timed -> w.timed ~smoke ~seed ~seconds ~exe | Traced -> w.traced ~smoke ~seed ~exe

(* The summary line printed last: exactly the declared metrics of the phase.  A
   per-layer metric of a layer this workload never calls reads 0. *)
let summary decl r =
  let declared, required =
    match r.phase with Timed -> (decl.end_to_end, true) | Traced -> (decl.per_layer, false)
  in
  let problems = ref [] in
  let metrics =
    List.map
      (fun (name, unit) ->
        let value =
          match List.find_opt (fun m -> m.name = name) r.metrics with
          | Some m when m.unit <> unit ->
            problems := Printf.sprintf "%s: unit %s, declared %s" name m.unit unit :: !problems;
            m.value
          | Some m -> m.value
          | None when required ->
            problems := (name ^ ": not measured") :: !problems;
            nan
          | None -> 0.
        in
        if not (Float.is_finite value) then problems := (name ^ ": not finite") :: !problems;
        (name, Bench_io.(Obj [ ("value", Float value); ("unit", String unit) ])))
      declared
  in
  let correct = r.failed = 0 && !problems = [] in
  ( correct,
    List.rev !problems,
    Bench_io.(
      Obj
        [
          ("correct", Bool correct); ("attempted", Int r.attempted); ("failed", Int r.failed);
          ("metrics", Obj metrics);
        ]) )

(* ---- reproducibility metadata ---- *)

let first_line_of_command prog args =
  match Unix.open_process_args_in prog (Array.of_list (prog :: args)) with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let line = try Some (input_line ic) with End_of_file -> None in
    ignore (Unix.close_process_in ic);
    line

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> "unknown"
      | line -> (
        match String.index_opt line ':' with
        | Some i when String.trim (String.sub line 0 i) = "model name" ->
          String.trim (String.sub line (i + 1) (String.length line - i - 1))
        | _ -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* [nproc] counts the CPUs this process may use (one, under run.sh's
   pinning); [nproc_all] those the host has online. *)
let metadata ~seed ~seconds =
  let nproc args =
    match Option.bind (first_line_of_command "nproc" args) (fun l -> int_of_string_opt (String.trim l)) with
    | Some n -> Bench_io.Int n
    | None -> Bench_io.Null
  in
  Bench_io.
    [
      ("seed", Int seed); ("seconds", Float seconds); ("nproc", nproc []); ("nproc_all", nproc [ "--all" ]);
      ("recommended_domain_count", Int (Domain.recommended_domain_count ()));
      ("cpu", String (cpu_model ())); ("ocaml", String Sys.ocaml_version);
      ("word_size", Int Sys.word_size); ("unix_time", Float (Unix.gettimeofday ()));
    ]

(* ---- printing ---- *)

let print_result oc r =
  Printf.fprintf oc "%s, %s phase: %d attempted, %d failed, %.2f s\n" r.workload (phase_name r.phase)
    r.attempted r.failed r.wall_s;
  List.iter
    (fun m -> Printf.fprintf oc "  %-34s %14.6g %-6s (n=%d)\n" m.name m.value m.unit m.samples)
    r.metrics;
  List.iter (fun e -> Printf.fprintf oc "  FAILED: %s\n" e) r.errors;
  flush oc

(* ---- options ---- *)

let rec options = function
  | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
    (String.sub key 2 (String.length key - 2), value) :: options rest
  | [] -> []
  | arg :: _ -> failwith (Printf.sprintf "unexpected argument %S" arg)

let opt opts key ~default = Option.value (List.assoc_opt key opts) ~default

let int_opt opts key ~default =
  match List.assoc_opt key opts with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with Some i -> i | None -> failwith (Printf.sprintf "--%s: not an integer" key))

let default_server () =
  Filename.concat (Filename.dirname Sys.executable_name) (Filename.concat ".." "bin/ftagg_cli.exe")

let find_workload name =
  match List.find_opt (fun w -> w.w_name = name) workloads with
  | Some w -> w
  | None ->
    failwith
      (Printf.sprintf "unknown workload %S (one of %s)" name
         (String.concat ", " (List.map (fun w -> w.w_name) workloads)))

(* ---- one phase: `run.sh --workload W --seed N --seconds S --trace 0|1` ---- *)

let phase_main opts =
  let decl = declared_or_fail (opt opts "benchmark" ~default:"BENCHMARK.json") in
  let w = find_workload (opt opts "workload" ~default:"") in
  let seed = int_opt opts "seed" ~default:1 in
  let seconds = float_of_int (int_opt opts "seconds" ~default:decl.run_seconds) in
  let phase =
    match opt opts "trace" ~default:"0" with
    | "0" -> Timed
    | "1" -> Traced
    | t -> failwith (Printf.sprintf "--trace %s: expected 0 or 1" t)
  in
  let exe = opt opts "server" ~default:(default_server ()) in
  Printf.printf "%s\n%!" (Bench_io.to_string ~indent:false (Bench_io.Obj (metadata ~seed ~seconds)));
  let r = run_phase w phase ~smoke:false ~seed ~seconds ~exe in
  print_result stdout r;
  Option.iter
    (fun path ->
      Bench_io.write_file ~path
        (Bench_io.Obj (("meta", Bench_io.Obj (metadata ~seed ~seconds)) :: [ ("result", result_to_json r) ])))
    (List.assoc_opt "record" opts);
  Option.iter (fun dir -> write_trace ~dir r) (List.assoc_opt "trace-dir" opts);
  let correct, problems, line = summary decl r in
  List.iter (fun p -> Printf.printf "  FAILED: %s\n" p) problems;
  print_endline (Bench_io.to_string ~indent:false line);
  if correct then 0 else 1

(* ---- run: both phases of each workload, each in a child process ---- *)

let run_child args =
  let self = Sys.executable_name in
  let pid = Unix.create_process self (Array.of_list (self :: args)) Unix.stdin Unix.stderr Unix.stderr in
  Fun.protect
    ~finally:(fun () -> if not (Loader.reaped pid) then Loader.terminate pid)
    (fun () ->
      match Loader.waitpid_noeintr [] pid with
      | _, Unix.WEXITED code -> code
      | _ -> 128)

let run_main opts =
  let bench = opt opts "benchmark" ~default:"BENCHMARK.json" in
  let decl = declared_or_fail bench in
  let seed = int_opt opts "seed" ~default:1 in
  let seconds = int_opt opts "seconds" ~default:decl.run_seconds in
  let exe = opt opts "server" ~default:(default_server ()) in
  let chosen =
    match List.assoc_opt "workload" opts with Some w -> [ find_workload w ] | None -> workloads
  in
  let started = now_ns () in
  let rows =
    with_scratch "run" (fun dir ->
        List.map
          (fun w ->
            let phase trace =
              let record = Filename.concat dir (Printf.sprintf "%s-%s.json" w.w_name trace) in
              let code =
                run_child
                  ([
                     "--workload"; w.w_name; "--seed"; string_of_int seed; "--seconds"; string_of_int seconds;
                     "--trace"; trace; "--benchmark"; bench; "--server"; exe; "--record"; record;
                   ]
                  @ match List.assoc_opt "trace-dir" opts with Some d -> [ "--trace-dir"; d ] | None -> [])
              in
              match Bench_io.read_file ~path:record with
              | Ok json -> (code, Option.value ~default:Bench_io.Null (Bench_io.member "result" json))
              | Error e -> (max code 1, Bench_io.(Obj [ ("error", String e) ]))
            in
            let tcode, timed_record = phase "0" in
            let rcode, traced_record = phase "1" in
            let count key j = Option.value ~default:0 (Option.bind (Bench_io.member key j) Bench_io.to_int) in
            let attempted = count "attempted" timed_record + count "attempted" traced_record in
            let failed = count "failed" timed_record + count "failed" traced_record in
            let ok = tcode = 0 && rcode = 0 in
            ( w.w_name,
              ok,
              attempted,
              failed,
              Bench_io.(
                Obj
                  [
                    ("workload", String w.w_name); ("ok", Bool ok); ("attempted", Int attempted);
                    ("failed", Int failed);
                    ("failed_ratio", Float (float_of_int failed /. float_of_int (max 1 attempted)));
                    ("timed", timed_record); ("traced", traced_record);
                  ]) ))
          chosen)
  in
  let line =
    Bench_io.(
      Obj
        [
          ("meta", Obj (metadata ~seed ~seconds:(float_of_int seconds)));
          ("pass_wall_s", Float (seconds_since started));
          ("workloads", List (List.map (fun (_, _, _, _, j) -> j) rows));
        ])
  in
  Option.iter
    (fun path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc (Bench_io.to_string ~indent:false line);
      output_char oc '\n';
      close_out oc)
    (List.assoc_opt "out" opts);
  Printf.printf "pass: %.1f s\n" (seconds_since started);
  List.iter
    (fun (name, ok, attempted, failed, _) ->
      let status = if ok then "ok    " else "FAILED" in
      Printf.printf "%-16s %s  failed_ratio %d/%d\n" name status failed attempted)
    rows;
  if List.for_all (fun (_, ok, _, _, _) -> ok) rows then 0 else 1

(* ---- smoke: the dune runtest rule ---- *)

let smoke_main opts =
  let decl = declared_or_fail (opt opts "benchmark" ~default:"BENCHMARK.json") in
  let exe = opt opts "server" ~default:(default_server ()) in
  let started = now_ns () in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let pass () =
    List.concat_map
      (fun w ->
        List.map (fun phase -> run_phase w phase ~smoke:true ~seed:1 ~seconds:0.05 ~exe) [ Timed; Traced ])
      workloads
  in
  let first = pass () in
  let second = pass () in
  List.iter
    (fun r ->
      let correct, why, _ = summary decl r in
      if not correct then begin
        problem "%s %s phase failed" r.workload (phase_name r.phase);
        List.iter (problem "  %s") (r.errors @ why)
      end;
      List.iter
        (fun m -> if not (Float.is_finite m.value) then problem "%s: %s is not finite" r.workload m.name)
        r.metrics)
    (first @ second);
  List.iter
    (fun (name, _) ->
      let measures r = r.phase = Traced && List.exists (fun m -> m.name = name) r.metrics in
      if not (List.exists measures first) then problem "per-layer metric %s is measured by no workload" name)
    decl.per_layer;
  List.iter2
    (fun a b ->
      List.iter
        (fun m ->
          if m.unit = "count" then
            match List.find_opt (fun m' -> m'.name = m.name) b.metrics with
            | Some m' when m'.value = m.value -> ()
            | _ -> problem "%s: count %s differs between same-seed runs" a.workload m.name)
        a.metrics)
    first second;
  match List.rev !problems with
  | [] ->
    Printf.printf "benchmark smoke: %d workloads x 2 phases x 2 runs ok in %.1f s\n" (List.length workloads)
      (seconds_since started);
    0
  | ps ->
    List.iter prerr_endline ps;
    List.iter (print_result stderr) (first @ second);
    1

let () =
  install_signal_handlers ();
  let args = List.tl (Array.to_list Sys.argv) in
  let code =
    try
      match args with
      | "run" :: rest -> run_main (options rest)
      | "compare" :: a :: b :: rest ->
        Compare.main ~benchmark:(opt (options rest) "benchmark" ~default:"BENCHMARK.json") a b
      | "smoke" :: rest -> smoke_main (options rest)
      | rest -> phase_main (options rest)
    with
    | Failure msg | Sys_error msg ->
      prerr_endline ("benchmark: " ^ msg);
      2
    | Interrupted ->
      prerr_endline "benchmark: interrupted";
      130
  in
  exit code
