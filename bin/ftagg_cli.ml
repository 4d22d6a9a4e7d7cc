(* ftagg — command-line front end.

   Subcommands:
     run       run a protocol on a generated topology under an adversary
     trace     run a protocol with telemetry; export Chrome trace / JSONL
     stats     run a protocol and print its metric registry
     graph     print statistics of a generated topology
     twoparty  run the §7 two-party protocols on a random instance
     rank      certify Lemma 11's rank(M) = q−1 for a given q
     chaos     randomized chaos campaign; replay re-runs saved incidents
     serve     long-lived aggregation service (line-based JSON protocol)
     client    run service request scripts against an in-process server

   Examples:
     ftagg run -p tradeoff -t grid -n 64 -f 8 -b 60 --failures random
     ftagg trace -p tradeoff -t grid -n 256 -f 16 -o out.trace.json
     ftagg stats -p pair -t grid -n 64 --prom
     ftagg twoparty -n 4096 -q 32
     ftagg rank -q 17
     ftagg serve --checkpoint svc.ckpt.json < requests.jsonl

   Exit codes (uniform across subcommands, see README):
     0  success
     1  findings — chaos incidents found, non-reproducing replay
     2  protocol abort — pair/agg Aborted, folklore without a clean
        epoch, a service request answered with an error
     3  bad input or invalid generated output — unknown protocol or
        failure mode, unreadable incident/request file, trace that
        fails its own round-trip check
     124/125  cmdliner usage / internal errors *)

open Cmdliner
open Ftagg

let topology_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "path" -> Ok Gen.Path
    | "ring" -> Ok Gen.Ring
    | "grid" -> Ok Gen.Grid
    | "star" -> Ok Gen.Star
    | "tree" | "binary_tree" -> Ok Gen.Binary_tree
    | "complete" -> Ok Gen.Complete
    | "caterpillar" -> Ok Gen.Caterpillar
    | "lollipop" -> Ok Gen.Lollipop
    | "random" -> Ok (Gen.Random 0.05)
    | "torus" -> Ok Gen.Torus
    | "regular" | "random_regular" -> Ok (Gen.Random_regular 4)
    | other -> Error (`Msg (Printf.sprintf "unknown topology %S" other))
  in
  Arg.conv (parse, fun ppf f -> Format.pp_print_string ppf (Gen.family_name f))

let caaf_conv =
  let parse s =
    match Instances.of_name s with
    | Some c -> Ok c
    | None -> Error (`Msg (Printf.sprintf "unknown aggregate %S" (String.lowercase_ascii s)))
  in
  Arg.conv (parse, fun ppf (c : Caaf.t) -> Format.pp_print_string ppf c.Caaf.name)

(* Common options *)
let topology =
  Arg.(value & opt topology_conv Gen.Grid & info [ "t"; "topology" ] ~doc:"Topology family.")

let nodes = Arg.(value & opt int 64 & info [ "n"; "nodes" ] ~doc:"Number of nodes.")
let seed = Arg.(value & opt int 1 & info [ "s"; "seed" ] ~doc:"Random seed.")

let make_failures graph ~mode ~budget ~seed ~window =
  match Failure.generate graph ~mode ~budget ~seed ~window with
  | Some failures -> failures
  | None ->
    Printf.eprintf "ftagg: unknown failure mode %S\n" (String.lowercase_ascii mode);
    exit 3

(* The run that run/trace/stats set up: a generated topology, seeded
   inputs, [t] defaulting to 2f, and the named adversary over a
   [b]-flooding-round window. *)
let setup ?caaf ?(max_input = 50) ~topology ~n ~seed ~tol ~b ~f ~fmode ~budget () =
  let graph = Gen.build topology ~n ~seed in
  let inputs = Params.random_inputs ~rng:(Prng.create (seed + 17)) ~n ~max_input in
  let t = Option.value tol ~default:(max 1 (2 * f)) in
  let params = Params.make ~c:2 ~t ?caaf ~graph ~inputs () in
  let window = b * params.Params.d in
  (graph, params, make_failures graph ~mode:fmode ~budget ~seed:(seed + 3) ~window)

let names view = String.concat ", " (List.map fst view)

let protocol_arg =
  Arg.(
    value
    & opt string "tradeoff"
    & info [ "p"; "protocol" ] ~doc:(Printf.sprintf "One of: %s." (names Run.protocols)))

let b_arg = Arg.(value & opt int 63 & info [ "b" ] ~doc:"Time budget in flooding rounds.")
let f_arg = Arg.(value & opt int 8 & info [ "f" ] ~doc:"Edge-failure budget.")
let tolerance_arg = Arg.(value & opt (some int) None & info [ "tolerance" ] ~doc:"t for pair/agg.")

let failures_arg =
  Arg.(
    value
    & opt string "random"
    & info [ "failures" ]
        ~doc:(Printf.sprintf "Adversary: %s." (String.concat ", " Failure.modes)))

let budget_arg =
  Arg.(value & opt (some int) None & info [ "budget" ] ~doc:"Edge failures to inject (default f).")

(* The printed answer and the exit code: 2 on a protocol abort. *)
let render = function
  | Backend.Exact (Agg.Value v) -> (string_of_int v, 0)
  | Backend.Exact Agg.Aborted -> ("<aborted>", 2)
  | Backend.Estimate { value; relative_error } ->
    (Printf.sprintf "%.6g (relative error %.3g)" value relative_error, 0)

(* The one dispatch path of run/trace/stats: look [name] up in a view of
   Run's rows and run that row, with a telemetry sink when [obs] is
   given.  An unknown name, or an input the row rejects (a budget below
   Algorithm 1's minimum), prints one line and exits 3.  Returns the
   view key, the row, its outcome and {!render}'s value and exit
   code. *)
let exec_row ?obs ~what ~view ~name ~graph ~failures ~params ~b ~f ~seed () =
  match Run.find view name with
  | None ->
    Printf.eprintf "ftagg: unknown %s %S (have: %s)\n" what name (names view);
    exit 3
  | Some (key, backend) -> (
    match Backend.exec ?obs ~backend ~graph ~failures ~params ~b ~f ~seed () with
    | exception Invalid_argument reason ->
      Printf.eprintf "ftagg: %s\n" reason;
      exit 3
    | o ->
      let value, code = render o.Backend.result in
      (key, backend, o, value, code))

let print_evidence = List.iter (fun (k, v) -> Printf.printf "%-11s: %s\n" k v)

(* The executor's partition count, shared by run and stats: below 1 is
   bad input, one line and exit 3. *)
let domains_arg =
  let check d =
    if d < 1 then begin
      Printf.eprintf "ftagg: --domains must be at least 1 (got %d)\n" d;
      exit 3
    end;
    d
  in
  Term.(
    const check
    $ Arg.(
        value & opt int 1
        & info [ "domains" ] ~doc:"Executor partitions, one OCaml domain each (with --scale)."))

(* The massive-scale data path: a streamed Bigraph CSR through the
   partitioned executor (lib/scale).  Supports the streaming topology
   specs (grid, torus, regular) and the failure modes none and chain.
   Returns the process exit code. *)
let run_scale ~topology ~n ~seed ~tol ~fmode ~budget ~max_input ~domains ~mem_limit ~pin =
  match Bigraph.spec_of_family topology with
  | None ->
    Printf.eprintf "ftagg: --scale supports grid, torus and regular topologies (got %s)\n"
      (Gen.family_name topology);
    3
  | Some spec -> (
    let build0 = Unix.gettimeofday () in
    let bg = Bigraph.build spec ~n ~seed in
    let build_s = Unix.gettimeofday () -. build0 in
    (match Bigraph.validate ~spec bg with
    | Ok () -> ()
    | Error e ->
      Printf.eprintf "ftagg: generated %s graph fails validation: %s\n" (Bigraph.spec_name spec) e;
      exit 3);
    let rng = Prng.create (seed + 17) in
    let inputs = Params.random_inputs ~rng ~n ~max_input in
    let params = Scale_run.params ~t:(Option.value tol ~default:1) ~graph:bg ~inputs () in
    let duration = Agg.duration params in
    let failures =
      match String.lowercase_ascii fmode with
      | "none" -> Failure.none ~n
      | "random" ->
        (* --scale runs the none and chain schedules only; the global
           default falls back to the failure-free run rather than refuse
           a bare [ftagg run --scale]. *)
        Printf.eprintf "ftagg: --scale has no %S adversary; running failure-free\n" fmode;
        Failure.none ~n
      | "chain" -> Failure.chain ~n ~first:1 ~len:(min budget (n - 2)) ~round:(max 1 (duration / 3))
      | other ->
        Printf.eprintf "ftagg: --scale supports failure modes none and chain (got %S)\n" other;
        exit 3
    in
    let registry = Registry.create () in
    let meter =
      Scale_mem.create ~registry
        ?limit_bytes:(Option.map (fun mb -> mb * 1024 * 1024) mem_limit)
        ~n ()
    in
    let t0 = Unix.gettimeofday () in
    match Scale_run.agg ~domains ~meter ~registry ~graph:bg ~failures ~params ~seed () with
    | exception Scale_mem.Ceiling_exceeded { limit_bytes; live_bytes; round } ->
      Printf.eprintf "ftagg: memory ceiling exceeded at round %d (%d MiB live > %d MiB limit)\n"
        round
        (live_bytes / (1024 * 1024))
        (limit_bytes / (1024 * 1024));
      2
    | o ->
      let wall = Unix.gettimeofday () -. t0 in
      let failure_free = Failure.crashed_nodes failures = [] in
      let v, code = render (Backend.Exact o.Scale_run.result) in
      let gauge name = Option.value (Registry.gauge registry name) ~default:0.0 in
      Printf.printf "%-10s %s = %s\n" "AGG(scale)" params.Params.caaf.Caaf.name v;
      if failure_free then
        Printf.printf "correct    : %b (expected %d)\n"
          (o.Scale_run.result = Agg.Value (Scale_run.expected_sum params))
          (Scale_run.expected_sum params);
      Printf.printf "graph      : %s, %d nodes, %d edges, pseudo-diameter %d (built in %.2fs)\n"
        (Bigraph.spec_name spec) n (Bigraph.num_edges bg) params.Params.d build_s;
      Printf.printf "CC         : %d bits (busiest node)\n" (Metrics.cc o.Scale_run.metrics);
      Printf.printf "TC         : %d rounds (duration cap %d) in %.2fs = %.1f rounds/s\n"
        o.Scale_run.rounds duration wall
        (float_of_int o.Scale_run.rounds /. Float.max wall 1e-9);
      Printf.printf "work       : %d node visits, %d node steps\n"
        (Metrics.node_visits o.Scale_run.metrics)
        (Metrics.node_steps o.Scale_run.metrics);
      Printf.printf "layout     : %.1f ms (BFS relabel and map-back)\n"
        (gauge "scale_layout_seconds" *. 1e3);
      Printf.printf "domains    : %d (%d frontier edges)\n" domains
        (int_of_float (gauge "scale_frontier_edges"));
      Printf.printf "memory     : %.1f bytes/node live, %.1f MiB peak live, %.1f MiB peak RSS\n"
        (gauge "scale_bytes_per_node")
        (gauge "scale_peak_live_bytes" /. (1024.0 *. 1024.0))
        (gauge "scale_peak_rss_kb" /. 1024.0);
      if not pin then code
      else begin
        (* Differential pin: replay the identical run on the same graph
           through the every-node spec.  Meant for small n (the reference
           engine steps every node every round and builds list inboxes). *)
        let r = Scale_run.reference ~graph:bg ~failures ~params ~seed in
        let ok = Scale_run.agrees r o in
        Printf.printf "pin        : %s\n"
          (if ok then "OK (byte-identical to Engine.run_reference)"
           else "MISMATCH vs Engine.run_reference");
        if ok then code else 1
      end)

let run_cmd =
  let protocol = protocol_arg in
  let caaf = Arg.(value & opt caaf_conv Instances.sum & info [ "aggregate" ] ~doc:"CAAF.") in
  let max_input = Arg.(value & opt int 100 & info [ "max-input" ] ~doc:"Inputs drawn from [0, max].") in
  let backend =
    Arg.(
      value
      & opt (some string) None
      & info [ "backend" ]
          ~doc:
            (Printf.sprintf
               "Run a registered protocol backend (%s) instead of $(b,--protocol). Both flags \
                print the same outcome shape."
               (names Run.backends)))
  in
  let scale =
    Arg.(
      value & flag
      & info [ "scale" ]
          ~doc:
            "Run AGG on the massive-scale data path: a streamed CSR graph through the \
             multi-domain partitioned executor, with memory metering.  Supports \
             grid, torus and regular topologies and the none/chain failure modes; \
             $(b,--protocol), $(b,--backend) and $(b,--aggregate) are ignored (AGG over SUM).")
  in
  let mem_limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "mem-limit" ] ~docv:"MIB"
          ~doc:"Abort cleanly (exit 2) if live heap exceeds this many MiB (with --scale).")
  in
  let pin =
    Arg.(
      value & flag
      & info [ "pin" ]
          ~doc:
            "After the scale run, replay it on the same graph through the reference engine \
             (Engine.run_reference, which steps every node every round) and compare results, \
             rounds, CC, total bits and every node's bits and messages; exit 1 on mismatch.  \
             Small n only — the reference engine builds list inboxes for every node every \
             round.")
  in
  let run protocol topology n seed caaf b f tol fmode budget max_input backend_opt scale domains
      mem_limit pin =
    if scale then
      run_scale ~topology ~n ~seed ~tol ~fmode ~budget:(Option.value budget ~default:f)
        ~max_input ~domains ~mem_limit ~pin
    else begin
    let graph, params, failures =
      setup ~caaf ~max_input ~topology ~n ~seed ~tol ~b ~f ~fmode
        ~budget:(Option.value budget ~default:f) ()
    in
    let what, view, name =
      match backend_opt with
      | Some bname -> ("backend", Run.backends, bname)
      | None -> ("protocol", Run.protocols, protocol)
    in
    let label, backend, o, value, code =
      exec_row ~what ~view ~name ~graph ~failures ~params ~b ~f ~seed ()
    in
    let c = o.Backend.common in
    Printf.printf "%-10s %s = %s\n" label params.Params.caaf.Caaf.name value;
    Printf.printf "correct    : %b\n" c.Backend.correct;
    Printf.printf "CC         : %d bits (busiest node)\n" (Metrics.cc c.Backend.metrics);
    Printf.printf "TC         : %d rounds = %d flooding rounds (d = %d)\n" c.Backend.rounds
      c.Backend.flooding_rounds params.Params.d;
    Printf.printf "edge fails : %d injected\n" (Failure.edge_failures graph failures);
    Printf.printf "guarantee  : %s\n" (Backend.guarantee backend);
    print_evidence o.Backend.evidence;
    code
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a protocol on a generated topology under an adversary.")
    Term.(
      const run $ protocol $ topology $ nodes $ seed $ caaf $ b_arg $ f_arg $ tolerance_arg
      $ failures_arg $ budget_arg $ max_input $ backend $ scale $ domains_arg $ mem_limit $ pin)

let graph_cmd =
  let run topology n seed =
    let g = Gen.build topology ~n ~seed in
    Printf.printf "topology : %s\n" (Gen.family_name topology);
    Printf.printf "nodes    : %d\n" (Graph.n g);
    Printf.printf "edges    : %d\n" (Graph.num_edges g);
    Printf.printf "diameter : %s\n"
      (match Path.diameter g with Some d -> string_of_int d | None -> "disconnected");
    Printf.printf "root deg : %d\n" (Graph.degree g Graph.root);
    0
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Print statistics of a generated topology.")
    Term.(const run $ topology $ nodes $ seed)

let twoparty_cmd =
  let n = Arg.(value & opt int 4096 & info [ "n" ] ~doc:"String length.") in
  let q = Arg.(value & opt int 32 & info [ "q" ] ~doc:"Alphabet size (>= 2).") in
  let run n q seed =
    let rng = Prng.create seed in
    let inst = Cycle_promise.random ~rng ~n ~q () in
    let u = Unionsize.solve inst in
    Printf.printf "UNIONSIZECP(n=%d, q=%d)\n" n q;
    Printf.printf "answer     : %d (ground truth %d)\n" u.Unionsize.answer
      (Cycle_promise.union_size inst);
    Printf.printf "bits       : %d (Alice %d, Bob %d)\n" u.Unionsize.total_bits
      u.Unionsize.alice_bits u.Unionsize.bob_bits;
    Printf.printf "upper bound: %.0f    lower bound: %.0f\n"
      (Bounds.unionsize_upper ~n ~q) (Bounds.unionsize_lower ~n ~q);
    let e = Equality.solve inst in
    Printf.printf "EQUALITYCP : %b (ground truth %b), %d bits (%d oracle + %d overhead)\n"
      e.Equality.equal (Cycle_promise.equal inst) e.Equality.total_bits
      e.Equality.oracle_bits e.Equality.overhead_bits;
    0
  in
  Cmd.v
    (Cmd.info "twoparty" ~doc:"Run the §7 two-party protocols on a random instance.")
    Term.(const run $ n $ q $ seed)

let worstcase_cmd =
  let f = Arg.(value & opt int 8 & info [ "f" ] ~doc:"Edge-failure budget per cell.") in
  let b = Arg.(value & opt int 63 & info [ "b" ] ~doc:"Time budget in flooding rounds.") in
  let run n f b seed =
    let land_ = Worstcase.sweep_tradeoff ~n ~f ~b ~seed () in
    let table =
      Table.create
        ~title:(Printf.sprintf "Algorithm 1 across topology x adversary (N=%d, f=%d, b=%d)" n f b)
        [
          ("topology", Table.Left);
          ("adversary", Table.Left);
          ("CC", Table.Right);
          ("TC (fl)", Table.Right);
          ("correct", Table.Right);
        ]
    in
    List.iter
      (fun c ->
        Table.add_row table
          [
            c.Worstcase.family;
            c.Worstcase.adversary;
            string_of_int c.Worstcase.cc;
            string_of_int c.Worstcase.flooding_rounds;
            string_of_bool c.Worstcase.correct;
          ])
      land_.Worstcase.cells;
    Table.print table;
    Printf.printf "worst cell: %s x %s -> %d bits
" land_.Worstcase.worst.Worstcase.family
      land_.Worstcase.worst.Worstcase.adversary land_.Worstcase.worst.Worstcase.cc;
    0
  in
  Cmd.v
    (Cmd.info "worstcase" ~doc:"Sweep the FT0 landscape for Algorithm 1.")
    Term.(const run $ nodes $ f $ b $ seed)

let dot_cmd =
  let run topology n seed =
    print_string (Graph.to_dot ~name:(Gen.family_name topology) (Gen.build topology ~n ~seed));
    0
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit a generated topology as Graphviz DOT on stdout.")
    Term.(const run $ topology $ nodes $ seed)

let trace_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write a Chrome trace_event JSON (load it in Perfetto or chrome://tracing).")
  in
  let jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE" ~doc:"Write the JSONL event stream.")
  in
  let limit = Arg.(value & opt int 12 & info [ "limit" ] ~doc:"Broadcast events to echo.") in
  let run protocol topology n seed b f tol fmode budget out jsonl limit =
    let graph, params, failures =
      setup ~topology ~n ~seed ~tol ~b ~f ~fmode ~budget:(Option.value budget ~default:f) ()
    in
    let obs = Obs.create ~name:(Printf.sprintf "%s-%s-n%d" protocol (Gen.family_name topology) n) () in
    let _, _, o, value, code =
      exec_row ~obs ~what:"protocol" ~view:Run.protocols ~name:protocol ~graph ~failures ~params
        ~b ~f ~seed ()
    in
    let common = o.Backend.common in
    Printf.printf "%s on %s (N=%d, seed %d): %s = %s, correct %b\n" protocol
      (Gen.family_name topology) n seed params.Params.caaf.Caaf.name value common.Run.correct;
    Printf.printf "CC %d bits, TC %d rounds = %d flooding rounds\n"
      (Metrics.cc common.Run.metrics) common.Run.rounds common.Run.flooding_rounds;
    (* Echo the head of the broadcast stream. *)
    let events = Obs.events obs in
    let shown = ref 0 in
    List.iter
      (fun (e : Obs.event) ->
        if e.Obs.ev_kind = "broadcast" && !shown < limit then begin
          incr shown;
          let fld k =
            match List.assoc_opt k e.Obs.ev_fields with
            | Some (Bench_io.String v) -> v
            | Some (Bench_io.Int v) -> string_of_int v
            | _ -> "?"
          in
          Printf.printf "  r%04d n%03d  %-24s %4s bits\n" e.Obs.ev_round e.Obs.ev_node
            (fld "phase") (fld "bits")
        end)
      events;
    let broadcasts = List.length (List.filter (fun e -> e.Obs.ev_kind = "broadcast") events) in
    if broadcasts > limit then Printf.printf "  ... (%d more broadcasts)\n" (broadcasts - limit);
    (* Per-phase bit breakdown; the "(none)" bucket keeps the column sum
       equal to Metrics.total_bits. *)
    let total = Metrics.total_bits common.Run.metrics in
    let table =
      Table.create ~title:"bits by protocol phase"
        [ ("phase", Table.Left); ("broadcasts", Table.Right); ("bits", Table.Right);
          ("share", Table.Right) ]
    in
    List.iter
      (fun (phase, bits) ->
        let bc =
          Registry.counter (Obs.registry obs) ~labels:[ ("phase", phase) ] "ftagg_broadcasts_total"
        in
        Table.add_row table
          [ phase; string_of_int bc; string_of_int bits;
            Printf.sprintf "%.1f%%" (100.0 *. float_of_int bits /. float_of_int (max 1 total)) ])
      (Obs.phase_bits obs);
    Table.add_rule table;
    Table.add_row table [ "total"; string_of_int broadcasts; string_of_int total; "100.0%" ];
    Table.print table;
    (match jsonl with
    | Some path ->
      Export.write_jsonl ~path obs;
      Printf.printf "jsonl : %s (%d events)\n" path (List.length events)
    | None -> ());
    match out with
    | None -> code
    | Some path -> (
      Export.write_chrome_trace ~path obs;
      (* Self-check: the written trace must round-trip through the
         Bench_io reader (CI gates on this exit code). *)
      match Bench_io.read_file ~path with
      | Error e ->
        Printf.eprintf "trace: %s does not parse: %s\n" path e;
        3
      | Ok json ->
        let trace_events =
          match Bench_io.member "traceEvents" json with
          | Some l -> Option.value (Bench_io.to_list l) ~default:[]
          | None -> []
        in
        let span_names =
          List.filter_map
            (fun ev ->
              match (Bench_io.member "ph" ev, Bench_io.member "name" ev) with
              | Some (Bench_io.String "X"), Some (Bench_io.String name) -> Some name
              | _ -> None)
            trace_events
        in
        let spans = List.length span_names in
        let phases = List.length (List.sort_uniq compare span_names) in
        Printf.printf "trace : %s (%d span events, %d distinct phases; parses OK)\n" path spans
          phases;
        if spans = 0 then begin
          Printf.eprintf "trace: no spans recorded (is telemetry disabled?)\n";
          3
        end
        else code)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a protocol with telemetry attached: per-phase bit breakdown on stdout, optional \
          Chrome trace_event JSON and JSONL exports.")
    Term.(
      const run $ protocol_arg $ topology $ nodes $ seed $ b_arg $ f_arg $ tolerance_arg
      $ failures_arg $ budget_arg $ out $ jsonl $ limit)

let stats_cmd =
  let prom =
    Arg.(value & flag & info [ "prom" ] ~doc:"Print a Prometheus-style text dump instead.")
  in
  let scale =
    Arg.(
      value & flag
      & info [ "scale" ]
          ~doc:
            "Run AGG through the massive-scale executor instead and print its registry: the \
             scale_* series (rounds, domains, frontier edges, live bytes, bytes/node, minor \
             words/round, peak RSS).  Grid/torus/regular topologies, no failures; \
             $(b,--protocol) is ignored.")
  in
  let run protocol topology n seed b f tol fmode prom scale domains =
    let protocol, value, code, cc, rounds, registry =
      if scale then begin
        match Bigraph.spec_of_family topology with
        | None ->
          Printf.eprintf "ftagg: --scale supports grid, torus and regular topologies (got %s)\n"
            (Gen.family_name topology);
          exit 3
        | Some spec ->
          let bg = Bigraph.build spec ~n ~seed in
          let rng = Prng.create (seed + 17) in
          let inputs = Params.random_inputs ~rng ~n ~max_input:50 in
          let params = Scale_run.params ~t:(Option.value tol ~default:1) ~graph:bg ~inputs () in
          let registry = Registry.create () in
          let meter = Scale_mem.create ~registry ~n () in
          let o =
            Scale_run.agg ~domains ~meter ~registry ~graph:bg ~failures:(Failure.none ~n) ~params
              ~seed ()
          in
          let value, code = render (Backend.Exact o.Scale_run.result) in
          ("agg(scale)", value, code, Metrics.cc o.Scale_run.metrics, o.Scale_run.rounds, registry)
      end
      else begin
        let graph, params, failures = setup ~topology ~n ~seed ~tol ~b ~f ~fmode ~budget:f () in
        let obs = Obs.create ~name:protocol () in
        let _, _, o, value, code =
          exec_row ~obs ~what:"protocol" ~view:Run.protocols ~name:protocol ~graph ~failures
            ~params ~b ~f ~seed ()
        in
        let common = o.Backend.common in
        ( protocol, value, code, Metrics.cc common.Run.metrics, common.Run.rounds,
          Obs.registry obs )
      end
    in
    if prom then print_string (Export.prometheus registry)
    else begin
      let render_labels = function
        | [] -> ""
        | labels ->
          String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels)
      in
      let table =
        Table.create
          ~title:(Printf.sprintf "%s (N=%d): result = %s" protocol n value)
          [ ("metric", Table.Left); ("labels", Table.Left); ("value", Table.Right) ]
      in
      List.iter
        (fun (name, labels, v) ->
          let rendered =
            match (v : Registry.value) with
            | Registry.Counter c -> string_of_int c
            | Registry.Gauge g -> Table.fmt_float g
            | Registry.Histogram h ->
              Printf.sprintf "n=%d avg=%s max=%s" h.Registry.h_count
                (Table.fmt_float (h.Registry.h_sum /. float_of_int (max 1 h.Registry.h_count)))
                (Table.fmt_float h.Registry.h_max)
          in
          Table.add_row table [ name; render_labels labels; rendered ])
        (Registry.series registry);
      Table.add_rule table;
      Table.add_row table [ "(run) cc_bits"; ""; string_of_int cc ];
      Table.add_row table [ "(run) rounds"; ""; string_of_int rounds ];
      Table.add_row table
        [ "(run) peak_rss_kb"; "";
          (match Scale_mem.peak_rss_kb () with Some kb -> string_of_int kb | None -> "n/a") ];
      Table.print table
    end;
    code
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a protocol with telemetry attached and print the metric registry (add --scale for \
          the massive-scale executor's scale_* series).")
    Term.(
      const run $ protocol_arg $ topology $ nodes $ seed $ b_arg $ f_arg $ tolerance_arg
      $ failures_arg $ prom $ scale $ domains_arg)

let rank_cmd =
  let q = Arg.(value & opt int 7 & info [ "q" ] ~doc:"Alphabet size (>= 2).") in
  let run q =
    let rank = Sperner.lemma11_rank q in
    Printf.printf "rank(M_%d) = %d = q - 1 (certified over ℚ)\n" q rank;
    Printf.printf "⇒ R₀^pri(EQUALITYCP_{n,%d}) ≥ n·log₂(q/(q−1)) = %.4f·n bits\n" q
      (Sperner.equality_lower_bound ~n:1 ~q);
    0
  in
  Cmd.v (Cmd.info "rank" ~doc:"Certify Lemma 11's rank computation.") Term.(const run $ q)

let chaos_cmd =
  let trials = Arg.(value & opt int 100 & info [ "trials" ] ~doc:"Number of randomized trials.") in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Write incident JSON files into this directory.")
  in
  let bit_cap =
    Arg.(
      value
      & opt (some int) None
      & info [ "bit-cap" ]
          ~doc:
            "Override the watchdog's per-node bit cap. Lowering it below the theorems' combined \
             budget plants a violation — useful to exercise the shrink/report/replay pipeline.")
  in
  let max_n = Arg.(value & opt int 34 & info [ "max-n" ] ~doc:"Largest system size drawn.") in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress progress output.") in
  let backend =
    Arg.(
      value
      & opt string "agg"
      & info [ "backend" ]
          ~doc:
            (Printf.sprintf
               "Protocol backend the trials run (%s). Every random draw is \
                backend-independent, so equal seeds subject every backend to the same \
                adversary schedules."
               (names Run.backends)))
  in
  let run trials seed out bit_cap max_n quiet backend =
    if Run.backend_of_string backend = None then begin
      Printf.eprintf "ftagg: unknown backend %S (have: %s)\n" backend (names Run.backends);
      exit 3
    end;
    (match out with
    | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
    | _ -> ());
    (* With an output directory, the campaign also gets a telemetry sink:
       trial/violation/shrink-progress events land in
       DIR/campaign.telemetry.jsonl and the counters in DIR/campaign.prom. *)
    let obs = Option.map (fun _ -> Obs.create ~name:"chaos-campaign" ()) out in
    let config =
      {
        Campaign.trials;
        seed;
        out_dir = out;
        bit_cap;
        max_n;
        log = (if quiet then ignore else print_endline);
        obs;
        via = None;
        backend;
      }
    in
    let o = Campaign.run config in
    (match (obs, out) with
    | Some obs, Some dir ->
      Export.write_jsonl ~path:(Filename.concat dir "campaign.telemetry.jsonl") obs;
      let oc = open_out (Filename.concat dir "campaign.prom") in
      output_string oc (Export.prometheus (Obs.registry obs));
      close_out oc
    | _ -> ());
    Printf.printf "chaos: %d trials, %d violating, %d distinct invariant(s)\n" o.Campaign.o_trials
      o.Campaign.o_violating_trials
      (List.length o.Campaign.o_incidents);
    List.iter
      (fun ((inc : Incident.t), path) ->
        Printf.printf "  %s at round %d (found by %s, shrunk in %d tries)\n"
          inc.Incident.violation.Engine.invariant inc.Incident.violation.Engine.at_round
          inc.Incident.adversary
          (match inc.Incident.shrink with Some s -> s.Incident.s_tries | None -> 0);
        Format.printf "    scenario: %a\n" Incident.pp_scenario inc.Incident.scenario;
        match path with Some p -> Printf.printf "    saved: %s\n" p | None -> ())
      o.Campaign.o_incidents;
    if o.Campaign.o_incidents = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run a randomized chaos campaign: adversaries + watchdogs + auto-shrinking.")
    Term.(const run $ trials $ seed $ out $ bit_cap $ max_n $ quiet $ backend)

let replay_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"INCIDENT.json" ~doc:"Incident report.")
  in
  let run file =
    match Incident.load ~path:file with
    | Error e ->
      Printf.eprintf "replay: %s\n" e;
      3
    | Ok inc ->
      Printf.printf "incident: %s (found by %s)\n" inc.Incident.violation.Engine.invariant
        inc.Incident.adversary;
      Format.printf "scenario: %a\n%!" Incident.pp_scenario inc.Incident.scenario;
      (* An incident the library rejects (a size, schedule, budget or
         backend it cannot run) is bad input: one line, exit 3. *)
      (match Campaign.replay inc with
      | exception Invalid_argument reason ->
        Printf.eprintf "replay: %s: %s\n" file reason;
        3
      | Some v ->
        Printf.printf "verdict: VIOLATION REPRODUCED — %s at round %d: %s\n" v.Engine.invariant
          v.Engine.at_round v.Engine.detail;
        0
      | None ->
        Printf.printf "verdict: no violation — the incident no longer reproduces\n";
        1)
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Re-run a saved chaos incident and print the watchdog verdict.")
    Term.(const run $ file)

(* ---- churn scenario matrix (lib/churn) ---- *)

let scenarios_cmd =
  let topology = Arg.(value & opt topology_conv Gen.Grid & info [ "t"; "topology" ] ~doc:"Base topology family.") in
  let n = Arg.(value & opt int 36 & info [ "n" ] ~doc:"Base topology size (generation 0).") in
  let backends =
    Arg.(
      value
      & opt (list string) [ "agg"; "flowupdating" ]
      & info [ "backends" ] ~docv:"B1,B2,.."
          ~doc:(Printf.sprintf "Protocol backends to matrix (%s)." (names Run.backends)))
  in
  let schedules =
    Arg.(
      value
      & opt (list string) []
      & info [ "schedules" ] ~docv:"S1,S2,.."
          ~doc:
            "Churn schedules to matrix (clear-skies, steady-churn, burst-failure, adversarial); \
             all four when omitted.")
  in
  let generations =
    Arg.(value & opt int 5 & info [ "generations" ] ~doc:"Topology generations per schedule.")
  in
  let runs =
    Arg.(value & opt int 3 & info [ "runs" ] ~doc:"Runs per generation (per schedule, per backend).")
  in
  let budget =
    Arg.(value & opt int 4 & info [ "budget" ] ~doc:"Per-run crash budget handed to the schedule.")
  in
  let b = Arg.(value & opt int 40 & info [ "b" ] ~doc:"TC budget in flooding rounds.") in
  let f = Arg.(value & opt int 4 & info [ "f" ] ~doc:"Failure budget the protocols are told.") in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the matrix as a JSON array on stdout.") in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR"
          ~doc:"Save every watchdog violation as a replayable incident JSON in this directory.")
  in
  let run topology n backends schedules generations runs budget b f seed json out =
    let bad fmt = Printf.ksprintf (fun m -> Printf.eprintf "ftagg: %s\n" m; exit 3) fmt in
    List.iter
      (fun name -> if Run.backend_of_string name = None then
          bad "unknown backend %S (have: %s)" name (names Run.backends))
      backends;
    let schedules =
      match schedules with
      | [] -> Schedule.all
      | names ->
        List.map
          (fun name ->
            match Schedule.of_name name with
            | Some s -> s
            | None ->
              bad "unknown schedule %S (have: %s)" name
                (String.concat ", " (List.map Schedule.name Schedule.all)))
          names
    in
    if generations <= 0 || runs <= 0 then bad "generations and runs must be positive";
    (match out with
    | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
    | _ -> ());
    let saved = ref 0 in
    let on_violation (inc : Incident.t) =
      match out with
      | None -> ()
      | Some dir ->
        incr saved;
        Incident.save ~path:(Filename.concat dir (Printf.sprintf "scenario-%03d.json" !saved)) inc
    in
    let spec =
      {
        Scenario.default with
        Scenario.family = topology;
        n;
        backends;
        schedules;
        generations;
        runs_per_generation = runs;
        budget;
        b;
        f;
        seed;
      }
    in
    let reports = Scenario.run ~on_violation spec in
    if json then
      print_endline
        (Bench_io.to_string ~indent:true
           (Bench_io.List (List.map Scenario.report_to_json reports)))
    else begin
      Table.print (Scenario.table reports);
      let violations = List.fold_left (fun a r -> a + r.Scenario.r_violations) 0 reports in
      if violations > 0 then
        Printf.printf "%d watchdog violation(s)%s\n" violations
          (match out with Some dir -> Printf.sprintf " — incidents saved under %s" dir | None -> "")
    end;
    0
  in
  Cmd.v
    (Cmd.info "scenarios"
       ~doc:
         "Run the churn/elasticity scenario matrix: schedules x backends with percentile \
          completion reporting. Deterministic from --seed: equal seeds evolve identical \
          memberships and crash schedules.")
    Term.(
      const run $ topology $ n $ backends $ schedules $ generations $ runs $ budget $ b $ f $ seed
      $ json $ out)

(* ---- the aggregation service (lib/service) ---- *)

let service_settings_term =
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Checkpoint file: loaded on start when it exists, rewritten every \
             --checkpoint-every completions and once on exit.")
  in
  let queue =
    Arg.(value & opt (some int) None & info [ "queue" ] ~doc:"Admission queue capacity.")
  in
  let cache =
    Arg.(value & opt (some int) None & info [ "cache" ] ~doc:"Result-cache capacity (0 disables).")
  in
  let every =
    Arg.(
      value
      & opt (some int) None
      & info [ "checkpoint-every" ] ~doc:"Completions between auto-checkpoints (0 = off).")
  in
  let batch =
    Arg.(value & opt (some int) None & info [ "tick-batch" ] ~doc:"Jobs dispatched per tick.")
  in
  let domains =
    Arg.(
      value & opt (some int) None & info [ "domains" ] ~doc:"Domains running one tick's batch.")
  in
  let b =
    Arg.(
      value & opt (some int) None & info [ "b" ] ~doc:"Default time budget for jobs that omit b.")
  in
  let f =
    Arg.(
      value
      & opt (some int) None
      & info [ "f" ] ~doc:"Default edge-failure budget for jobs that omit f.")
  in
  let build checkpoint queue cache every batch domains b f =
    let d = Service.Reconfig.default in
    let pick field o = Option.value o ~default:field in
    let settings =
      {
        Service.Reconfig.default_b = pick d.Service.Reconfig.default_b b;
        default_f = pick d.Service.Reconfig.default_f f;
        queue_capacity = pick d.Service.Reconfig.queue_capacity queue;
        cache_capacity = pick d.Service.Reconfig.cache_capacity cache;
        checkpoint_every = pick d.Service.Reconfig.checkpoint_every every;
        tick_batch = pick d.Service.Reconfig.tick_batch batch;
        domains = pick d.Service.Reconfig.domains domains;
      }
    in
    (settings, checkpoint)
  in
  Term.(const build $ checkpoint $ queue $ cache $ every $ batch $ domains $ b $ f)

let export_telemetry ~prom ~jsonl t =
  let obs = Service.Server.obs t in
  (match prom with
  | Some path ->
    let oc = open_out path in
    output_string oc (Export.prometheus (Obs.registry obs));
    close_out oc
  | None -> ());
  match jsonl with
  | Some path ->
    Service.Scheduler.export_completions (Service.Server.scheduler t);
    Export.write_jsonl ~path obs
  | None -> ()

let serve_cmd =
  let prom =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE" ~doc:"Write the service registry as Prometheus text on exit.")
  in
  let jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE" ~doc:"Write the service event stream as JSONL on exit.")
  in
  let listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Serve many concurrent clients on a socket ($(b,unix:PATH) or $(b,tcp:HOST:PORT)) \
             instead of stdin/stdout.  SIGTERM drains gracefully: pending responses are \
             flushed, the backlog runs to completion and the final checkpoint is written.")
  in
  let auth_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "auth-file" ] ~docv:"FILE"
          ~doc:
            "JSON object mapping bearer token to tenant name.  With it, every connection must \
             open with {\"op\":\"hello\",\"token\":...} (refused otherwise) and the resolved \
             tenant is stamped onto every submit.  Socket mode only.")
  in
  let store =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Shared on-disk outcome store: a directory of append-only CRC-checked segments \
             sitting behind the in-memory cache.  Several servers may point at the same \
             directory — each appends its fresh executions and reads the others', so a fleet \
             shares one warm cache across processes and restarts.")
  in
  let idle_timeout =
    Arg.(
      value
      & opt float 300.
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Close connections silent for this long (0 disables).  Socket mode only.")
  in
  let max_line =
    Arg.(
      value
      & opt int 65536
      & info [ "max-line" ] ~docv:"BYTES"
          ~doc:
            "Longest accepted request line; longer lines are discarded and answered with a \
             structured line_too_long error.  Socket mode only.")
  in
  let max_conns =
    Arg.(
      value
      & opt int 64
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Concurrent-connection limit; excess connections get server_busy and are closed.")
  in
  let ctl =
    Arg.(
      value
      & opt (some string) None
      & info [ "ctl" ] ~docv:"PATH"
          ~doc:
            "Unix control-socket path for zero-downtime handoff (default: $(i,LISTEN).ctl for a \
             unix listener; none for TCP unless given).  A successor started with \
             $(b,--takeover) on this path takes over the live listener without dropping \
             requests.  SIGUSR2 arms the same drain without exiting.")
  in
  let takeover =
    Arg.(
      value
      & opt (some string) None
      & info [ "takeover" ] ~docv:"CTL"
          ~doc:
            "Start as a handoff successor: request takeover on the incumbent's control socket, \
             adopt its listening socket (or rebind its address), resume from its checkpoint, \
             then serve.  --listen is not needed; the address comes from the incumbent.")
  in
  let takeover_mode =
    Arg.(
      value
      & opt (enum [ ("fd", Transport.Handoff.Fd_pass); ("rebind", Transport.Handoff.Rebind) ])
          Transport.Handoff.Fd_pass
      & info [ "takeover-mode" ] ~docv:"fd|rebind"
          ~doc:
            "How the listener moves: $(b,fd) passes the live descriptor over SCM_RIGHTS \
             (connects made during the handoff queue in the kernel, nothing is dropped); \
             $(b,rebind) has the incumbent release the address first — the TCP-friendly \
             fallback, clients ride the gap on retry.")
  in
  let run (settings, checkpoint_path) prom jsonl listen auth_file store_dir idle_timeout max_line
      max_conns ctl takeover takeover_mode =
    let fail msg =
      Printf.eprintf "serve: %s\n" msg;
      exit 3
    in
    let load_auth () =
      match auth_file with
      | None -> Transport.Session.Open
      | Some path -> (
        match Transport.Auth.load ~path with
        | Error e -> fail e
        | Ok table -> Transport.Session.Tokens table)
    in
    let auth_banner = function
      | Transport.Session.Open -> "open, hello optional"
      | Transport.Session.Tokens table ->
        Printf.sprintf "%d token(s), %d tenant(s)" (Transport.Auth.size table)
          (List.length (Transport.Auth.tenants table))
    in
    let mk_server checkpoint_path =
      let config = { Service.Server.settings; checkpoint_path; store_dir; name = "ftagg-serve" } in
      let t = Service.Server.create config in
      (match Service.Server.store_error t with
      | Some e -> Printf.eprintf "serve: WARNING: %s; running without the shared store\n%!" e
      | None -> ());
      t
    in
    let serve_listener t ?adopted_fd lcfg =
      match Transport.Listener.create ?adopted_fd lcfg t with
      | Error e -> Error e
      | Ok listener ->
        Ok
          (fun () ->
            let code = Transport.Listener.run listener in
            export_telemetry ~prom ~jsonl t;
            code)
    in
    match takeover with
    | Some ctl_path -> (
      (* Successor: the incumbent tells us the address and checkpoint;
         our own flags still control auth, limits and telemetry. *)
      match Transport.Handoff.Takeover.run ~mode:takeover_mode ~ctl:ctl_path () with
      | Error e -> fail (Printf.sprintf "--takeover %s: %s" ctl_path e)
      | Ok (tk, outcome) -> (
        let abort_with msg =
          Transport.Handoff.Takeover.abort tk;
          fail msg
        in
        match Transport.Listener.address_of_string outcome.Transport.Handoff.Takeover.address with
        | Error e ->
          abort_with (Printf.sprintf "incumbent address %S: %s" outcome.Transport.Handoff.Takeover.address e)
        | Ok address -> (
          let checkpoint_path =
            match checkpoint_path with
            | Some _ -> checkpoint_path
            | None -> outcome.Transport.Handoff.Takeover.checkpoint_path
          in
          let t = mk_server checkpoint_path in
          (match Service.Server.restore_error t with
          | Some e ->
            (* Adopting the traffic while silently dropping the state the
               incumbent just checkpointed would be a lie; bail and let
               the incumbent resume. *)
            abort_with (Printf.sprintf "refusing takeover: %s" e)
          | None -> ());
          let auth = load_auth () in
          let lcfg =
            Transport.Listener.config ~auth ~max_line ~idle_timeout ~max_conns
              ~ctl:(Option.value ctl ~default:ctl_path) address
          in
          match serve_listener t ?adopted_fd:outcome.Transport.Handoff.Takeover.fd lcfg with
          | Error e -> abort_with e
          | Ok go ->
            Transport.Handoff.Takeover.confirm tk;
            Printf.eprintf "serve: took over %s (%s mode, %d job(s) restored, %s)\n%!"
              (Transport.Listener.address_to_string address)
              (Transport.Handoff.mode_to_string takeover_mode)
              (Service.Server.restored_backlog t) (auth_banner auth);
            go ())))
    | None -> (
      let t = mk_server checkpoint_path in
      (match Service.Server.restore_error t with
      | Some e -> Printf.eprintf "serve: WARNING: %s; starting empty\n%!" e
      | None -> ());
      let restored = Service.Server.restored_backlog t in
      if restored > 0 then
        Printf.eprintf "serve: restored %d pending job(s) from checkpoint\n%!" restored;
      match listen with
      | None ->
        let code = Service.Server.serve t stdin stdout in
        export_telemetry ~prom ~jsonl t;
        code
      | Some addr -> (
        match Transport.Listener.address_of_string addr with
        | Error e -> fail (Printf.sprintf "--listen %s: %s" addr e)
        | Ok address -> (
          let auth = load_auth () in
          let lcfg =
            Transport.Listener.config ~auth ~max_line ~idle_timeout ~max_conns ?ctl address
          in
          match serve_listener t lcfg with
          | Error e -> fail e
          | Ok go ->
            Printf.eprintf "serve: listening on %s (%s%s)\n%!"
              (Transport.Listener.address_to_string address)
              (auth_banner auth)
              (match Transport.Listener.(lcfg.ctl) with
              | Some c -> Printf.sprintf ", handoff ctl %s" c
              | None -> "");
            go ())))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-lived aggregation service: one JSON request per line, one response per \
          line (ops: submit, tick, drain, get, cancel, status, reconfig, checkpoint, metrics, \
          shutdown).  Default transport is stdin/stdout; --listen serves many concurrent \
          clients over a Unix or TCP socket with per-connection tenants; --takeover replaces a \
          running server with zero downtime (drain, checkpoint, fd pass, resume).")
    Term.(
      const run $ service_settings_term $ prom $ jsonl $ listen $ auth_file $ store $ idle_timeout
      $ max_line $ max_conns $ ctl $ takeover $ takeover_mode)

let client_cmd =
  let files =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"REQUESTS.jsonl"
          ~doc:"Request scripts, one JSON request per line; read in order.")
  in
  let no_drain =
    Arg.(
      value & flag & info [ "no-drain" ] ~doc:"Do not drain the backlog after the last script.")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Drive a running $(b,ftagg serve --listen) server at $(b,unix:PATH) or \
             $(b,tcp:HOST:PORT) instead of an in-process one.")
  in
  let fleet =
    Arg.(
      value
      & opt (some string) None
      & info [ "fleet" ] ~docv:"EP1,EP2,..."
          ~doc:
            "Fan the workload over a comma-separated fleet of $(b,serve --listen) endpoints: \
             each submit is routed by its content digest on a consistent-hash ring (every \
             client computes the same placement), endpoints that die mid-run are failed over \
             to their ring successors, and a fleet of servers sharing a $(b,--store) directory \
             reuses each other's executions.  Submit lines from the scripts become the \
             workload (other ops are skipped); prints each completion in input order, then one \
             merged report line.  Mutually exclusive with $(b,--connect).")
  in
  let token =
    Arg.(
      value
      & opt (some string) None
      & info [ "token" ] ~docv:"TOKEN"
          ~doc:"Bearer token for the hello handshake (servers started with --auth-file).")
  in
  let tenant =
    Arg.(
      value
      & opt (some string) None
      & info [ "tenant" ] ~docv:"NAME"
          ~doc:"Tenant to bind via hello on an open (no-auth) server.")
  in
  let retries =
    Arg.(
      value
      & opt int 5
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Attempts per request over --connect (including the first).  Lost connections and \
             handoff goodbyes reconnect, re-run the handshake and resubmit — idempotent because \
             job identity is the content digest.  1 disables retry.")
  in
  let retry_backoff =
    Arg.(
      value
      & opt int 50
      & info [ "retry-backoff" ] ~docv:"MS"
          ~doc:
            "Base backoff before the first retry; doubles per attempt (capped at 40x) with \
             deterministic jitter in [0.5d, d).")
  in
  let retry_seed =
    Arg.(
      value
      & opt int 1
      & info [ "retry-seed" ] ~docv:"SEED"
          ~doc:"Jitter PRNG seed — fixes the whole backoff schedule, for reproducible runs.")
  in
  let run (settings, checkpoint_path) files no_drain connect fleet token tenant retries
      retry_backoff retry_seed =
    (* The same protocol either way: exit 2 if any response carries
       ok:false (the service refused or failed a request) or the retry
       budget for a request is exhausted; 3 on an unreadable script or a
       bad address.  Without --connect the server is in-process, driven
       through [handle] — scripting and CI without process plumbing. *)
    let fail msg =
      Printf.eprintf "client: %s\n" msg;
      exit 3
    in
    let read_script path =
      match In_channel.with_open_text path In_channel.input_all with
      | exception Sys_error e -> fail e
      | contents -> String.split_on_char '\n' contents
    in
    let mk_retry () =
      Transport.Client.retry ~attempts:retries ~backoff_ms:retry_backoff
        ~max_backoff_ms:(retry_backoff * 40) ~seed:retry_seed ()
    in
    match fleet with
    | Some endpoints_csv ->
      if connect <> None then fail "--fleet and --connect are mutually exclusive";
      let endpoints =
        List.filter
          (fun s -> s <> "")
          (List.map String.trim (String.split_on_char ',' endpoints_csv))
      in
      if endpoints = [] then fail "--fleet needs at least one endpoint";
      (* The workload is the scripts' submit payloads; placement happens
         client-side by digest, so non-submit ops have no single target
         and are skipped (with a note) rather than broadcast. *)
      let jobs = ref [] and skipped = ref 0 in
      let take_line line =
        if String.trim line <> "" then
          match Bench_io.of_string line with
          | Ok json when Bench_io.member "op" json = Some (Bench_io.String "submit") -> (
            match Bench_io.member "job" json with
            | Some job -> jobs := job :: !jobs
            | None -> incr skipped)
          | Ok _ | Error _ -> incr skipped
      in
      List.iter (fun path -> List.iter take_line (read_script path)) files;
      let jobs = List.rev !jobs in
      if !skipped > 0 then
        Printf.eprintf "client: --fleet skipped %d non-submit line(s)\n%!" !skipped;
      (match Fleet.run ?token ?tenant ~retry:(mk_retry ()) ~endpoints ~jobs () with
      | Error e -> fail e
      | Ok report ->
        List.iter
          (fun (_, c) -> print_endline (Bench_io.to_string ~indent:false c))
          report.Fleet.r_completions;
        print_endline (Bench_io.to_string ~indent:false (Fleet.report_to_json report));
        if report.Fleet.r_failed > 0 || report.Fleet.r_errors > 0 then 2 else 0)
    | None ->
    let refused = ref false in
    let note_response response =
      print_endline response;
      match Bench_io.of_string response with
      | Ok json when Bench_io.member "ok" json = Some (Bench_io.Bool false) -> refused := true
      | _ -> ()
    in
    let step, finish =
      match connect with
      | None ->
        let config =
          { Service.Server.settings; checkpoint_path; store_dir = None; name = "ftagg-client" }
        in
        let t = Service.Server.create config in
        ( (fun line -> note_response (Service.Server.handle t line)),
          fun () ->
            if (not no_drain) && not (Service.Server.shutdown_requested t) then
              note_response (Service.Server.handle t {|{"op":"drain"}|});
            Service.Server.finish t )
      | Some addr -> (
        let fail msg =
          Printf.eprintf "client: %s\n" msg;
          exit 3
        in
        match Transport.Listener.address_of_string addr with
        | Error e -> fail (Printf.sprintf "--connect %s: %s" addr e)
        | Ok address ->
          let s = Transport.Client.session ?token ?tenant ~retry:(mk_retry ()) address in
          let on_result = function
            | Ok response -> note_response response
            | Error (Transport.Client.Refused response) ->
              (* The handshake was refused: surface the structured line
                 and stop — retrying a bad token cannot help. *)
              note_response response;
              Transport.Client.sclose s;
              exit 2
            | Error (Transport.Client.Exhausted _ as f) ->
              Printf.eprintf "client: %s\n" (Transport.Client.failure_message f);
              Transport.Client.sclose s;
              exit 2
          in
          (* hello eagerly when an identity was given, so the handshake
             response is printed before any request (as a lone blocking
             hello used to) and a refusal stops before the first job. *)
          (match (token, tenant) with
          | None, None -> ()
          | _ ->
            on_result
              (Result.map
                 (fun r -> Option.value r ~default:"")
                 (Transport.Client.shello s)));
          ( (fun line -> on_result (Transport.Client.srequest s line)),
            fun () ->
              if not no_drain then on_result (Transport.Client.srequest s {|{"op":"drain"}|});
              Transport.Client.sclose s ))
    in
    let submit_line line = if String.trim line <> "" then step line in
    let run_file path =
      match In_channel.with_open_text path In_channel.input_all with
      | exception Sys_error e ->
        Printf.eprintf "client: %s\n" e;
        exit 3
      | contents -> List.iter submit_line (String.split_on_char '\n' contents)
    in
    List.iter run_file files;
    finish ();
    if !refused then 2 else 0
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Feed service request scripts to a server and print the responses: in-process by \
          default, or a running serve --listen socket via --connect (with automatic \
          retry/backoff across restarts and live handoffs).")
    Term.(
      const run $ service_settings_term $ files $ no_drain $ connect $ fleet $ token $ tenant
      $ retries $ retry_backoff $ retry_seed)

let () =
  let doc = "fault-tolerant aggregation with near-optimal communication-time tradeoff" in
  let info = Cmd.info "ftagg" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            run_cmd; graph_cmd; twoparty_cmd; rank_cmd; worstcase_cmd; dot_cmd; trace_cmd;
            stats_cmd; chaos_cmd; replay_cmd; scenarios_cmd; serve_cmd; client_cmd;
          ]))
