(* Tests for ftagg_obs: the metric registry, span collector, exporters,
   and the engine/protocol wiring.  The two load-bearing properties:

   - attaching a sink never changes what a run computes (obs on/off give
     byte-identical metrics and results);
   - per-phase bit attribution is exhaustive (phase totals sum exactly
     to [Metrics.total_bits], "(none)" bucket included). *)

open Ftagg
open Helpers

(* --- Registry --- *)

let test_registry_counters () =
  let r = Registry.create () in
  check_int "absent counter reads 0" 0 (Registry.counter r "nope");
  Registry.incr r "hits" 1;
  Registry.incr r "hits" 4;
  check_int "counter accumulates" 5 (Registry.counter r "hits");
  Registry.incr r ~labels:[ ("b", "2"); ("a", "1") ] "hits" 7;
  check_int "label order canonicalized" 7
    (Registry.counter r ~labels:[ ("a", "1"); ("b", "2") ] "hits");
  check_int "unlabelled series untouched" 5 (Registry.counter r "hits");
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Registry.incr: negative increment") (fun () ->
      Registry.incr r "hits" (-1))

let test_registry_kinds () =
  let r = Registry.create () in
  Registry.incr r "x" 1;
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Registry: x already registered as a counter") (fun () ->
      Registry.set_gauge r "x" 1.0)

let test_registry_histogram () =
  let r = Registry.create () in
  List.iter (fun v -> Registry.observe r "lat" v) [ 0.5; 1.0; 3.0; 900.0 ];
  match Registry.series r with
  | [ ("lat", [], Registry.Histogram h) ] ->
    check_int "count" 4 h.Registry.h_count;
    check_true "sum" (abs_float (h.Registry.h_sum -. 904.5) < 1e-9);
    check_true "min" (h.Registry.h_min = 0.5);
    check_true "max" (h.Registry.h_max = 900.0);
    (* log2 buckets: 0.5 and 1.0 land in the <=1 bucket, 3.0 in (2,4],
       900 in (512,1024]. *)
    check_true "buckets"
      (h.Registry.h_buckets = [ (1.0, 2); (4.0, 1); (1024.0, 1) ])
  | _ -> Alcotest.fail "expected exactly one histogram series"

let test_registry_merge () =
  let a = Registry.create () and b = Registry.create () in
  Registry.incr a "c" 2;
  Registry.incr b "c" 3;
  Registry.incr b ~labels:[ ("p", "x") ] "c" 10;
  Registry.set_gauge a "g" 1.0;
  Registry.set_gauge b "g" 9.0;
  Registry.observe a "h" 3.0;
  Registry.observe b "h" 5.0;
  Registry.merge_into ~into:a b;
  check_int "counters add" 5 (Registry.counter a "c");
  check_int "new series copied" 10 (Registry.counter a ~labels:[ ("p", "x") ] "c");
  (match Registry.series a with
  | series -> (
    match List.find_opt (fun (n, _, _) -> n = "g") series with
    | Some (_, _, Registry.Gauge g) -> check_true "gauge last-write-wins" (g = 9.0)
    | _ -> Alcotest.fail "gauge series missing"));
  match List.find_opt (fun (n, _, _) -> n = "h") (Registry.series a) with
  | Some (_, _, Registry.Histogram h) ->
    check_int "hist counts add" 2 h.Registry.h_count;
    check_true "hist sum adds" (abs_float (h.Registry.h_sum -. 8.0) < 1e-9)
  | _ -> Alcotest.fail "histogram series missing"

(* Deep-copy on merge: mutating the source afterwards must not leak into
   the destination. *)
let test_registry_merge_copies () =
  let a = Registry.create () and b = Registry.create () in
  Registry.incr b "c" 1;
  Registry.observe b "h" 2.0;
  Registry.merge_into ~into:a b;
  Registry.incr b "c" 100;
  Registry.observe b "h" 4.0;
  check_int "counter copied, not aliased" 1 (Registry.counter a "c");
  match List.find_opt (fun (n, _, _) -> n = "h") (Registry.series a) with
  | Some (_, _, Registry.Histogram h) -> check_int "hist copied" 1 h.Registry.h_count
  | _ -> Alcotest.fail "histogram series missing"

(* Parallel sweep aggregation must not depend on the domain count: same
   jobs, same merged registry, whether serial or fanned out. *)
let test_sweep_obs_deterministic () =
  let job reg seed =
    Registry.incr reg "jobs" 1;
    Registry.incr reg ~labels:[ ("seed", string_of_int seed) ] "seen" seed;
    Registry.observe reg "load" (float_of_int seed);
    seed * 2
  in
  let run domains =
    let into = Registry.create () in
    let ys = Sweep_obs.map ~domains ~into job [ 1; 2; 3; 4; 5; 6; 7 ] in
    (ys, Registry.series into)
  in
  let ys1, r1 = run 1 in
  let ys4, r4 = run 4 in
  check_true "results in input order" (ys1 = [ 2; 4; 6; 8; 10; 12; 14 ]);
  check_true "results domain-independent" (ys1 = ys4);
  check_true "merged registry domain-independent" (r1 = r4);
  check_true "all jobs counted"
    (List.exists (fun (n, l, v) -> n = "jobs" && l = [] && v = Registry.Counter 7) r1)

(* --- Span collector --- *)

let test_span_phase_chain () =
  let t = Span.create () in
  Span.with_ambient t (fun () ->
      Span.set_round t 1;
      Span.enter ~node:3 "exec#1";
      Span.phase ~node:3 "agg/tree";
      Span.charge t ~node:3 10;
      Span.phase ~node:3 "agg/tree";
      (* same-name: no-op *)
      Span.set_round t 5;
      Span.phase ~node:3 "agg/flood";
      (* replaces the phase span, stays nested under exec#1 *)
      Span.charge t ~node:3 7;
      check_true "innermost is the phase" (Span.current_phase t ~node:3 = Some "agg/flood");
      Span.set_round t 9;
      Span.exit_named ~node:3 "exec#1");
  match Span.spans t with
  | [ exec; tree; flood ] ->
    check_true "exec name" (exec.Span.sp_name = "exec#1");
    check_int "exec depth" 0 exec.Span.sp_depth;
    check_int "exec closes last" 9 exec.Span.sp_end_round;
    check_true "tree is a phase" tree.Span.sp_phase;
    check_int "tree bits" 10 tree.Span.sp_bits;
    check_int "tree closed by flood" 5 tree.Span.sp_end_round;
    check_int "flood same depth as tree" tree.Span.sp_depth flood.Span.sp_depth;
    check_int "flood bits" 7 flood.Span.sp_bits;
    check_int "flood closed by exit of parent" 9 flood.Span.sp_end_round
  | spans -> Alcotest.fail (Printf.sprintf "expected 3 spans, got %d" (List.length spans))

let test_span_stray_exit_ignored () =
  let t = Span.create () in
  Span.with_ambient t (fun () ->
      Span.set_round t 1;
      Span.enter ~node:0 "outer";
      Span.phase ~node:0 "p";
      Span.exit_named ~node:0 "never-opened";
      check_true "stack untouched by stray exit" (Span.current_phase t ~node:0 = Some "p");
      Span.set_round t 4;
      Span.close_all t);
  check_true "close_all closes everything"
    (List.for_all (fun s -> s.Span.sp_end_round = 4) (Span.spans t))

let test_span_noop_without_ambient () =
  check_true "not active outside with_ambient" (not (Span.active ()));
  (* These must be silent no-ops, not crashes. *)
  Span.enter ~node:0 "x";
  Span.phase ~node:0 "y";
  Span.exit_named ~node:0 "x"

(* --- The kill switch --- *)

let test_disabled_is_inert () =
  Registry.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Registry.set_enabled true)
    (fun () ->
      let r = Registry.create () in
      Registry.incr r "c" 5;
      Registry.observe r "h" 1.0;
      check_int "counter not written" 0 (Registry.counter r "c");
      check_true "no series materialized" (Registry.series r = []);
      let t = Span.create () in
      Span.with_ambient t (fun () ->
          check_true "spans inactive when disabled" (not (Span.active ()));
          Span.enter ~node:0 "x");
      check_true "no spans recorded" (Span.spans t = []))

(* --- Engine wiring --- *)

let small_tradeoff ?obs () =
  let n = 36 in
  let g = Gen.grid n in
  let inputs = default_inputs n in
  let params = params_of g ~inputs in
  let b = 42 and f = 4 in
  let failures =
    Failure.random g ~rng:(Prng.create 7) ~budget:f ~max_round:(b * params.Params.d)
  in
  Run.tradeoff ?obs ~graph:g ~failures ~params ~b ~f ~seed:3 ()

(* Attaching a sink must be observationally invisible: same value, same
   metrics, same round count. *)
let test_obs_does_not_perturb_run () =
  let plain = small_tradeoff () in
  let obs = Obs.create () in
  let traced = small_tradeoff ~obs () in
  check_int "same value"
    (Run.value_exn plain.Run.result)
    (Run.value_exn traced.Run.result);
  check_int "same cc" (Metrics.cc plain.Run.common.Run.metrics)
    (Metrics.cc traced.Run.common.Run.metrics);
  check_int "same total bits"
    (Metrics.total_bits plain.Run.common.Run.metrics)
    (Metrics.total_bits traced.Run.common.Run.metrics);
  check_int "same rounds" plain.Run.common.Run.rounds traced.Run.common.Run.rounds

(* The exhaustiveness invariant behind `ftagg trace` and bench e18. *)
let test_phase_bits_sum_to_total () =
  let obs = Obs.create () in
  let o = small_tradeoff ~obs () in
  let per_phase = Obs.phase_bits obs in
  check_true "at least 3 phases attributed" (List.length per_phase >= 3);
  let sum = List.fold_left (fun acc (_, b) -> acc + b) 0 per_phase in
  check_int "phase bits sum to Metrics.total_bits"
    (Metrics.total_bits o.Run.common.Run.metrics)
    sum;
  check_int "rounds counter matches engine" o.Run.common.Run.rounds
    (Registry.counter (Obs.registry obs) "ftagg_rounds_total")

(* --- Exporters --- *)

let test_jsonl_parses () =
  let obs = Obs.create ~name:"jsonl-test" () in
  ignore (small_tradeoff ~obs ());
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Export.jsonl obs))
  in
  check_true "has header + events + spans" (List.length lines > 10);
  List.iter
    (fun line ->
      match Bench_io.of_string line with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "unparseable JSONL line (%s): %s" e line))
    lines;
  match Bench_io.of_string (List.hd lines) with
  | Ok j ->
    check_true "header carries the run name"
      (Option.bind (Bench_io.member "name" j) Bench_io.to_string_v = Some "jsonl-test")
  | Error e -> Alcotest.fail e

let test_chrome_trace_parses () =
  let obs = Obs.create () in
  ignore (small_tradeoff ~obs ());
  let rendered = Bench_io.to_string (Export.chrome_trace obs) in
  match Bench_io.of_string rendered with
  | Error e -> Alcotest.fail (Printf.sprintf "chrome trace does not re-parse: %s" e)
  | Ok json ->
    let events =
      match Bench_io.member "traceEvents" json with
      | Some l -> Option.value (Bench_io.to_list l) ~default:[]
      | None -> []
    in
    let complete =
      List.filter
        (fun ev -> Bench_io.member "ph" ev = Some (Bench_io.String "X"))
        events
    in
    check_true "has span events" (complete <> []);
    let distinct_names =
      List.sort_uniq compare
        (List.filter_map
           (fun ev -> Option.bind (Bench_io.member "name" ev) Bench_io.to_string_v)
           complete)
    in
    check_true "at least 3 distinct phases" (List.length distinct_names >= 3);
    (* Every X event must carry the fields Perfetto needs. *)
    List.iter
      (fun ev ->
        List.iter
          (fun k ->
            if Bench_io.member k ev = None then
              Alcotest.fail (Printf.sprintf "X event missing %S" k))
          [ "pid"; "tid"; "ts"; "dur"; "name"; "cat" ])
      complete

(* Hostile label values: backslashes, quotes and newlines must come out
   escaped per the exposition format, and a raw newline must never split
   a metric line (it would corrupt every series after it). *)
let test_prometheus_hostile_labels () =
  Registry.set_enabled true;
  let r = Registry.create () in
  Registry.incr r ~labels:[ ("path", "C:\\temp\"dir\nnext") ] "requests" 1;
  let text = Export.prometheus r in
  let has needle =
    let rec go i =
      i + String.length needle <= String.length text
      && (String.sub text i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  (* pinned byte-exact: backslash doubles, the quote and the newline
     each become a two-byte escape *)
  check_true "hostile value escaped exactly"
    (has "requests{path=\"C:\\\\temp\\\"dir\\nnext\"} 1");
  let metric_lines =
    List.filter
      (fun l -> String.length l >= 9 && String.sub l 0 9 = "requests{")
      (String.split_on_char '\n' text)
  in
  (match metric_lines with
  | [ l ] ->
    check_true "the series survives as one whole line"
      (String.sub l (String.length l - 2) 2 = " 1")
  | ls -> Alcotest.fail (Printf.sprintf "expected 1 metric line, got %d" (List.length ls)));
  (* a benign value passes through untouched *)
  Registry.incr r ~labels:[ ("t", "plain-value_1") ] "benign" 2;
  let text = Export.prometheus r in
  let has needle =
    let rec go i =
      i + String.length needle <= String.length text
      && (String.sub text i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  check_true "benign value unescaped" (has "benign{t=\"plain-value_1\"} 2")

let test_prometheus_dump () =
  let r = Registry.create () in
  Registry.incr r ~labels:[ ("phase", "agg/tree") ] "bits" 12;
  Registry.observe r "sizes" 3.0;
  Registry.set_gauge r "temp" 1.5;
  let text = Export.prometheus r in
  let has needle =
    let rec go i =
      i + String.length needle <= String.length text
      && (String.sub text i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  check_true "counter line" (has "bits{phase=\"agg/tree\"} 12");
  check_true "type annotation" (has "# TYPE bits counter");
  check_true "cumulative +Inf bucket" (has "sizes_bucket{le=\"+Inf\"} 1");
  check_true "histogram count" (has "sizes_count 1");
  check_true "gauge" (has "temp 1.5")

(* --- percentile extraction from log2 histograms --- *)

let hist_of values =
  let r = Registry.create () in
  List.iter (fun v -> Registry.observe r "h" v) values;
  match Registry.histogram r "h" with
  | Some h -> h
  | None -> Alcotest.fail "histogram series missing"

(* Golden vectors: observations 1, 2, 4, 8 land exactly on the upper
   edges of the first four log2 buckets, so linear interpolation inside
   a bucket must return the edge itself at each quartile — any
   off-by-one in the cumulative walk or the bucket lower bound shifts
   these. *)
let test_percentile_golden () =
  let h = hist_of [ 1.0; 2.0; 4.0; 8.0 ] in
  let check_p name p expect =
    check_true name (abs_float (Registry.percentile h p -. expect) < 1e-9)
  in
  check_p "p25 = first bucket edge" 25.0 1.0;
  check_p "p50 = second bucket edge" 50.0 2.0;
  check_p "p75 = third bucket edge" 75.0 4.0;
  check_p "p100 is the exact max" 100.0 8.0;
  check_p "p0 is the exact min" 0.0 1.0;
  (* mid-bucket interpolation: rank 1.5 sits halfway through (1,2] *)
  check_p "p37.5 interpolates inside the bucket" 37.5 1.5

let test_percentile_degenerate () =
  let h = hist_of [ 5.0; 5.0; 5.0 ] in
  List.iter
    (fun p ->
      check_true
        (Printf.sprintf "all-equal observations: p%g clamps to the value" p)
        (Registry.percentile h p = 5.0))
    [ 0.0; 50.0; 90.0; 99.0; 100.0 ];
  let empty =
    let r = Registry.create () in
    Registry.observe r "other" 1.0;
    { (hist_of [ 1.0 ]) with Registry.h_count = 0 }
  in
  Alcotest.check_raises "empty histogram rejected"
    (Invalid_argument "Registry.percentile: empty histogram") (fun () ->
      ignore (Registry.percentile empty 50.0));
  Alcotest.check_raises "p out of range rejected"
    (Invalid_argument "Registry.percentile: p out of range") (fun () ->
      ignore (Registry.percentile (hist_of [ 1.0 ]) 101.0))

let test_histogram_lookup () =
  let r = Registry.create () in
  check_true "absent series" (Registry.histogram r "nope" = None);
  Registry.incr r "c" 1;
  check_true "counter is not a histogram" (Registry.histogram r "c" = None);
  Registry.observe r ~labels:[ ("k", "v") ] "h" 2.0;
  check_true "labels must match" (Registry.histogram r "h" = None);
  match Registry.histogram r ~labels:[ ("k", "v") ] "h" with
  | Some h -> check_int "labelled series found" 1 h.Registry.h_count
  | None -> Alcotest.fail "labelled histogram missing"

(* --- Bench_io writer bytes ---

   The reference emitter is the writer as it was before it escaped into
   its output buffer: each string escaped into a buffer of its own, then
   copied.  It is kept verbatim, and the writer must match it byte for
   byte, indented or not. *)

let reference_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let reference_float_repr x =
  if Float.is_nan x then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.abs x = Float.infinity then "null"
  else
    let s = Printf.sprintf "%.12g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let rec reference_emit buf ~indent ~level v =
  let pad l = if indent then Buffer.add_string buf (String.make (2 * l) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  match v with
  | Bench_io.Null -> Buffer.add_string buf "null"
  | Bench_io.Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Bench_io.Int i -> Buffer.add_string buf (string_of_int i)
  | Bench_io.Float x -> Buffer.add_string buf (reference_float_repr x)
  | Bench_io.String s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (reference_escape s);
    Buffer.add_char buf '"'
  | Bench_io.List [] -> Buffer.add_string buf "[]"
  | Bench_io.List items ->
    Buffer.add_char buf '[';
    nl ();
    List.iteri
      (fun i item ->
        if i > 0 then begin
          Buffer.add_char buf ',';
          nl ()
        end;
        pad (level + 1);
        reference_emit buf ~indent ~level:(level + 1) item)
      items;
    nl ();
    pad level;
    Buffer.add_char buf ']'
  | Bench_io.Obj [] -> Buffer.add_string buf "{}"
  | Bench_io.Obj fields ->
    Buffer.add_char buf '{';
    nl ();
    List.iteri
      (fun i (k, item) ->
        if i > 0 then begin
          Buffer.add_char buf ',';
          nl ()
        end;
        pad (level + 1);
        Buffer.add_char buf '"';
        Buffer.add_string buf (reference_escape k);
        Buffer.add_string buf "\": ";
        reference_emit buf ~indent ~level:(level + 1) item)
      fields;
    nl ();
    pad level;
    Buffer.add_char buf '}'

let reference_to_string ~indent v =
  let buf = Buffer.create 1024 in
  reference_emit buf ~indent ~level:0 v;
  if indent then Buffer.add_char buf '\n';
  Buffer.contents buf

(* Every escape class, often: quote, backslash, newline, tab, carriage
   return, the other bytes below 0x20, bytes from 0x80 up, and plain
   printable runs between them. *)
let escape_class_char =
  QCheck.Gen.(
    oneof
      [
        oneofl [ '"'; '\\'; '\n'; '\t'; '\r' ];
        char_range '\000' '\031';
        char_range '\128' '\255';
        char_range ' ' '~';
      ])

let rec json_gen depth =
  let open QCheck.Gen in
  let str = string_size ~gen:escape_class_char (0 -- 12) in
  let leaf =
    oneof
      [
        map (fun s -> Bench_io.String s) str;
        map (fun i -> Bench_io.Int i) (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]);
        map (fun b -> Bench_io.Bool b) bool;
        return Bench_io.Null;
        map (fun f -> Bench_io.Float f) (oneof [ float; oneofl [ nan; infinity; 0.5; -1e20 ] ]);
      ]
  in
  if depth = 0 then leaf
  else
    oneof
      [
        leaf;
        map (fun l -> Bench_io.List l) (list_size (0 -- 4) (json_gen (depth - 1)));
        map (fun kvs -> Bench_io.Obj kvs) (list_size (0 -- 4) (pair str (json_gen (depth - 1))));
      ]

let writer_bytes_tests =
  [
    QCheck.Test.make ~name:"Bench_io: writer bytes equal the reference emitter" ~count:500
      (QCheck.make (json_gen 3))
      (fun j ->
        Bench_io.to_string ~indent:false j = reference_to_string ~indent:false j
        && Bench_io.to_string ~indent:true j = reference_to_string ~indent:true j);
  ]

(* --- Bench_io round trip (satellite: JSON string escaping) --- *)

let qcheck_tests =
  let open QCheck in
  (* Strings with control characters, quotes and backslashes — the bytes
     the writer must escape for the reader (and any JSON parser) to get
     the same string back. *)
  let nasty_string =
    string_gen_of_size Gen.(0 -- 30) (Gen.char_range '\000' '\127')
  in
  let rec shrinkable_json depth =
    let open Gen in
    if depth = 0 then
      oneof
        [
          map (fun s -> Bench_io.String s) (string_size ~gen:(char_range '\000' '\127') (0 -- 20));
          map (fun i -> Bench_io.Int i) int;
          map (fun b -> Bench_io.Bool b) bool;
          return Bench_io.Null;
          (* Keep generated floats finite: NaN/inf serialize as null by
             design, so they don't round-trip as floats. *)
          map (fun f -> Bench_io.Float f) (float_bound_inclusive 1e9);
        ]
    else
      oneof
        [
          shrinkable_json 0;
          map (fun l -> Bench_io.List l) (list_size (0 -- 4) (shrinkable_json (depth - 1)));
          map
            (fun kvs -> Bench_io.Obj kvs)
            (list_size (0 -- 4)
               (pair (string_size ~gen:(char_range '\000' '\127') (0 -- 8))
                  (shrinkable_json (depth - 1))));
        ]
  in
  [
    Test.make ~name:"percentile: p90 <= p95 <= p99 <= p100, all inside [min, max]" ~count:300
      (list_of_size Gen.(1 -- 40) (float_bound_inclusive 1e6))
      (fun values ->
        let values = List.map (fun v -> Float.abs v +. 0.001) values in
        let h = hist_of values in
        let p90 = Registry.percentile h 90.0
        and p95 = Registry.percentile h 95.0
        and p99 = Registry.percentile h 99.0
        and p100 = Registry.percentile h 100.0 in
        p90 <= p95 && p95 <= p99 && p99 <= p100
        && h.Registry.h_min <= p90
        && p100 = h.Registry.h_max);
    Test.make ~name:"Bench_io: strings with control chars round-trip" ~count:500 nasty_string
      (fun s ->
        match Bench_io.of_string (Bench_io.to_string (Bench_io.String s)) with
        | Ok (Bench_io.String s') -> s' = s
        | _ -> false);
    Test.make ~name:"Bench_io: writer/reader round trip on nested json" ~count:200
      (make (shrinkable_json 3))
      (fun j ->
        match Bench_io.of_string (Bench_io.to_string j) with
        | Ok j' -> j' = j
        | Error _ -> false);
    Test.make ~name:"Bench_io: indented output parses back equal" ~count:100
      (make (shrinkable_json 2))
      (fun j ->
        match Bench_io.of_string (Bench_io.to_string ~indent:true j) with
        | Ok j' -> j' = j
        | Error _ -> false);
  ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("registry: counters + labels", test_registry_counters);
      ("registry: kind mismatch", test_registry_kinds);
      ("registry: histogram buckets", test_registry_histogram);
      ("registry: merge", test_registry_merge);
      ("registry: merge deep-copies", test_registry_merge_copies);
      ("sweep_obs: domain-count independent", test_sweep_obs_deterministic);
      ("span: phase chain + nesting", test_span_phase_chain);
      ("span: stray exit ignored", test_span_stray_exit_ignored);
      ("span: no-op without ambient", test_span_noop_without_ambient);
      ("kill switch: everything inert", test_disabled_is_inert);
      ("engine: obs does not perturb the run", test_obs_does_not_perturb_run);
      ("engine: phase bits sum to total_bits", test_phase_bits_sum_to_total);
      ("export: jsonl parses line by line", test_jsonl_parses);
      ("export: chrome trace parses, >=3 phases", test_chrome_trace_parses);
      ("export: prometheus text", test_prometheus_dump);
      ("export: hostile label values escaped", test_prometheus_hostile_labels);
      ("percentile: golden vectors at bucket edges", test_percentile_golden);
      ("percentile: degenerate histograms", test_percentile_degenerate);
      ("registry: histogram lookup by name + labels", test_histogram_lookup);
    ]
  @ List.map QCheck_alcotest.to_alcotest (qcheck_tests @ writer_bytes_tests)
