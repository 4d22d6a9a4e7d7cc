module Bench_io = Ftagg_runner.Bench_io
open Bench_io

(* ---- JSONL ------------------------------------------------------------ *)

let json_of_event (e : Obs.event) =
  let base = [ ("kind", String e.ev_kind) ] in
  let base = if e.ev_round >= 0 then base @ [ ("round", Int e.ev_round) ] else base in
  let base = if e.ev_node >= 0 then base @ [ ("node", Int e.ev_node) ] else base in
  Obj (base @ e.ev_fields)

let json_of_span (sp : Span.span) =
  Obj
    [
      ("kind", String "span");
      ("node", Int sp.Span.sp_node);
      ("name", String sp.Span.sp_name);
      ("round_start", Int sp.Span.sp_start_round);
      ("round_end", Int sp.Span.sp_end_round);
      ("wall_s", Float (sp.Span.sp_end_wall -. sp.Span.sp_start_wall));
      ("bits", Int sp.Span.sp_bits);
      ("depth", Int sp.Span.sp_depth);
    ]

let jsonl obs =
  let buf = Buffer.create 4096 in
  let line j =
    Buffer.add_string buf (to_string ~indent:false j);
    Buffer.add_char buf '\n'
  in
  line (Obj [ ("kind", String "run"); ("name", String (Obs.name obs)) ]);
  List.iter (fun e -> line (json_of_event e)) (Obs.events obs);
  List.iter (fun sp -> line (json_of_span sp)) (Span.spans (Obs.spans obs));
  Buffer.contents buf

(* ---- Chrome trace_event ---------------------------------------------- *)

(* Synthetic clock: 1 round = 1 ms = 1000 trace microseconds.  Rounds,
   not wall-clock, so the trace is deterministic and phases line up
   across nodes. *)
let us_of_round r = float_of_int ((r - 1) * 1000)

let chrome_trace obs =
  let spans = Span.spans (Obs.spans obs) in
  let phases =
    List.sort_uniq compare (List.map (fun sp -> sp.Span.sp_name) spans)
  in
  let tid_of name =
    let rec idx i = function
      | [] -> 0
      | p :: tl -> if p = name then i else idx (i + 1) tl
    in
    idx 1 phases
  in
  let nodes = List.sort_uniq compare (List.map (fun sp -> sp.Span.sp_node) spans) in
  let meta =
    List.concat_map
      (fun node ->
        let tids =
          List.sort_uniq compare
            (List.filter_map
               (fun sp -> if sp.Span.sp_node = node then Some (tid_of sp.Span.sp_name) else None)
               spans)
        in
        Obj
          [
            ("name", String "process_name"); ("ph", String "M"); ("pid", Int node);
            ("tid", Int 0);
            ("args", Obj [ ("name", String (Printf.sprintf "node %d" node)) ]);
          ]
        :: List.map
             (fun tid ->
               Obj
                 [
                   ("name", String "thread_name"); ("ph", String "M"); ("pid", Int node);
                   ("tid", Int tid);
                   ("args", Obj [ ("name", String (List.nth phases (tid - 1))) ]);
                 ])
             tids)
      nodes
  in
  let events =
    List.map
      (fun sp ->
        let end_round =
          if sp.Span.sp_end_round < 0 then sp.Span.sp_start_round else sp.Span.sp_end_round
        in
        let dur = max 1 (end_round - sp.Span.sp_start_round) * 1000 in
        Obj
          [
            ("name", String sp.Span.sp_name);
            ("cat", String (if sp.Span.sp_phase then "phase" else "span"));
            ("ph", String "X");
            ("pid", Int sp.Span.sp_node);
            ("tid", Int (tid_of sp.Span.sp_name));
            ("ts", Float (us_of_round sp.Span.sp_start_round));
            ("dur", Int dur);
            ( "args",
              Obj
                [
                  ("round_start", Int sp.Span.sp_start_round);
                  ("round_end", Int end_round);
                  ("bits", Int sp.Span.sp_bits);
                  ("wall_s", Float (sp.Span.sp_end_wall -. sp.Span.sp_start_wall));
                ] );
          ])
      spans
  in
  Obj
    [
      ("traceEvents", List (meta @ events));
      ("displayTimeUnit", String "ms");
      ("otherData", Obj [ ("name", String (Obs.name obs)); ("clock", String "1 round = 1ms") ]);
    ]

(* ---- Prometheus text -------------------------------------------------- *)

let escape_label_value s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) labels)
    ^ "}"

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let prometheus registry =
  let buf = Buffer.create 4096 in
  let last_typed = ref "" in
  let type_line name kind =
    if !last_typed <> name then begin
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind);
      last_typed := name
    end
  in
  List.iter
    (fun (name, labels, value) ->
      match (value : Registry.value) with
      | Registry.Counter c ->
        type_line name "counter";
        Buffer.add_string buf (Printf.sprintf "%s%s %d\n" name (render_labels labels) c)
      | Registry.Gauge g ->
        type_line name "gauge";
        Buffer.add_string buf (Printf.sprintf "%s%s %s\n" name (render_labels labels) (float_str g))
      | Registry.Histogram h ->
        type_line name "histogram";
        let cum = ref 0 in
        List.iter
          (fun (bound, count) ->
            cum := !cum + count;
            let le = if bound = infinity then "+Inf" else float_str bound in
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" name
                 (render_labels (labels @ [ ("le", le) ]))
                 !cum))
          h.Registry.h_buckets;
        if not (List.exists (fun (b, _) -> b = infinity) h.Registry.h_buckets) then
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" name
               (render_labels (labels @ [ ("le", "+Inf") ]))
               !cum);
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %s\n" name (render_labels labels)
             (float_str h.Registry.h_sum));
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d\n" name (render_labels labels) h.Registry.h_count))
    (Registry.series registry);
  Buffer.contents buf

(* ---- files ------------------------------------------------------------ *)

let write_text path text =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let write_jsonl ~path obs = write_text path (jsonl obs)
let write_chrome_trace ~path obs = Bench_io.write_file ~path (chrome_trace obs)
