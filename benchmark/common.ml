(* Shared plumbing: the clock, statistics, metric and result records,
   the stage timers of the traced phases, spans, and process helpers. *)

module Bench_io = Ftagg.Bench_io

(* ---- clock ---- *)

(* CLOCK_MONOTONIC nanoseconds; unboxed and allocation-free, so a timer
   around a hot call perturbs the minor heap no more than the call does. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* ---- statistics ---- *)

(* The benchmark's own, not lib/util's: a change to the code under test
   must not move how its numbers are summarised. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a non-empty sample: the latency convention. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] computes
   them (the default "exclusive" method), so spreads reported here match
   the ones the bounds in BENCHMARK.json are checked against. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* ---- spans (Chrome trace_event), kept in memory until the run ends ---- *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_t0 : int;
  sp_t1 : int;
  sp_args : (string * Bench_io.json) list;
}

let span ?(args = []) ~name ~cat ~t0 ~t1 () =
  { sp_name = name; sp_cat = cat; sp_t0 = t0; sp_t1 = t1; sp_args = args }

(* ---- metrics and results ---- *)

type metric = {
  name : string;
  unit : string;
  value : float;
  samples : int;  (** observations behind [value] *)
}

let metric ?(samples = 1) name unit value = { name; unit; value; samples }

type phase = Timed | Traced

let phase_name = function Timed -> "timed" | Traced -> "traced"

type result = {
  workload : string;
  phase : phase;
  attempted : int;
  failed : int;
  errors : string list;  (** the first few failure messages *)
  wall_s : float;  (** the timed phase's, or the traced phase's, wall time *)
  sizes : (string * Bench_io.json) list;
  metrics : metric list;
  spans : span list;  (** traced phase only *)
}

(* Operations attempted and failed.  A failed check that belongs to no
   single operation counts as one failed operation. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let tally () = { attempted = 0; failed = 0; errors = [] }
let attempt t = t.attempted <- t.attempted + 1

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.errors < 8 then t.errors <- t.errors @ [ msg ]

let check t ok msg = if not ok then fail t msg

let result ~workload ~phase ~tally ~wall_s ~sizes ?(spans = []) metrics =
  {
    workload;
    phase;
    attempted = max 1 tally.attempted;
    failed = tally.failed;
    errors = tally.errors;
    wall_s;
    sizes;
    metrics;
    spans;
  }

let metric_to_json m =
  Bench_io.(
    Obj
      [
        ("name", String m.name); ("unit", String m.unit); ("value", Float m.value);
        ("samples", Int m.samples);
      ])

let metric_of_json j =
  let open Bench_io in
  match
    ( Option.bind (member "name" j) to_string_v,
      Option.bind (member "unit" j) to_string_v,
      Option.bind (member "value" j) to_float,
      Option.bind (member "samples" j) to_int )
  with
  | Some name, Some unit, Some value, Some samples -> Some { name; unit; value; samples }
  | _ -> None

let result_to_json r =
  Bench_io.(
    Obj
      [
        ("workload", String r.workload);
        ("phase", String (phase_name r.phase));
        ("attempted", Int r.attempted);
        ("failed", Int r.failed);
        ("errors", List (List.map (fun e -> String e) r.errors));
        ("wall_s", Float r.wall_s);
        ("sizes", Obj r.sizes);
        ("metrics", List (List.map metric_to_json r.metrics));
      ])

(* ---- BENCHMARK.json: the declared metrics and their bounds ---- *)

type declared = {
  run_seconds : int;
  end_to_end : (string * string) list;  (** name, unit *)
  per_layer : (string * string) list;
  bounds : (string * (string * float)) list;  (** name -> better, bound *)
}

let load_declared path =
  let open Bench_io in
  let ( let* ) = Result.bind in
  let* json = read_file ~path in
  let field key conv j = Option.bind (member key j) conv in
  let metrics key =
    List.filter_map
      (fun m ->
        match (field "name" to_string_v m, field "unit" to_string_v m) with
        | Some name, Some unit -> Some (name, unit)
        | _ -> None)
      (Option.value ~default:[] (field key to_list json))
  in
  let bounds =
    List.filter_map
      (fun m ->
        match (field "name" to_string_v m, field "better" to_string_v m, field "bound" to_float m) with
        | Some name, Some better, Some bound -> Some (name, (better, bound))
        | _ -> None)
      (Option.value ~default:[] (field "end_to_end" to_list json))
  in
  match field "run_seconds" to_int json with
  | None -> Error (path ^ ": no run_seconds")
  | Some run_seconds ->
    Ok { run_seconds; end_to_end = metrics "end_to_end"; per_layer = metrics "per_layer"; bounds }

let declared_or_fail path = match load_declared path with Ok d -> d | Error e -> failwith e

(* ---- host speed, as a diagnostic ---- *)

(* A shared host's neighbours change its speed for seconds at a time.  A
   fixed, allocation-free, register-only kernel (~0.5 ms) is timed five
   times before and five times after each timed phase, and its median is
   printed as [host.probe_ms] beside the metrics.  It is never applied to
   them: when two result sets disagree, compare their probes before
   trusting the comparison. *)
let probe_kernel () =
  let x = ref 88172645463325252 in
  for _ = 1 to 150_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  ignore (Sys.opaque_identity !x)

let host_probes () =
  List.init 5 (fun _ ->
      let t0 = now_ns () in
      probe_kernel ();
      1000. *. seconds_since t0)

(* [f ()] and its wall seconds. *)
let timed_run f =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_since t0)

(* What a timed phase records: set-ups, operations and their latencies. *)
type recorder = {
  mutable setups : float list;  (** seconds *)
  mutable work : float;  (** operations completed *)
  mutable busy : float;  (** the operations' wall seconds *)
  mutable latencies : float list;  (** seconds *)
  probes_before : float list;
}

let recorder () = { setups = []; work = 0.; busy = 0.; latencies = []; probes_before = host_probes () }
let add_setup t wall = t.setups <- wall :: t.setups

let record_setup t f =
  let v, wall = timed_run f in
  add_setup t wall;
  v

(* [work] operations done in [wall] seconds. *)
let add_work t ~work ~wall =
  t.work <- t.work +. work;
  t.busy <- t.busy +. wall

let add_latency t lat = t.latencies <- lat :: t.latencies

(* The tail: the latencies, in the order they were taken, cut into ten
   equal slices, and the median of the slices' nearest-rank p99s.  A stall
   that recurs through the phase raises most slices' p99 and shows; one
   that happens once raises a single slice's and does not, so one host
   hiccup cannot move the tail on its own.  With fewer than a hundred
   samples in a slice, its p99 is its slowest sample. *)
let sliced_p99 latencies =
  let a = Array.of_list (List.rev latencies) in
  let n = Array.length a in
  let slices = min 10 n in
  let slice i = Array.to_list (Array.sub a (i * n / slices) (((i + 1) * n / slices) - (i * n / slices))) in
  median (List.init slices (fun i -> percentile 99. (slice i)))

(* The end-to-end metrics every timed phase reports, and the host probe. *)
let end_to_end t ~rss =
  let n = List.length t.latencies and setups = List.length t.setups in
  let probes = t.probes_before @ host_probes () in
  [
    metric ~samples:setups "setup_s" "s" (median t.setups);
    metric ~samples:n "ops_per_sec" "1/s" (t.work /. t.busy);
    metric ~samples:n "latency_p50_ms" "ms" (1000. *. percentile 50. t.latencies);
    metric ~samples:n "latency_p99_ms" "ms" (1000. *. sliced_p99 t.latencies);
  ]
  @ Option.to_list rss
  @ [ metric ~samples:(List.length probes) "host.probe_ms" "ms" (median probes) ]

(* ---- stage timers for the traced phases ---- *)

(* A layer's self time, accumulated around each call into it.  [keep]
   additionally records every call's duration, for percentiles. *)
type stage = {
  stage_name : string;
  mutable calls : int;
  mutable ns : int;
  keep : bool;
  mutable durations : int array;
  mutable kept : int;
}

let stage ?(keep = false) stage_name =
  { stage_name; calls = 0; ns = 0; keep; durations = [||]; kept = 0 }

let stop st t0 =
  let dt = now_ns () - t0 in
  st.ns <- st.ns + dt;
  st.calls <- st.calls + 1;
  if st.keep then begin
    if st.kept = Array.length st.durations then begin
      let grown = Array.make (max 64 (2 * st.kept)) 0 in
      Array.blit st.durations 0 grown 0 st.kept;
      st.durations <- grown
    end;
    st.durations.(st.kept) <- dt;
    st.kept <- st.kept + 1
  end

let durations_s st = List.init st.kept (fun i -> float_of_int st.durations.(i) *. 1e-9)

(* What one [stop]-wrapped call costs, measured on an empty function:
   [outer_ns] is what it adds to the caller's wall time, [inner_ns] what
   it adds to the stage's own total.  Medians of several repetitions. *)
type calibration = { outer_ns : float; inner_ns : float }

(* [wrapped i] runs [bare i] inside the wrapper being calibrated, which
   stops [st]; [bare] should do nothing. *)
let calibrate_wrapper st ~bare ~wrapped =
  let k = 200_000 in
  let rep () =
    st.calls <- 0;
    st.ns <- 0;
    let t0 = now_ns () in
    for i = 1 to k do
      bare i
    done;
    let t1 = now_ns () in
    for i = 1 to k do
      wrapped i
    done;
    let t2 = now_ns () in
    (float_of_int (t2 - t1 - (t1 - t0)) /. float_of_int k, float_of_int st.ns /. float_of_int k)
  in
  let reps = List.init 7 (fun _ -> rep ()) in
  { outer_ns = median (List.map fst reps); inner_ns = median (List.map snd reps) }

(* The plain timer: [let t0 = now_ns () in ... stop st t0] around a call. *)
let calibrate () =
  let st = stage "calibrate" in
  let f = Sys.opaque_identity (fun x -> ignore (Sys.opaque_identity x)) in
  calibrate_wrapper st ~bare:f ~wrapped:(fun i ->
      let t0 = now_ns () in
      f i;
      stop st t0)

(* The trace.* metrics of a traced phase: [untraced] and [traced] are the
   wall seconds of the same work run both ways. *)
let trace_metrics ~untraced ~traced cal =
  [
    metric "trace.wall_s" "s" traced;
    metric "trace.untraced_wall_s" "s" untraced;
    metric "trace.overhead_ratio" "ratio" (traced /. untraced);
    metric ~samples:7 "trace.timer_ns" "ns" cal.outer_ns;
  ]

(* A stage's self time with the timer's own cost taken out. *)
let self_s cal st = Float.max 0. ((float_of_int st.ns -. (float_of_int st.calls *. cal.inner_ns)) *. 1e-9)

(* ---- processes and files ---- *)

(* Peak resident set ([VmHWM]) of a process, in KiB. *)
let vm_hwm_kb pid =
  let path = match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        String.split_on_char ' ' (String.sub line 6 (String.length line - 6))
        |> List.find_map int_of_string_opt
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

let peak_rss_metric pid =
  match vm_hwm_kb pid with
  | Some kb -> Some (metric "peak_rss_mib" "MiB" (float_of_int kb /. 1024.))
  | None -> None

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let span_to_json sp =
  Bench_io.(
    Obj
      [
        ("name", String sp.sp_name); ("cat", String sp.sp_cat); ("ph", String "X");
        ("ts", Float (float_of_int sp.sp_t0 /. 1000.));
        ("dur", Float (float_of_int (sp.sp_t1 - sp.sp_t0) /. 1000.));
        ("pid", Int 1); ("tid", Int 1); ("args", Obj sp.sp_args);
      ])

let write_trace ~dir r =
  if r.spans <> [] then begin
    mkdir_p dir;
    Bench_io.write_file
      ~path:(Filename.concat dir (r.workload ^ ".trace.json"))
      (Bench_io.Obj
         [
           ("traceEvents", Bench_io.List (List.map span_to_json r.spans));
           ("displayTimeUnit", Bench_io.String "ms");
         ])
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* Scratch space lives under the working directory's [_build], which git
   already ignores, never in /tmp; short relative paths keep unix socket
   names inside their length limit.  Emptied parents are removed too
   ([rmdir] leaves a non-empty one alone). *)
let scratch_root = Filename.concat "_build" ".benchmark-tmp"

let with_scratch label f =
  let dir = Filename.concat scratch_root (Printf.sprintf "%d-%s" (Unix.getpid ()) label) in
  mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      List.iter
        (fun d -> try Unix.rmdir d with Unix.Unix_error _ -> ())
        [ scratch_root; Filename.dirname scratch_root ])
    (fun () -> f dir)

exception Interrupted

(* SIGTERM/SIGINT unwind through [Fun.protect], so servers are reaped and
   scratch directories removed however the run ends. *)
let install_signal_handlers () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let raise_interrupted = Sys.Signal_handle (fun _ -> raise Interrupted) in
  Sys.set_signal Sys.sigterm raise_interrupted;
  Sys.set_signal Sys.sigint raise_interrupted
