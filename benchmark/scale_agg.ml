(* scale-agg: AGG on a streamed random-regular(4) graph through the
   partitioned executor.  The round kernel and per-node protocol state do
   nearly all the work; no service code runs.  N = 100k keeps the working
   set (~180 MiB) far beyond any cache, and at that size seeds 1-12 all
   give pseudo-diameter 9, so seeds change the graph but not the number
   of rounds (130).  At 200k, seeds 1-8 gave 9 or 10, that is 130 or 144
   rounds in about the same wall time, so rounds/s would follow the seed
   by ~7%. *)

open Common
module Bigraph = Ftagg.Bigraph
module Scale_run = Ftagg.Scale_run
module Executor = Ftagg.Scale_executor
module Mem = Ftagg.Scale_mem
module Agg = Ftagg.Agg
module Metrics = Ftagg.Metrics
module Failure = Ftagg.Failure
module Engine = Ftagg.Engine

let name = "scale-agg"
let spec = Bigraph.Random_regular 4
let nodes ~smoke = if smoke then 2_000 else 100_000
let setups = 3

type setup = {
  graph : Bigraph.t;
  params : Ftagg.Params.t;
  build_ns : int;
  validate_ns : int;
  params_ns : int;
}

(* Everything before the first AGG run: stream the edges into the CSR,
   validate it against the family's envelope, derive the parameters.
   Unit inputs keep the message width flat, as in e23. *)
let setup tally ~n ~seed =
  let t0 = now_ns () in
  let graph = Bigraph.build spec ~n ~seed in
  let t1 = now_ns () in
  let valid = Bigraph.validate ~spec graph in
  let t2 = now_ns () in
  let params = Scale_run.params ~graph ~inputs:(Array.make n 1) () in
  let t3 = now_ns () in
  (match valid with Ok () -> () | Error e -> fail tally ("invalid graph: " ^ e));
  { graph; params; build_ns = t1 - t0; validate_ns = t2 - t1; params_ns = t3 - t2 }

let setup_wall s = float_of_int (s.build_ns + s.validate_ns + s.params_ns) *. 1e-9
let expected s = Agg.Value (Scale_run.expected_sum s.params)
let failures s = Failure.none ~n:(Bigraph.n s.graph)

let sizes ~n =
  Bench_io.
    [
      ("graph", String (Bigraph.spec_name spec)); ("n", Int n); ("setups", Int setups);
      ("domains", Int 1);
    ]

let timed ~smoke ~seed ~seconds =
  let tally = tally () in
  let n = nodes ~smoke in
  let r = recorder () in
  let set_up () =
    Gc.full_major ();
    record_setup r (fun () -> setup tally ~n ~seed)
  in
  for _ = 2 to setups do
    ignore (set_up ())
  done;
  let s = set_up () in
  let expected = expected s and failures = failures s in
  let start = now_ns () in
  while r.work = 0. || seconds_since start < seconds do
    attempt tally;
    (* collect the previous run's states, so every run starts from the
       heap a fresh process would have and the peak RSS is one run's *)
    Gc.full_major ();
    let o, wall = timed_run (fun () -> Scale_run.agg ~graph:s.graph ~failures ~params:s.params ~seed ()) in
    check tally (o.Scale_run.result = expected) "AGG result differs from the input sum";
    add_work r ~work:(float_of_int o.Scale_run.rounds) ~wall;
    add_latency r wall
  done;
  result ~workload:name ~phase:Timed ~tally ~wall_s:(seconds_since start) ~sizes:(sizes ~n)
    (end_to_end r ~rss:(peak_rss_metric None))

type reference = {
  untraced_s : float;
  minor_words : float;
  rounds : int;
  cc : int;
  bits : int;
  peak_live : int;  (** the [Mem] meter's peak major-heap bytes *)
  state_bytes : int;
  params_bytes : int;
  metrics_bytes : int;
}

(* The untraced reference run, metered for memory.  Only scalars leave
   this function, so its states are garbage before the traced run. *)
let reference tally s ~seed =
  let n = Bigraph.n s.graph and word = Sys.word_size / 8 in
  Gc.compact ();
  let meter = Mem.create ~n () in
  let minor0 = Gc.minor_words () in
  let o, wall =
    timed_run (fun () -> Scale_run.agg ~meter ~graph:s.graph ~failures:(failures s) ~params:s.params ~seed ())
  in
  let minor_words = Gc.minor_words () -. minor0 in
  attempt tally;
  check tally (o.Scale_run.result = expected s) "untraced AGG result differs from the input sum";
  (* [Params] is shared by every node's state: count it once, as its own part *)
  let params_words = Obj.reachable_words (Obj.repr s.params) in
  {
    untraced_s = wall;
    minor_words;
    rounds = o.Scale_run.rounds;
    cc = Metrics.cc o.Scale_run.metrics;
    bits = Metrics.total_bits o.Scale_run.metrics;
    peak_live = Mem.peak_live_bytes meter;
    state_bytes = word * (Obj.reachable_words (Obj.repr (o.Scale_run.states, s.params)) - params_words);
    params_bytes = word * params_words;
    metrics_bytes = word * Obj.reachable_words (Obj.repr o.Scale_run.metrics);
  }

(* What the traced step wrapper keeps: the step's self time, the counts
   behind the executor's per-layer metrics, and per-round spans. *)
type book = {
  step_st : stage;
  mutable active : int;
  mutable deliveries : int;
  mutable round : int;
  mutable round_t0 : int;
  mutable round_steps : int;
  mutable round_active : int;
  mutable spans : span list;
}

let new_book () =
  {
    step_st = stage "agg.step"; active = 0; deliveries = 0; round = 0; round_t0 = 0;
    round_steps = 0; round_active = 0; spans = [];
  }

let close_round b t1 =
  if b.round > 0 then
    b.spans <-
      span ~name:(Printf.sprintf "round %d" b.round) ~cat:"executor" ~t0:b.round_t0 ~t1
        ~args:Bench_io.[ ("steps", Int b.round_steps); ("active", Int b.round_active) ]
        ()
      :: b.spans

let traced_step b step ~round ~me ~state ~inbox =
  let t0 = now_ns () in
  let ((_, out) as stepped) = step ~round ~me ~state ~inbox in
  stop b.step_st t0;
  if round <> b.round then begin
    close_round b t0;
    b.round <- round;
    b.round_t0 <- t0;
    b.round_steps <- 0;
    b.round_active <- 0
  end;
  b.round_steps <- b.round_steps + 1;
  b.deliveries <- b.deliveries + List.length inbox;
  if out <> [] then begin
    b.active <- b.active + 1;
    b.round_active <- b.round_active + 1
  end;
  stepped

(* The step wrapper's own cost, bookkeeping included, on a no-op step. *)
let calibrate_step () =
  let b = new_book () in
  let noop = Sys.opaque_identity (fun ~round:_ ~me:_ ~state ~inbox:_ -> (state, [])) in
  calibrate_wrapper b.step_st
    ~bare:(fun i -> ignore (Sys.opaque_identity (noop ~round:1 ~me:i ~state:i ~inbox:[])))
    ~wrapped:(fun i -> ignore (Sys.opaque_identity (traced_step b noop ~round:1 ~me:i ~state:i ~inbox:[])))

(* The traced phase runs the same execution twice: once through
   [Scale_run.agg] untouched (the reference, also metered for memory),
   once through [Executor.run] on [Scale_run.protocol] with [init], [step]
   and [msg_bits] wrapped in timers and counters. *)
let traced ~smoke ~seed =
  let tally = tally () in
  let n = nodes ~smoke in
  Gc.full_major ();
  let s = setup tally ~n ~seed in
  let expected = expected s and failures = failures s in
  let per_node bytes = float_of_int bytes /. float_of_int n in
  let r = reference tally s ~seed in
  let csr_bytes =
    Bigarray.kind_size_in_bytes Bigarray.int
    * (Bigarray.Array1.dim s.graph.Bigraph.offsets + Bigarray.Array1.dim s.graph.Bigraph.targets)
  in
  Gc.compact ();
  let cal = calibrate () and cal_step = calibrate_step () in
  let init_st = stage "executor.init" and bits_st = stage "executor.accounting" in
  let b = new_book () in
  let p = Scale_run.protocol s.params in
  let proto =
    {
      p with
      Engine.init =
        (fun u ~rng ->
          let t0 = now_ns () in
          let st = p.Engine.init u ~rng in
          stop init_st t0;
          st);
      step = traced_step b p.Engine.step;
      msg_bits =
        (fun m ->
          let t0 = now_ns () in
          let bits = p.Engine.msg_bits m in
          stop bits_st t0;
          bits);
    }
  in
  let (states, tmetrics), traced_s =
    timed_run (fun () ->
        Executor.run ~graph:s.graph ~failures ~max_rounds:(Agg.duration s.params) ~seed proto)
  in
  close_round b (now_ns ());
  (* a second untraced run after the traced one, so host drift between
     the two runs averages out of the comparison *)
  let _, after_s = timed_run (fun () -> Scale_run.agg ~graph:s.graph ~failures ~params:s.params ~seed ()) in
  attempt tally;
  check tally
    (Agg.root_result states.(Ftagg.Graph.root) = expected)
    "traced AGG result differs from the input sum";
  check tally
    (Metrics.rounds tmetrics = r.rounds
    && Metrics.cc tmetrics = r.cc
    && Metrics.total_bits tmetrics = r.bits)
    "traced run's rounds, cc or bits differ from the untraced run's";
  (* the traced wall with the wrappers' own cost removed: the ledger total *)
  let net_s =
    Float.max 1e-9
      (traced_s
      -. (float_of_int (init_st.calls + bits_st.calls) *. cal.outer_ns *. 1e-9)
      -. (float_of_int b.step_st.calls *. cal_step.outer_ns *. 1e-9))
  in
  let init_s = self_s cal init_st and step_s = self_s cal_step b.step_st and acc_s = self_s cal bits_st in
  let other_s = net_s -. init_s -. step_s -. acc_s in
  (* the untraced wall: the mean of the runs before and after the traced one *)
  let untraced_s = (r.untraced_s +. after_s) /. 2. in
  let setup_s = setup_wall s in
  let share x = x /. net_s in
  let node_steps = b.step_st.calls in
  result ~workload:name ~phase:Traced ~tally ~wall_s:traced_s ~sizes:(sizes ~n) ~spans:(List.rev b.spans)
    (trace_metrics ~untraced:untraced_s ~traced:traced_s cal
    @ [
      (* traced minus the wrappers' cost, against untraced *)
      metric "trace.ledger_error" "ratio" ((net_s /. untraced_s) -. 1.);
      metric "bigraph.build_s" "s" (float_of_int s.build_ns *. 1e-9);
      metric "bigraph.validate_s" "s" (float_of_int s.validate_ns *. 1e-9);
      metric "scale_run.params_s" "s" (float_of_int s.params_ns *. 1e-9);
      metric "bigraph.build_share" "share" (float_of_int s.build_ns *. 1e-9 /. setup_s);
      metric "bigraph.validate_share" "share" (float_of_int s.validate_ns *. 1e-9 /. setup_s);
      metric "scale_run.params_share" "share" (float_of_int s.params_ns *. 1e-9 /. setup_s);
      metric ~samples:init_st.calls "executor.init_s" "s" init_s;
      metric ~samples:node_steps "agg.step_s" "s" step_s;
      metric ~samples:bits_st.calls "executor.accounting_s" "s" acc_s;
      metric "executor.other_s" "s" other_s;
      metric "executor.init_share" "share" (share init_s);
      metric "agg.step_share" "share" (share step_s);
      metric "executor.accounting_share" "share" (share acc_s);
      metric "executor.other_share" "share" (share other_s);
      metric "executor.rounds" "count" (float_of_int r.rounds);
      metric "executor.node_steps" "count" (float_of_int node_steps);
      metric "executor.active_steps" "count" (float_of_int b.active);
      metric "executor.active_step_ratio" "ratio" (float_of_int b.active /. float_of_int node_steps);
      metric "executor.deliveries" "count" (float_of_int b.deliveries);
      metric "executor.bits" "count" (float_of_int r.bits);
      metric ~samples:r.rounds "executor.minor_words_per_round" "words"
        (r.minor_words /. float_of_int r.rounds);
      metric "mem.bytes_per_node" "B" (per_node r.peak_live);
      metric "mem.csr_bytes_per_node" "B" (per_node csr_bytes);
      metric "mem.state_bytes_per_node" "B" (per_node r.state_bytes);
      metric "mem.params_bytes_per_node" "B" (per_node r.params_bytes);
      metric "mem.metrics_bytes_per_node" "B" (per_node r.metrics_bytes);
      metric "mem.unattributed_bytes_per_node" "B"
        (per_node (r.peak_live - r.state_bytes - r.params_bytes - r.metrics_bytes));
    ])
