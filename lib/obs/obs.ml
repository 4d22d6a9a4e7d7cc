module Bench_io = Ftagg_runner.Bench_io

type event = {
  ev_kind : string;
  ev_round : int;
  ev_node : int;
  ev_fields : (string * Bench_io.json) list;
}

type t = {
  obs_name : string;
  obs_registry : Registry.t;
  obs_spans : Span.t;
  mutable rev_events : event list;
}

let create ?(name = "run") () =
  { obs_name = name; obs_registry = Registry.create (); obs_spans = Span.create (); rev_events = [] }

let name t = t.obs_name
let registry t = t.obs_registry
let spans t = t.obs_spans
let events t = List.rev t.rev_events

let event t ~kind ?(round = -1) ?(node = -1) fields =
  if Registry.enabled () then
    t.rev_events <- { ev_kind = kind; ev_round = round; ev_node = node; ev_fields = fields }
                    :: t.rev_events

let on_round t r =
  if Registry.enabled () then begin
    Span.set_round t.obs_spans r;
    Registry.incr t.obs_registry "ftagg_rounds_total" 1
  end

(* The fallback label for bits charged while the sender has no open span
   (e.g. a protocol without Span annotations, or the teardown round of a
   Tradeoff interval).  Keeping them in a visible bucket is what makes
   "per-phase totals sum to Metrics.total_bits" an invariant rather than
   an approximation. *)
let no_phase = "(none)"

let on_broadcast t ~round ~node ~msgs ~bits =
  if Registry.enabled () then begin
    let phase = Option.value (Span.current_phase t.obs_spans ~node) ~default:no_phase in
    let labels = [ ("phase", phase) ] in
    Registry.incr t.obs_registry ~labels "ftagg_bits_total" bits;
    Registry.incr t.obs_registry ~labels "ftagg_broadcasts_total" 1;
    Registry.observe t.obs_registry ~labels "ftagg_broadcast_bits" (float_of_int bits);
    Span.charge t.obs_spans ~node bits;
    event t ~kind:"broadcast" ~round ~node
      [ ("phase", Bench_io.String phase); ("msgs", Bench_io.Int msgs);
        ("bits", Bench_io.Int bits) ]
  end

let on_violation t ~round ~invariant ~detail =
  if Registry.enabled () then begin
    Registry.incr t.obs_registry ~labels:[ ("invariant", invariant) ]
      "ftagg_violations_total" 1;
    event t ~kind:"violation" ~round
      [ ("invariant", Bench_io.String invariant); ("detail", Bench_io.String detail) ]
  end

let finish t = Span.close_all t.obs_spans

let phase_bits t =
  List.map
    (fun (labels, v) ->
      let phase = match List.assoc_opt "phase" labels with Some p -> p | None -> no_phase in
      (phase, v))
    (Registry.counter_series t.obs_registry "ftagg_bits_total")
  |> List.sort compare
