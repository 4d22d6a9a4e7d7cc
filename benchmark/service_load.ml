(* service-exec and service-cached: the shipped [ftagg serve] binary on a
   unix socket, driven by a closed loop on one connection.  Each batch is
   8 submits, one at a time, then one drain, so at most 8 jobs are in
   flight.  Jobs are 36-node grids, the size of the repository's own
   service measurement (E19 in EXPERIMENTS.md); at that size a 15 s phase
   completes ~1600 batches, enough for ten beyond the 99th percentile.

   service-exec sends only specs it has never sent, tenants a and b
   alternating: every job executes and is appended to the store, so job
   execution and store appends dominate.

   service-cached sends E19's mix: every spec is asked by three tenants,
   one after another, so two requests in three repeat the one before.
   Its 1024 specs are prefilled at set-up and then asked in turn.  1024
   is eight times the server's default 128-entry LRU, so each spec's
   first ask is served from the store (and promoted) and its two repeats
   from the LRU; no protocol runs, and framing, decoding, queueing, cache
   and store lookups and encoding dominate.  With batches of 8, 14
   requests in 24 repeat a spec still in flight in the same batch. *)

open Common
module Job = Ftagg.Service.Job
module Cache = Ftagg.Service.Cache
module Reconfig = Ftagg.Service.Reconfig
module Store = Ftagg.Store
module Frame = Ftagg.Transport.Frame

type kind = Exec | Cached

let name = function Exec -> "service-exec" | Cached -> "service-cached"
let batch_size = 8
let setups = 3
(* Eight batches: spawning the server alone takes a few milliseconds,
   too little to time steadily. *)
let warmup_jobs = 64
let grid_n ~smoke = if smoke then 16 else 36
let cached_specs ~smoke = if smoke then 64 else 1024

(* The server keeps every completion (and a telemetry event for it), so
   its memory grows with the jobs it has served: peak RSS is read once the
   timed phase has sent this many jobs, which makes it independent of how
   fast they were served.  The end of the phase, if that comes first. *)
let rss_probe_jobs ~kind ~smoke =
  match kind with Exec -> if smoke then 8 else 1024 | Cached -> if smoke then 64 else 65536

(* Requests in the traced phase's loader run. *)
let traced_requests ~smoke = function
  | Exec -> if smoke then 16 else 1024
  | Cached -> if smoke then 128 else 8192

let settings = Reconfig.default

(* Tenants asking for each spec in turn, as in E19. *)
let fanout = function Exec -> 1 | Cached -> 3

(* A request: spec [k] of this run asked by [tenant], as one submit line. *)
type request = { k : int; line : string }

let request ~smoke ~seed ~tenant k =
  {
    k;
    line =
      Printf.sprintf {|{"op":"submit","job":{"family":"grid","n":%d,"seed":%d,"tenant":"%s"}}|}
        (grid_n ~smoke) ((seed * 10_000_000) + k) tenant;
  }

(* Spec numbering: exec warm-ups take k < 1000 (64 per set-up), timed
   and traced jobs count up from 1000; cached specs are 0 .. m-1. *)
let first_warm_k ~kind r = match kind with Exec -> r * warmup_jobs | Cached -> 0
let first_job_k = 1000

(* Request [i] of a timed or traced phase. *)
let nth_request ~kind ~smoke ~seed i =
  match kind with
  | Exec -> request ~smoke ~seed ~tenant:(if i mod 2 = 0 then "a" else "b") (first_job_k + i)
  | Cached ->
    let f = fanout kind in
    request ~smoke ~seed ~tenant:(Printf.sprintf "t%d" (i mod f)) (i / f mod cached_specs ~smoke)

(* The share of requests that repeat a spec sent earlier in the same
   batch, which has not completed yet: counted over one period of the
   request pattern. *)
let inflight_duplicate_share ~kind =
  let period = fanout kind * batch_size in
  let spec i = (nth_request ~kind ~smoke:false ~seed:1 i).k in
  let repeats i = List.exists (fun d -> spec (i - d) = spec i) (List.init (i mod batch_size) succ) in
  float_of_int (List.length (List.filter repeats (List.init period Fun.id))) /. float_of_int period

let spec_of_line line =
  match Bench_io.of_string line with
  | Error e -> Error e
  | Ok json -> (
    match Bench_io.member "job" json with
    | None -> Error "no job"
    | Some job -> Job.of_json ~settings job)

(* ---- the closed loop ---- *)

type job = {
  req : request;
  value : int option;
  latency_s : float;  (** submit write to the drain response listing the job *)
  submit_rtt_s : float;
}

type loop = {
  mutable jobs : job list;  (** completed correctly, newest first *)
  mutable drain_rtts : float list;
  mutable lost : bool;  (** the connection died; the loop stops *)
}

let new_loop () = { jobs = []; drain_rtts = []; lost = false }

let completion_of json =
  let open Bench_io in
  let id = Option.bind (member "id" json) to_string_v in
  let cached = Option.bind (member "cached" json) to_bool in
  let outcome = member "outcome" json in
  let correct = Option.bind (Option.bind outcome (member "correct")) to_bool in
  let value = Option.bind (Option.bind outcome (member "value")) to_int in
  (id, cached, correct, value)

(* One batch: submit each request, then drain; every job is an attempted
   operation and fails unless it comes back correct, with the expected
   [cached] flag.  Returns the batch's correct jobs. *)
let run_batch tally conn loop ~expect_cached reqs =
  let lose e =
    loop.lost <- true;
    fail tally (Loader.error_message e)
  in
  let rec submit acc = function
    | [] -> List.rev acc
    | req :: rest -> (
      attempt tally;
      let t0 = now_ns () in
      match Loader.request conn req.line with
      | Ok json -> (
        match Option.bind (Bench_io.member "id" json) Bench_io.to_string_v with
        | Some id -> submit ((id, req, t0, seconds_since t0) :: acc) rest
        | None ->
          fail tally "submit response without an id";
          submit acc rest)
      | Error (Loader.Refused _ as e) ->
        fail tally (Loader.error_message e);
        submit acc rest
      | Error e ->
        lose e;
        List.rev acc)
  in
  let pending = submit [] reqs in
  if pending = [] || loop.lost then []
  else
    let t0 = now_ns () in
    match Loader.request conn {|{"op":"drain"}|} with
    | Error e ->
      List.iter (fun _ -> fail tally "job lost with its drain") pending;
      (match e with Loader.Lost _ -> lose e | Loader.Refused _ -> ());
      []
    | Ok json ->
      let t1 = now_ns () in
      loop.drain_rtts <- (float_of_int (t1 - t0) *. 1e-9) :: loop.drain_rtts;
      let completions =
        List.map completion_of
          (Option.value ~default:[] (Option.bind (Bench_io.member "completed" json) Bench_io.to_list))
      in
      List.filter_map
        (fun (id, req, ts, submit_rtt_s) ->
          match List.find_opt (fun (cid, _, _, _) -> cid = Some id) completions with
          | None ->
            fail tally (Printf.sprintf "job %s missing from its drain" id);
            None
          | Some (_, cached, correct, value) ->
            if correct <> Some true then begin
              fail tally (Printf.sprintf "job %s: outcome not correct" id);
              None
            end
            else if cached <> Some expect_cached then begin
              fail tally (Printf.sprintf "job %s: cached is not %b" id expect_cached);
              None
            end
            else Some { req; value; latency_s = float_of_int (t1 - ts) *. 1e-9; submit_rtt_s })
        pending

(* Drive batches of [next i] requests while [continue batches_sent];
   with a [recorder], each batch counts as timed work. *)
let drive ?recorder tally conn ~expect_cached ~next ~continue =
  let loop = new_loop () in
  let batches = ref 0 in
  while (not loop.lost) && continue !batches do
    let reqs = List.init batch_size (fun i -> next ((!batches * batch_size) + i)) in
    let jobs, wall = timed_run (fun () -> run_batch tally conn loop ~expect_cached reqs) in
    Option.iter
      (fun r ->
        add_work r ~work:(float_of_int (List.length jobs)) ~wall;
        List.iter (fun j -> add_latency r j.latency_s) jobs)
      recorder;
    loop.jobs <- List.rev_append jobs loop.jobs;
    incr batches
  done;
  loop

let batches_of n sent = sent * batch_size < n

(* ---- set-up ---- *)

(* What a set-up sent, so the traced replay can rebuild the server's
   cache and store state, and the value the server returned per spec. *)
type warm = { history : request array; values : (int, int option) Hashtbl.t }

(* service-exec warms up with specs no other phase sends;
   service-cached prefills every spec it will ask for. *)
let warm_up tally conn ~kind ~smoke ~seed ~first_k =
  let count = match kind with Exec -> warmup_jobs | Cached -> cached_specs ~smoke in
  let history = Array.init count (fun i -> request ~smoke ~seed ~tenant:"a" (first_k + i)) in
  let loop =
    drive tally conn ~expect_cached:false ~next:(fun i -> history.(i)) ~continue:(batches_of count)
  in
  let values = Hashtbl.create count in
  List.iter (fun j -> Hashtbl.replace values j.req.k j.value) loop.jobs;
  { history; values }

let sizes ~kind ~smoke =
  Bench_io.
    [
      ("family", String "grid"); ("n", Int (grid_n ~smoke)); ("batch", Int batch_size);
      ("connections", Int 1); ("setups", Int setups);
      ("cache_capacity", Int settings.Reconfig.cache_capacity); ("tenants_per_spec", Int (fanout kind));
      ("inflight_duplicate_share", Float (inflight_duplicate_share ~kind));
    ]
  @
  match kind with
  | Exec -> [ ("warmup_jobs", Bench_io.Int warmup_jobs) ]
  | Cached -> [ ("specs", Bench_io.Int (cached_specs ~smoke)) ]

(* Re-execute a few specs in-process and compare with what the server
   answered: [Job.execute] is a pure function of the spec. *)
let verify_sample tally ~label pairs =
  let pairs = Array.of_list pairs in
  let m = Array.length pairs in
  let picks = min 16 m in
  for i = 0 to picks - 1 do
    let line, value = pairs.(i * m / picks) in
    match spec_of_line line with
    | Error e -> fail tally ("cannot re-read a request: " ^ e)
    | Ok spec ->
      check tally
        ((Job.execute spec).Job.outcome.Job.value = value)
        (Printf.sprintf "%s value differs from an in-process Job.execute" label)
  done

let timed ~kind ~smoke ~seed ~seconds ~exe ~dir =
  let tally = tally () in
  let r = recorder () in
  (* set-up: spawn until the server accepts, then the warm-up or prefill *)
  let with_warm_server k f =
    let t0 = now_ns () in
    Loader.with_server ~exe ~dir:(Filename.concat dir (Printf.sprintf "server-%d" k)) (fun server conn ->
        let w = warm_up tally conn ~kind ~smoke ~seed ~first_k:(first_warm_k ~kind k) in
        add_setup r (seconds_since t0);
        f server conn w)
  in
  for k = 1 to setups - 1 do
    match with_warm_server k (fun _ _ _ -> ()) with Ok () -> () | Error e -> fail tally e
  done;
  let run server conn w =
    let next = nth_request ~kind ~smoke ~seed in
    let rss = ref None in
    let read_rss () = if !rss = None then rss := peak_rss_metric (Some server.Loader.pid) in
    let start = now_ns () in
    let loop =
      drive ~recorder:r tally conn ~expect_cached:(kind = Cached) ~next ~continue:(fun batches ->
          if batches * batch_size >= rss_probe_jobs ~kind ~smoke then read_rss ();
          seconds_since start < seconds)
    in
    let wall_s = seconds_since start in
    read_rss ();
    (loop, wall_s, !rss, w)
  in
  match with_warm_server setups run with
  | Error e ->
    fail tally e;
    result ~workload:(name kind) ~phase:Timed ~tally ~wall_s:0. ~sizes:(sizes ~kind ~smoke) []
  | Ok (loop, wall_s, rss, w) ->
    (match kind with
    | Exec -> verify_sample tally ~label:"a job's" (List.map (fun j -> (j.req.line, j.value)) loop.jobs)
    | Cached ->
      List.iter
        (fun j ->
          check tally
            (Hashtbl.find_opt w.values j.req.k = Some j.value)
            "a cached answer differs from the prefill's")
        loop.jobs;
      verify_sample tally ~label:"a prefill"
        (List.filter_map
           (fun q -> Option.map (fun v -> (q.line, v)) (Hashtbl.find_opt w.values q.k))
           (Array.to_list w.history)));
    result ~workload:(name kind) ~phase:Timed ~tally ~wall_s ~sizes:(sizes ~kind ~smoke)
      (end_to_end r ~rss)

(* ---- traced phase ---- *)

(* The server's own counters, from its [status] and [metrics] ops. *)
type counters = {
  cache_hits : int;
  cache_misses : int;
  store_hits : int;
  store_misses : int;
  store_appends : int;
  bytes_in : int;
  bytes_out : int;
}

let counters tally conn =
  let rec int_at path json =
    match path with
    | [] -> Option.value ~default:0 (Bench_io.to_int json)
    | k :: rest -> Option.fold ~none:0 ~some:(int_at rest) (Bench_io.member k json)
  in
  let prom_counter text name =
    List.find_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ k; v ] when k = name -> int_of_string_opt v
        | _ -> None)
      (String.split_on_char '\n' text)
    |> Option.value ~default:0
  in
  match (Loader.request conn {|{"op":"status"}|}, Loader.request conn {|{"op":"metrics"}|}) with
  | Ok status, Ok metrics ->
    let prom =
      Option.value ~default:"" (Option.bind (Bench_io.member "prometheus" metrics) Bench_io.to_string_v)
    in
    {
      cache_hits = int_at [ "cache"; "hits" ] status;
      cache_misses = int_at [ "cache"; "misses" ] status;
      store_hits = int_at [ "store"; "hits" ] status;
      store_misses = int_at [ "store"; "misses" ] status;
      store_appends = int_at [ "store"; "appends" ] status;
      bytes_in = prom_counter prom "transport_bytes_in_total";
      bytes_out = prom_counter prom "transport_bytes_out_total";
    }
  | Error e, _ | _, Error e ->
    fail tally ("status/metrics: " ^ Loader.error_message e);
    {
      cache_hits = 0; cache_misses = 0; store_hits = 0; store_misses = 0; store_appends = 0;
      bytes_in = 0; bytes_out = 0;
    }

(* The replay's stages, in the order a submit line meets them. *)
type stages = {
  feed : stage;  (** [Frame.feed_string] *)
  parse : stage;  (** [Bench_io.of_string] *)
  decode : stage;  (** [Job.of_json] *)
  key : stage;  (** [Job.cache_key] *)
  cache : stage;  (** [Cache.find], and [Cache.add] after an execution *)
  store_find : stage;  (** [Store.find] + [Job.outcome_of_json], promoting a hit into the LRU *)
  execute : stage;  (** [Job.execute] *)
  store_add : stage;  (** [Job.outcome_to_json] + [Store.add] *)
  encode : stage;  (** [Job.outcome_to_json] + [Bench_io.to_string] *)
}

let new_stages () =
  let st = stage ~keep:true in
  {
    feed = st "frame.feed"; parse = st "job.parse"; decode = st "job.decode"; key = st "job.cache_key";
    cache = st "cache.find"; store_find = st "store.find"; execute = st "job.execute";
    store_add = st "store.add"; encode = st "job.encode";
  }

let stage_list s =
  [ s.feed; s.parse; s.decode; s.key; s.cache; s.store_find; s.execute; s.store_add; s.encode ]

type replay = {
  r_wall_ns : int;  (** the measured requests only *)
  r_values : int option array;  (** per measured request *)
  r_hits : int;  (** LRU hits over the measured requests *)
  r_lookups : int;
  r_spans : span list;
}

(* The same request lines through the public functions, in-process: a
   framer, the JSON reader, the job decoder, an LRU of the server's
   capacity and a private store, as the server meets them.  [history]
   rebuilds the server's state untimed; [stages], when given, times every
   call on the [measured] requests. *)
let replay tally ~dir ?stages ~history measured =
  match Store.open_ ~dir () with
  | Error e ->
    fail tally ("replay store: " ^ e);
    None
  | Ok store ->
    Fun.protect
      ~finally:(fun () -> Store.close store)
      (fun () ->
        let lru = Cache.create ~capacity:settings.Reconfig.cache_capacity () in
        let framer = Frame.create ~max_line:65536 in
        let spans = ref [] in
        let serve ~timing i req =
          let time pick f =
            match stages with
            | Some s when timing ->
              let st = pick s in
              let t0 = now_ns () in
              let v = f () in
              stop st t0;
              spans :=
                span ~name:st.stage_name ~cat:"service" ~t0 ~t1:(now_ns ())
                  ~args:[ ("request", Bench_io.Int i) ] ()
                :: !spans;
              v
            | _ -> f ()
          in
          let wire = req.line ^ "\n" in
          match time (fun s -> s.feed) (fun () -> Frame.feed_string framer wire) with
          | [ Frame.Line line ] -> (
            match time (fun s -> s.parse) (fun () -> Bench_io.of_string line) with
            | Error e -> Error e
            | Ok json -> (
              match
                time (fun s -> s.decode) (fun () ->
                    match Bench_io.member "job" json with
                    | Some job -> Job.of_json ~settings job
                    | None -> Error "no job")
              with
              | Error e -> Error e
              | Ok spec ->
                let key = time (fun s -> s.key) (fun () -> Job.cache_key spec) in
                let outcome =
                  match time (fun s -> s.cache) (fun () -> Cache.find lru key) with
                  | Some o -> o
                  | None -> (
                    match
                      time (fun s -> s.store_find) (fun () ->
                          match Option.map Job.outcome_of_json (Store.find store key) with
                          | Some (Ok o) ->
                            Cache.add lru key o;
                            Some o
                          | _ -> None)
                    with
                    | Some o -> o
                    | None ->
                      let o = (time (fun s -> s.execute) (fun () -> Job.execute spec)).Job.outcome in
                      time (fun s -> s.store_add) (fun () -> Store.add store key (Job.outcome_to_json o));
                      time (fun s -> s.cache) (fun () -> Cache.add lru key o);
                      o)
                in
                ignore
                  (time (fun s -> s.encode) (fun () ->
                       Bench_io.to_string ~indent:false (Job.outcome_to_json outcome)));
                Ok outcome.Job.value))
          | _ -> Error "the framer did not return exactly one line"
        in
        let serve_checked ~timing i req =
          match serve ~timing i req with
          | Ok v -> v
          | Error e ->
            fail tally ("replay: " ^ e);
            None
        in
        Array.iteri (fun i r -> ignore (serve_checked ~timing:false i r)) history;
        let before = Cache.stats lru in
        let t0 = now_ns () in
        let values = Array.mapi (serve_checked ~timing:true) measured in
        let wall = now_ns () - t0 in
        let after = Cache.stats lru in
        let hits = after.Cache.hits - before.Cache.hits in
        Some
          {
            r_wall_ns = wall;
            r_values = values;
            r_hits = hits;
            r_lookups = hits + after.Cache.misses - before.Cache.misses;
            r_spans = List.rev !spans;
          })

let traced ~kind ~smoke ~seed ~exe ~dir =
  let tally = tally () in
  let n_req = traced_requests ~smoke kind in
  let measured = Array.init n_req (nth_request ~kind ~smoke ~seed) in
  let served =
    Loader.with_server ~exe ~dir:(Filename.concat dir "server") (fun _server conn ->
        let w = warm_up tally conn ~kind ~smoke ~seed ~first_k:(first_warm_k ~kind 1) in
        let before = counters tally conn in
        let t0 = now_ns () in
        let loop =
          drive tally conn ~expect_cached:(kind = Cached) ~next:(fun i -> measured.(i))
            ~continue:(batches_of n_req)
        in
        let loader_s = seconds_since t0 in
        (w, loop, loader_s, before, counters tally conn))
  in
  let sizes = sizes ~kind ~smoke @ [ ("traced_requests", Bench_io.Int n_req) ] in
  match served with
  | Error e ->
    fail tally e;
    result ~workload:(name kind) ~phase:Traced ~tally ~wall_s:0. ~sizes []
  | Ok (w, loop, loader_s, before, after) -> (
    let untraced = replay tally ~dir:(Filename.concat dir "replay-untraced") ~history:w.history measured in
    let cal = calibrate () in
    let stages = new_stages () in
    let traced = replay tally ~dir:(Filename.concat dir "replay-traced") ~stages ~history:w.history measured in
    match (untraced, traced) with
    | None, _ | _, None -> result ~workload:(name kind) ~phase:Traced ~tally ~wall_s:0. ~sizes []
    | Some u, Some t ->
      let jobs = List.length loop.jobs in
      let by_k = Hashtbl.create jobs in
      List.iter (fun j -> Hashtbl.replace by_k j.req.k j.value) loop.jobs;
      Array.iteri
        (fun i r ->
          attempt tally;
          check tally
            (Hashtbl.find_opt by_k r.k = Some t.r_values.(i) && u.r_values.(i) = t.r_values.(i))
            "a replayed value differs from the server's")
        measured;
      let d f = f after - f before in
      let server_hits = d (fun c -> c.cache_hits) in
      let server_lookups = server_hits + d (fun c -> c.cache_misses) in
      check tally
        (server_hits = t.r_hits && server_lookups = t.r_lookups)
        (Printf.sprintf "replayed LRU hits %d/%d differ from the server's %d/%d" t.r_hits t.r_lookups
           server_hits server_lookups);
      let per_job x = float_of_int x /. float_of_int (max 1 jobs) in
      let loader_mean = loader_s /. float_of_int (max 1 jobs) in
      let stage_mean st = self_s cal st /. float_of_int n_req in
      let p_us st q = (percentile q (durations_s st) *. 1e6) -. (cal.inner_ns *. 1e-3) in
      let stage_metrics st =
        metric (st.stage_name ^ "_share") "share" (stage_mean st /. loader_mean)
        ::
        (if st.calls = 0 then []
         else if st == stages.execute then
           [
             metric ~samples:st.calls "job.execute_ms" "ms" (p_us st 50. /. 1000.);
             metric ~samples:st.calls "job.execute_p99_ms" "ms" (p_us st 99. /. 1000.);
           ]
         else [ metric ~samples:st.calls (st.stage_name ^ "_us") "us" (p_us st 50.) ])
      in
      let unattributed =
        loader_mean -. List.fold_left (fun acc st -> acc +. stage_mean st) 0. (stage_list stages)
      in
      let submit_rtts = List.map (fun j -> j.submit_rtt_s) loop.jobs in
      let drains = List.length loop.drain_rtts in
      let wall_s = float_of_int t.r_wall_ns *. 1e-9 in
      result ~workload:(name kind) ~phase:Traced ~tally ~wall_s ~sizes ~spans:t.r_spans
        (trace_metrics ~untraced:(float_of_int u.r_wall_ns *. 1e-9) ~traced:wall_s cal
        @ [
           metric ~samples:jobs "client.submit_rtt_p50_us" "us" (1e6 *. percentile 50. submit_rtts);
           metric ~samples:jobs "client.submit_rtt_p99_us" "us" (1e6 *. percentile 99. submit_rtts);
           metric ~samples:drains "client.drain_rtt_p50_ms" "ms" (1e3 *. percentile 50. loop.drain_rtts);
           metric ~samples:drains "client.drain_rtt_p99_ms" "ms" (1e3 *. percentile 99. loop.drain_rtts);
           metric ~samples:jobs "client.job_ms" "ms" (1e3 *. loader_mean);
           metric ~samples:server_lookups "cache.hit_ratio" "ratio"
             (float_of_int server_hits /. float_of_int (max 1 server_lookups));
           metric "store.hits" "count" (float_of_int (d (fun c -> c.store_hits)));
           metric "store.misses" "count" (float_of_int (d (fun c -> c.store_misses)));
           metric "store.appends" "count" (float_of_int (d (fun c -> c.store_appends)));
           metric "frame.bytes_in_per_job" "B" (per_job (d (fun c -> c.bytes_in)));
           metric "frame.bytes_out_per_job" "B" (per_job (d (fun c -> c.bytes_out)));
           metric "scheduler.unattributed_ms" "ms" (1e3 *. unattributed);
           metric "scheduler.unattributed_share" "share" (unattributed /. loader_mean);
         ]
        @ List.concat_map stage_metrics (stage_list stages)))
