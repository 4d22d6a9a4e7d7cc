(* The fleet-aware client: fan a workload of job specs out over N server
   endpoints by consistent-hash routing on the content digest, drive
   every endpoint through the resilient session machinery (reconnects,
   jittered backoff, idempotent resubmit), fail jobs over to ring
   successors when an endpoint dies mid-run, and merge the per-endpoint
   outcomes and cache metrics into one report.

   Concurrency: with no [pump], each endpoint of a round is driven by
   its own domain (true parallel fan-out across server processes); with
   a [pump] callback the endpoints are driven sequentially on the
   calling thread, the pump keeping in-process listeners alive — the
   deterministic mode tests use.

   Placement keys on the digest computed client-side from default
   settings.  Servers recompute their own digest for caching; the client
   one only has to be deterministic, so every fleet member routes the
   same job the same way. *)

module Bench_io = Ftagg_runner.Bench_io
module Job = Ftagg_service.Job
module Reconfig = Ftagg_service.Reconfig
module Listener = Ftagg_transport.Listener
module Client = Ftagg_transport.Client

type report = {
  r_jobs : int;
  r_completed : int;  (* jobs that got a completion response *)
  r_failed : int;  (* jobs with no response from any endpoint *)
  r_errors : int;  (* completions whose outcome is an error *)
  r_cached : int;  (* completions served from a cache (L1 or store) *)
  r_rounds : int;  (* routing rounds (1 = no failover needed) *)
  r_failovers : int;  (* jobs re-routed after an endpoint died *)
  r_reconnects : int;
  r_per_endpoint : (string * int) list;  (* completions per endpoint *)
  r_cache_hits : int;  (* summed over surviving endpoints' status *)
  r_cache_misses : int;
  r_completions : (int * Bench_io.json) list;  (* job index -> completion *)
}

let report_to_json r =
  Bench_io.Obj
    [
      ("jobs", Bench_io.Int r.r_jobs);
      ("completed", Bench_io.Int r.r_completed);
      ("failed", Bench_io.Int r.r_failed);
      ("errors", Bench_io.Int r.r_errors);
      ("cached", Bench_io.Int r.r_cached);
      ("rounds", Bench_io.Int r.r_rounds);
      ("failovers", Bench_io.Int r.r_failovers);
      ("reconnects", Bench_io.Int r.r_reconnects);
      ( "per_endpoint",
        Bench_io.Obj (List.map (fun (e, n) -> (e, Bench_io.Int n)) r.r_per_endpoint) );
      ("cache_hits", Bench_io.Int r.r_cache_hits);
      ("cache_misses", Bench_io.Int r.r_cache_misses);
    ]

(* ---- one endpoint, one round ---- *)

type drive_result = {
  d_endpoint : string;
  d_completions : (int * Bench_io.json) list;
  d_leftover : int list;  (* job indices to fail over: endpoint died *)
  d_rejected : (int * string) list;  (* permanent refusals (bad job, auth) *)
  d_dead : bool;
  d_reconnects : int;
  d_cache_hits : int;
  d_cache_misses : int;
}

let obj_field json key = Bench_io.member key json

let submit_line job =
  Bench_io.to_string ~indent:false
    (Bench_io.Obj [ ("op", Bench_io.String "submit"); ("job", job) ])

let drain_line = {|{"op": "drain"}|}
let status_line = {|{"op": "status"}|}

(* How many submits ride between drains: keeps the fan-out below any
   sane queue capacity without a per-server configuration handshake. *)
let chunk = 16

let drive ?token ?tenant ~retry ?pump endpoint jobs =
  let dead = ref false in
  let completions = ref [] in
  let rejected = ref [] in
  let outstanding = Hashtbl.create 16 in  (* server job id -> our index *)
  let unsubmitted = ref jobs in
  let reconnects = ref 0 in
  let cache_hits = ref 0 and cache_misses = ref 0 in
  (match Listener.address_of_string endpoint with
  | Error e ->
    rejected := List.map (fun (idx, _, _) -> (idx, "bad endpoint: " ^ e)) jobs;
    unsubmitted := []
  | Ok address ->
    let s = Client.session ?token ?tenant ~retry ?pump address in
    let request line =
      match Client.srequest s line with
      | Ok response -> Some response
      | Error (Client.Refused _) | Error (Client.Exhausted _) ->
        dead := true;
        None
    in
    let collect_drain () =
      match request drain_line with
      | None -> ()
      | Some response -> (
        match Bench_io.of_string response with
        | Error _ -> ()
        | Ok json -> (
          match obj_field json "completed" with
          | Some (Bench_io.List items) ->
            List.iter
              (fun item ->
                match obj_field item "id" with
                | Some (Bench_io.String id) -> (
                  match Hashtbl.find_opt outstanding id with
                  | Some idx ->
                    Hashtbl.remove outstanding id;
                    completions := (idx, item) :: !completions
                  | None -> ())
                | _ -> ())
              items
          | _ -> ()))
    in
    let rec submit_one ?(retried = false) ((idx, job, _digest) as entry) =
      match request (submit_line job) with
      | None -> ()
      | Some response -> (
        match Bench_io.of_string response with
        | Error e -> rejected := (idx, "unparseable response: " ^ e) :: !rejected
        | Ok json -> (
          match (obj_field json "ok", obj_field json "id") with
          | Some (Bench_io.Bool true), Some (Bench_io.String id) ->
            Hashtbl.replace outstanding id idx
          | _ -> (
            match obj_field json "error" with
            | Some (Bench_io.String "backpressure") when not retried ->
              (* The queue is full: flush it and try once more. *)
              collect_drain ();
              if not !dead then submit_one ~retried:true entry
            | Some (Bench_io.String e) -> rejected := (idx, e) :: !rejected
            | _ -> rejected := (idx, "malformed response") :: !rejected)))
    in
    let rec pump_jobs n = function
      | [] -> unsubmitted := []
      | rest when !dead -> unsubmitted := rest
      | entry :: rest ->
        submit_one entry;
        if !dead then
          (* the endpoint died under this very submit: no id was ever
             registered, so the entry must ride the failover list too *)
          unsubmitted := entry :: rest
        else if n + 1 >= chunk then begin
          collect_drain ();
          pump_jobs 0 rest
        end
        else pump_jobs (n + 1) rest
    in
    pump_jobs 0 jobs;
    if not !dead then collect_drain ();
    (* One more drain picks up idempotent resubmits that landed after the
       first drain answered. *)
    if (not !dead) && Hashtbl.length outstanding > 0 then collect_drain ();
    if not !dead then begin
      match request status_line with
      | None -> ()
      | Some response -> (
        match Bench_io.of_string response with
        | Error _ -> ()
        | Ok json -> (
          match obj_field json "cache" with
          | Some cache ->
            let geti k =
              match Option.bind (obj_field cache k) Bench_io.to_int with
              | Some v -> v
              | None -> 0
            in
            cache_hits := geti "hits";
            cache_misses := geti "misses"
          | None -> ()))
    end;
    reconnects := Client.reconnects s;
    Client.sclose s);
  let leftover =
    List.filter_map
      (fun (idx, _, _) ->
        let answered = List.exists (fun (i, _) -> i = idx) !completions in
        let refused = List.exists (fun (i, _) -> i = idx) !rejected in
        if answered || refused then None else Some idx)
      !unsubmitted
    @ Hashtbl.fold (fun _ idx acc -> idx :: acc) outstanding []
  in
  {
    d_endpoint = endpoint;
    d_completions = !completions;
    d_leftover = List.sort_uniq compare leftover;
    d_rejected = !rejected;
    d_dead = !dead;
    d_reconnects = !reconnects;
    d_cache_hits = !cache_hits;
    d_cache_misses = !cache_misses;
  }

(* ---- the fan-out ---- *)

let max_rounds = 4

let run ?token ?tenant ?(retry = Client.retry ()) ?pump ~endpoints ~jobs () =
  if endpoints = [] then Error "fleet: no endpoints"
  else begin
    let ring = Ring.create endpoints in
    let router = Router.create ring in
    let n_jobs = List.length jobs in
    let results : (int, Bench_io.json) Hashtbl.t = Hashtbl.create (max 16 n_jobs) in
    let refusals : (int, string) Hashtbl.t = Hashtbl.create 4 in
    let per_endpoint : (string, int) Hashtbl.t = Hashtbl.create 4 in
    let reconnects = ref 0 in
    let cache = Hashtbl.create 4 in  (* endpoint -> (hits, misses), last seen *)
    (* Jobs that fail client-side digest computation are refused up
       front: they could never route deterministically. *)
    let routable =
      List.concat
        (List.mapi
           (fun idx job ->
             match Job.of_json ~settings:Reconfig.default job with
             | Ok spec -> [ (idx, job, Job.digest spec) ]
             | Error e ->
               Hashtbl.replace refusals idx e;
               [])
           jobs)
    in
    let pending = ref routable in
    let rounds = ref 0 in
    let failovers = ref 0 in
    while !pending <> [] && Router.up_endpoints router <> [] && !rounds < max_rounds do
      incr rounds;
      if !rounds > 1 then begin
        failovers := !failovers + List.length !pending;
        (* A failover round means somebody just died: probe the rest
           before routing, so a successor that is also gone is skipped
           outright instead of burning a whole retry budget on it. *)
        List.iter
          (fun ep ->
            match Listener.address_of_string ep with
            | Ok address when not (Client.probe address) -> Router.mark_down router ep
            | _ -> ())
          (Router.up_endpoints router)
      end;
      (* Group this round's jobs by their first live routed endpoint. *)
      let groups : (string, (int * Bench_io.json * string) list ref) Hashtbl.t =
        Hashtbl.create 8
      in
      List.iter
        (fun ((_, _, digest) as entry) ->
          match Router.route_up router digest with
          | None -> ()
          | Some endpoint -> (
            match Hashtbl.find_opt groups endpoint with
            | Some l -> l := entry :: !l
            | None -> Hashtbl.add groups endpoint (ref [ entry ])))
        !pending;
      let assignments =
        Hashtbl.fold (fun endpoint l acc -> (endpoint, List.rev !l) :: acc) groups []
        |> List.sort compare
      in
      let drive_one (endpoint, group) = drive ?token ?tenant ~retry ?pump endpoint group in
      let round_results =
        match pump with
        | Some _ -> List.map drive_one assignments
        | None ->
          (* One domain per endpoint: the fan-out is as parallel as the
             fleet is wide. *)
          let handles =
            List.map (fun a -> Domain.spawn (fun () -> drive_one a)) assignments
          in
          List.map Domain.join handles
      in
      let still_pending = ref [] in
      List.iter
        (fun d ->
          List.iter
            (fun (idx, item) ->
              if not (Hashtbl.mem results idx) then begin
                Hashtbl.replace results idx item;
                Hashtbl.replace per_endpoint d.d_endpoint
                  (1 + Option.value (Hashtbl.find_opt per_endpoint d.d_endpoint) ~default:0)
              end)
            d.d_completions;
          List.iter (fun (idx, why) -> Hashtbl.replace refusals idx why) d.d_rejected;
          reconnects := !reconnects + d.d_reconnects;
          if d.d_dead then Router.mark_down router d.d_endpoint
          else Hashtbl.replace cache d.d_endpoint (d.d_cache_hits, d.d_cache_misses);
          List.iter
            (fun idx ->
              match List.find_opt (fun (i, _, _) -> i = idx) !pending with
              | Some entry -> still_pending := entry :: !still_pending
              | None -> ())
            d.d_leftover)
        round_results;
      pending :=
        List.filter
          (fun (idx, _, _) -> not (Hashtbl.mem results idx || Hashtbl.mem refusals idx))
          (List.rev !still_pending)
    done;
    let completions =
      List.sort compare (Hashtbl.fold (fun idx item acc -> (idx, item) :: acc) results [])
    in
    let cached, errors =
      List.fold_left
        (fun (c, e) (_, item) ->
          let c =
            match obj_field item "cached" with Some (Bench_io.Bool true) -> c + 1 | _ -> c
          in
          let e = match obj_field item "failed" with Some _ -> e + 1 | _ -> e in
          (c, e))
        (0, 0) completions
    in
    let cache_hits, cache_misses =
      Hashtbl.fold (fun _ (h, m) (ah, am) -> (ah + h, am + m)) cache (0, 0)
    in
    Ok
      {
        r_jobs = n_jobs;
        r_completed = List.length completions;
        r_failed = n_jobs - List.length completions;
        r_errors = errors + Hashtbl.length refusals;
        r_cached = cached;
        r_rounds = !rounds;
        r_failovers = !failovers;
        r_reconnects = !reconnects;
        r_per_endpoint =
          List.sort compare (Hashtbl.fold (fun e n acc -> (e, n) :: acc) per_endpoint []);
        r_cache_hits = cache_hits;
        r_cache_misses = cache_misses;
        r_completions = completions;
      }
  end
