(* Tests for lib/service: the long-lived aggregation service.

   The load-bearing properties:

   - admission is bounded and fair: a full queue rejects with a
     structured backpressure reason, tenants rotate, priorities order
     within a tenant;
   - the digest is a sound cache key: envelope fields (tenant, priority,
     deadline) never enter it, everything that affects the computation
     does, and a duplicate submission is served without re-simulation;
   - checkpoints round-trip the whole service: a restart re-seeds the
     cache, keeps ids unique, and drains the restored backlog;
   - the protocol responses are byte-identical with telemetry globally
     disabled (the obs kill switch changes exports, never answers);
   - a chaos campaign routed through the service sees the same planted
     violations as the in-process path, plus the service's backpressure. *)

open Ftagg
open Helpers
module Job = Service.Job
module Squeue = Service.Queue
module Cache = Service.Cache
module Reconfig = Service.Reconfig
module Scheduler = Service.Scheduler
module Checkpoint = Service.Checkpoint
module Server = Service.Server

(* A small, fast, failure-free job: a 4x4 grid SUM under Algorithm 1. *)
let spec ?(tenant = "default") ?(n = 16) ?(seed = 7) ?(priority = Job.Normal) ?(generation = 0)
    ?deadline () =
  {
    Job.tenant;
    family = Topo.Grid;
    n;
    topo_seed = seed;
    inputs = default_inputs n;
    c = 2;
    t = 2;
    caaf = "sum";
    protocol = Job.Tradeoff { b = 63; f = 1 };
    failures = Job.Generated { mode = "none"; budget = 0 };
    seed;
    generation;
    deadline;
    priority;
  }

let settings ?(queue = 8) ?(cache = 8) ?(batch = 2) ?(every = 0) () =
  {
    Reconfig.default with
    Reconfig.queue_capacity = queue;
    cache_capacity = cache;
    tick_batch = batch;
    checkpoint_every = every;
  }

(* --- admission queue --- *)

let test_queue_fairness () =
  let q = Squeue.create ~capacity:10 in
  let put tenant x = Result.get_ok (Squeue.submit q ~tenant ~priority:1 x) in
  put "a" 1;
  put "a" 2;
  put "a" 3;
  put "b" 4;
  check_true "tenants in first-seen order" (Squeue.tenants q = [ "a"; "b" ]);
  let pops = List.init 4 (fun _ -> Option.get (Squeue.pop q)) in
  Alcotest.(check (list (pair string int)))
    "round-robin: b's single job is not starved"
    [ ("a", 1); ("b", 4); ("a", 2); ("a", 3) ]
    pops;
  check_true "drained" (Squeue.pop q = None)

let test_queue_priority () =
  let q = Squeue.create ~capacity:10 in
  let put priority x = Result.get_ok (Squeue.submit q ~tenant:"t" ~priority x) in
  put 1 1;
  put 1 2;
  put 0 3;
  put 2 4;
  let order = List.init 4 (fun _ -> snd (Option.get (Squeue.pop q))) in
  Alcotest.(check (list int)) "priority first, FIFO within" [ 3; 1; 2; 4 ] order

let test_queue_backpressure () =
  let q = Squeue.create ~capacity:2 in
  ignore (Squeue.submit q ~tenant:"a" ~priority:1 1);
  ignore (Squeue.submit q ~tenant:"b" ~priority:1 2);
  (match Squeue.submit q ~tenant:"c" ~priority:1 3 with
  | Ok () -> Alcotest.fail "expected rejection"
  | Error (Squeue.Queue_full { depth; capacity } as r) ->
    check_int "depth reported" 2 depth;
    check_int "capacity reported" 2 capacity;
    check_true "machine tag" (Squeue.reject_reason r = "queue_full"));
  let zero = Squeue.create ~capacity:0 in
  check_true "capacity 0 rejects everything"
    (Result.is_error (Squeue.submit zero ~tenant:"a" ~priority:0 1));
  Alcotest.check_raises "negative capacity rejected"
    (Invalid_argument "Queue.create: capacity must be >= 0") (fun () ->
      ignore (Squeue.create ~capacity:(-1)))

let test_queue_snapshot_and_remove () =
  let q = Squeue.create ~capacity:10 in
  List.iter
    (fun (tenant, x) -> ignore (Squeue.submit q ~tenant ~priority:1 x))
    [ ("a", 1); ("a", 2); ("b", 3) ];
  let snap = Squeue.to_list q in
  Alcotest.(check (list int)) "snapshot is pop order" [ 1; 3; 2 ] snap;
  check_int "snapshot does not consume" 3 (Squeue.length q);
  let removed = Squeue.remove q (fun x -> x = 3) in
  Alcotest.(check (list int)) "removed the match" [ 3 ] removed;
  check_int "two left" 2 (Squeue.length q);
  (* shrinking below depth keeps admitted jobs, gates new ones *)
  Squeue.set_capacity q 1;
  check_int "shrink keeps admitted jobs" 2 (Squeue.length q);
  check_true "but gates new submissions"
    (Result.is_error (Squeue.submit q ~tenant:"a" ~priority:1 9))

(* --- result cache --- *)

let test_cache_lru () =
  let r = Registry.create () in
  let c = Cache.create ~registry:r ~capacity:2 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  check_true "hit a" (Cache.find c "a" = Some 1);
  Cache.add c "x" 3 (* b is now LRU -> evicted *);
  check_true "a survived (recently used)" (Cache.find c "a" = Some 1);
  check_true "b evicted" (Cache.find c "b" = None);
  let s = Cache.stats c in
  check_int "hits" 2 s.Cache.hits;
  check_int "misses" 1 s.Cache.misses;
  check_int "evictions" 1 s.Cache.evictions;
  check_int "entries" 2 s.Cache.entries;
  (* plain stats are mirrored into the registry *)
  check_int "registry hits" 2 (Registry.counter r "service_cache_hits_total");
  check_int "registry misses" 1 (Registry.counter r "service_cache_misses_total");
  check_int "registry evictions" 1 (Registry.counter r "service_cache_evictions_total");
  (* live shrink evicts down *)
  Cache.set_capacity c 1;
  check_int "shrink evicts to capacity" 1 (Cache.length c)

let test_cache_disabled () =
  let c = Cache.create ~capacity:0 () in
  Cache.add c "a" 1;
  check_true "capacity 0 stores nothing" (Cache.find c "a" = None);
  check_int "still counts the miss" 1 (Cache.stats c).Cache.misses

(* --- job digests and wire form --- *)

let test_job_digest () =
  let base = spec () in
  check_int "digest is 16 hex chars" 16 (String.length (Job.digest base));
  check_true "digest is deterministic" (Job.digest base = Job.digest (spec ()));
  (* envelope fields are excluded: same question, same cache entry *)
  check_true "tenant excluded" (Job.digest base = Job.digest (spec ~tenant:"other" ()));
  check_true "priority excluded" (Job.digest base = Job.digest (spec ~priority:Job.High ()));
  check_true "deadline excluded" (Job.digest base = Job.digest (spec ~deadline:5 ()));
  (* everything computational is included *)
  check_true "n included" (Job.digest base <> Job.digest (spec ~n:25 ()));
  check_true "seed included" (Job.digest base <> Job.digest (spec ~seed:8 ()));
  check_true "inputs included"
    (Job.digest base <> Job.digest { base with Job.inputs = Array.make 16 1 });
  check_true "protocol included"
    (Job.digest base <> Job.digest { base with Job.protocol = Job.Brute });
  check_true "caaf included" (Job.digest base <> Job.digest { base with Job.caaf = "max" });
  (* the generation lives in the cache key, not the digest *)
  check_true "generation excluded from the digest"
    (Job.digest base = Job.digest (spec ~generation:3 ()))

let test_job_cache_key () =
  let base = spec () in
  check_true "generation 0 keys on the bare digest" (Job.cache_key base = Job.digest base);
  let g2 = spec ~generation:2 () in
  check_true "later generation suffixes the digest"
    (Job.cache_key g2 = Job.digest g2 ^ "@g2");
  check_true "distinct generations never share a key"
    (Job.cache_key (spec ~generation:1 ()) <> Job.cache_key g2);
  match Job.of_json ~settings:Reconfig.default (Job.to_json g2) with
  | Error e -> Alcotest.fail e
  | Ok s' ->
    check_int "generation survives the wire" 2 s'.Job.generation;
    check_true "cache key stable across the wire" (Job.cache_key g2 = Job.cache_key s')

(* A job admitted under generation g must miss — not hit — an outcome
   cached under generation g-1 with the identical spec digest: the
   topology may have churned between the two admissions. *)
let test_scheduler_generation_invalidation () =
  let t = Scheduler.create ~settings:(settings ~batch:1 ()) () in
  let run s =
    ignore (Result.get_ok (Scheduler.submit t s));
    match Scheduler.tick t () with
    | [ c ] -> c
    | cs -> Alcotest.fail (Printf.sprintf "expected 1 completion, got %d" (List.length cs))
  in
  let c0 = run (spec ()) in
  check_true "generation 0 executes" (not c0.Scheduler.cached);
  let c0' = run (spec ~tenant:"other" ()) in
  check_true "same generation, same digest: cache hit" c0'.Scheduler.cached;
  let c1 = run (spec ~generation:1 ()) in
  check_true "same digest one generation later: miss, not a stale hit"
    (not c1.Scheduler.cached);
  check_true "completion records the generation-keyed digest"
    (c1.Scheduler.digest = Job.digest (spec ()) ^ "@g1");
  let c1' = run (spec ~generation:1 ~tenant:"other" ()) in
  check_true "repeat within generation 1 hits its own entry" c1'.Scheduler.cached;
  let s = Scheduler.cache_stats t in
  check_int "two hits" 2 s.Cache.hits;
  check_int "two misses" 2 s.Cache.misses

let test_job_json_roundtrip () =
  let s = spec ~tenant:"acme" ~priority:Job.High ~deadline:4 () in
  (match Job.of_json ~settings:Reconfig.default (Job.to_json s) with
  | Error e -> Alcotest.fail e
  | Ok s' ->
    check_true "spec round-trips" (s = s');
    check_true "digest stable across the wire" (Job.digest s = Job.digest s'));
  let explicit = { s with Job.failures = Job.Explicit [ (3, 10); (5, 2) ] } in
  (match Job.of_json ~settings:Reconfig.default (Job.to_json explicit) with
  | Error e -> Alcotest.fail e
  | Ok s' -> check_true "explicit schedule round-trips" (explicit = s'));
  let o =
    {
      Job.value = Some 42;
      correct = true;
      cc = 100;
      rounds = 50;
      flooding_rounds = 10;
      via = "pair interval 1";
      violation = None;
    }
  in
  match Job.outcome_of_json (Job.outcome_to_json o) with
  | Error e -> Alcotest.fail e
  | Ok o' -> check_true "outcome round-trips" (o = o')

let test_job_of_json_defaults_and_errors () =
  let parse s =
    match Bench_io.of_string s with
    | Ok j -> Job.of_json ~settings:(settings ()) j
    | Error e -> Error e
  in
  (match parse {|{"family":"grid","n":25,"seed":7}|} with
  | Error e -> Alcotest.fail e
  | Ok s ->
    check_true "tenant defaulted" (s.Job.tenant = "default");
    check_true "b/f defaulted from settings" (s.Job.protocol = Job.Tradeoff { b = 63; f = 8 });
    check_int "inputs drawn from the seed" 25 (Array.length s.Job.inputs));
  check_true "unknown family rejected"
    (Result.is_error (parse {|{"family":"moebius","n":25,"seed":7}|}));
  check_true "unknown caaf rejected"
    (Result.is_error (parse {|{"family":"grid","n":25,"seed":7,"caaf":"median"}|}));
  check_true "non-positive n rejected" (Result.is_error (parse {|{"family":"grid","n":0}|}))

(* --- scheduler --- *)

let test_scheduler_cache_hit () =
  let t = Scheduler.create ~settings:(settings ~batch:1 ()) () in
  let id1, digest1 = Result.get_ok (Scheduler.submit t (spec ())) in
  let id2, _ = Result.get_ok (Scheduler.submit t (spec ~tenant:"other" ()))
  and _ = check_true "ids are fresh" true in
  check_true "distinct ids" (id1 <> id2);
  check_true "submit returns the spec's digest" (digest1 = Job.digest (spec ()));
  (match Scheduler.tick t () with
  | [ c ] ->
    check_true "first executes" (not c.Scheduler.cached);
    check_true "outcome correct"
      (match c.Scheduler.outcome with Ok o -> o.Job.correct | Error _ -> false)
  | cs -> Alcotest.fail (Printf.sprintf "expected 1 completion, got %d" (List.length cs)));
  (match Scheduler.tick t () with
  | [ c ] ->
    check_true "duplicate from another tenant is a cache hit" c.Scheduler.cached;
    check_true "same digest" (Job.digest (spec ()) = c.Scheduler.digest)
  | _ -> Alcotest.fail "expected 1 completion");
  let s = Scheduler.cache_stats t in
  check_int "one hit" 1 s.Cache.hits;
  check_int "one miss" 1 s.Cache.misses;
  (* same-batch duplicates: one execution, the rest served from it *)
  let t2 = Scheduler.create ~settings:(settings ~batch:4 ()) () in
  ignore (Scheduler.submit t2 (spec ()));
  ignore (Scheduler.submit t2 (spec ~tenant:"b" ()));
  ignore (Scheduler.submit t2 (spec ~tenant:"c" ()));
  let cs = Scheduler.tick t2 () in
  check_int "all three complete in one tick" 3 (List.length cs);
  check_int "exactly one executed" 1
    (List.length (List.filter (fun c -> not c.Scheduler.cached) cs));
  check_true "all agree on the value"
    (List.for_all
       (fun c ->
         match c.Scheduler.outcome with
         | Ok o -> o.Job.value = Some (total (default_inputs 16))
         | Error _ -> false)
       cs)

let test_scheduler_cancel_and_deadline () =
  let t = Scheduler.create ~settings:(settings ~batch:4 ()) () in
  let id1, _ = Result.get_ok (Scheduler.submit t (spec ())) in
  let id2, _ = Result.get_ok (Scheduler.submit t (spec ~seed:8 ())) in
  check_true "cancel a queued job" (Scheduler.cancel t id2);
  check_true "cancel is idempotent-false" (not (Scheduler.cancel t id2));
  check_true "unknown id" (not (Scheduler.cancel t "j999"));
  let cs = Scheduler.drain t in
  check_int "only the uncancelled job ran" 1 (List.length cs);
  check_true "and it is id1" ((List.hd cs).Scheduler.id = id1);
  check_true "completed job cannot be cancelled" (not (Scheduler.cancel t id1));
  (* a job whose queue wait exceeds its deadline expires instead of running *)
  let t2 = Scheduler.create ~settings:(settings ~batch:1 ()) () in
  ignore (Scheduler.submit t2 (spec ()));
  let expiring, _ = Result.get_ok (Scheduler.submit t2 (spec ~seed:9 ~deadline:0 ())) in
  ignore (Scheduler.tick t2 ()) (* runs the first job; the deadline-0 job now waited 1 > 0 *);
  match Scheduler.tick t2 () with
  | [ c ] ->
    check_true "expired job is the one with the deadline" (c.Scheduler.id = expiring);
    check_true "expired, not executed"
      (match c.Scheduler.outcome with Error e -> String.length e > 0 | Ok _ -> false)
  | _ -> Alcotest.fail "expected the expired completion"

let test_scheduler_reconfig () =
  let t = Scheduler.create ~settings:(settings ~queue:1 ~cache:8 ()) () in
  ignore (Scheduler.submit t (spec ()));
  check_true "full at capacity 1" (Result.is_error (Scheduler.submit t (spec ~seed:8 ())));
  let patch = { Reconfig.empty with Reconfig.p_queue_capacity = Some 4; p_default_b = Some 126 } in
  let s' = Scheduler.reconfig t patch in
  check_int "queue capacity patched" 4 s'.Reconfig.queue_capacity;
  check_int "default_b patched" 126 s'.Reconfig.default_b;
  check_true "admission reopened" (Result.is_ok (Scheduler.submit t (spec ~seed:8 ())));
  (* defaults resolve at admission: a job parsed after the patch gets the
     new b, so its digest differs from the same request parsed before *)
  let parse st =
    match Bench_io.of_string {|{"family":"grid","n":16,"seed":7}|} with
    | Ok j -> Result.get_ok (Job.of_json ~settings:st j)
    | Error e -> Alcotest.fail e
  in
  let before = parse (settings ()) and after = parse s' in
  check_true "patched default changes new digests" (Job.digest before <> Job.digest after);
  ignore (Scheduler.drain t)

let test_scheduler_checkpoint_restore () =
  let path = Filename.temp_file "ftagg-service" ".ckpt.json" in
  let st = settings ~batch:1 ~every:1 () in
  let t = Scheduler.create ~checkpoint_path:path ~settings:st () in
  ignore (Scheduler.submit t (spec ()));
  ignore (Scheduler.submit t (spec ~seed:8 ()));
  ignore (Scheduler.submit t (spec ~seed:9 ~tenant:"b" ()));
  ignore (Scheduler.tick t ()) (* one completion -> auto-checkpoint (every = 1) *);
  let state = Result.get_ok (Checkpoint.load ~path) in
  check_int "backlog checkpointed" 2 (List.length state.Checkpoint.s_pending);
  check_int "completion checkpointed" 1 (List.length state.Checkpoint.s_completed);
  (* restart *)
  let t' = Scheduler.restore ~checkpoint_path:path ~settings:st state in
  check_int "backlog restored" 2 (Scheduler.depth t');
  check_int "completions restored" 1 (Scheduler.completed_count t');
  (* a post-restart duplicate of the completed job hits the re-seeded cache *)
  let dup, _ = Result.get_ok (Scheduler.submit t' (spec ())) in
  check_true "ids never collide across the restart" (not (String.equal dup "j1"));
  let cs = Scheduler.drain t' in
  check_int "backlog + duplicate drained" 3 (List.length cs);
  let dup_c = List.find (fun c -> c.Scheduler.id = dup) cs in
  check_true "duplicate served from the restored cache" dup_c.Scheduler.cached;
  check_true "every drained job succeeded"
    (List.for_all (fun c -> Result.is_ok c.Scheduler.outcome) cs);
  check_int "completions counted across the restart" 4 (Scheduler.completed_count t');
  Sys.remove path

(* --- checkpoint codec --- *)

let test_checkpoint_codec () =
  let state =
    {
      Checkpoint.s_next_id = 7;
      s_tick = 3;
      s_pending = [ ("j5", spec ()); ("j6", spec ~seed:8 ~priority:Job.Low ()) ];
      s_completed =
        [
          {
            Checkpoint.d_id = "j1";
            d_tenant = "a";
            d_digest = "0123456789abcdef";
            d_cached = false;
            d_outcome =
              Ok
                {
                  Job.value = Some 3;
                  correct = true;
                  cc = 9;
                  rounds = 5;
                  flooding_rounds = 1;
                  via = "x";
                  violation = None;
                };
          };
          {
            Checkpoint.d_id = "j2";
            d_tenant = "b";
            d_digest = "fedcba9876543210";
            d_cached = true;
            d_outcome = Error "deadline exceeded";
          };
        ];
    }
  in
  (match Checkpoint.of_json (Checkpoint.to_json state) with
  | Error e -> Alcotest.fail e
  | Ok state' -> check_true "state round-trips" (state = state'));
  match Checkpoint.of_json (Bench_io.Obj [ ("version", Bench_io.Int 999) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown version must be rejected"

let test_checkpoint_atomic_save () =
  let path = Filename.temp_file "ftagg-atomic" ".ckpt.json" in
  Checkpoint.save ~path { Checkpoint.empty with Checkpoint.s_next_id = 5 };
  check_true "no tmp residue after a save" (not (Sys.file_exists (path ^ ".tmp")));
  (match Checkpoint.load ~path with
  | Ok s -> check_int "saved state loads back" 5 s.Checkpoint.s_next_id
  | Error e -> Alcotest.fail e);
  (* A stale [.tmp] left by a writer that crashed mid-write must neither
     be loaded nor block the next save. *)
  let oc = open_out (path ^ ".tmp") in
  output_string oc "{ torn";
  close_out oc;
  Checkpoint.save ~path { Checkpoint.empty with Checkpoint.s_next_id = 6 };
  check_true "stale tmp replaced, not kept" (not (Sys.file_exists (path ^ ".tmp")));
  (match Checkpoint.load ~path with
  | Ok s -> check_int "the newest complete state wins" 6 s.Checkpoint.s_next_id
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_checkpoint_torn_file_refused () =
  let path = Filename.temp_file "ftagg-torn" ".ckpt.json" in
  Checkpoint.save ~path { Checkpoint.empty with Checkpoint.s_next_id = 9 };
  (* Simulate a crash mid-write of a non-atomic writer: truncate the
     file to half its bytes. *)
  let full =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  in
  let oc = open_out_bin path in
  output_string oc (String.sub full 0 (String.length full / 2));
  close_out oc;
  (match Checkpoint.load ~path with
  | Ok _ -> Alcotest.fail "a torn checkpoint must not load"
  | Error e ->
    check_true "the error says torn/corrupt, naming the file"
      (string_contains ~needle:"torn or corrupt" e && string_contains ~needle:path e));
  (* The server must not brick on it: start empty, keep the reason. *)
  let t =
    Server.create { Server.settings = settings (); checkpoint_path = Some path; store_dir = None; name = "test" }
  in
  (match Server.restore_error t with
  | Some e -> check_true "restore error surfaced" (string_contains ~needle:"torn or corrupt" e)
  | None -> Alcotest.fail "restore_error must be set for a torn checkpoint");
  check_true "the server still answers"
    (match Bench_io.of_string (Server.handle t {|{"op":"status"}|}) with
    | Ok json -> Bench_io.member "ok" json = Some (Bench_io.Bool true)
    | Error _ -> false);
  Sys.remove path

(* --- server protocol --- *)

let server ?checkpoint_path ?store_dir ?(st = settings ()) () =
  Server.create { Server.settings = st; checkpoint_path; store_dir; name = "test" }

let test_server_protocol () =
  let t = server () in
  let get path line =
    match Bench_io.of_string (Server.handle t line) with
    | Ok json -> Bench_io.member path json
    | Error e -> Alcotest.fail e
  in
  check_true "submit acks queued"
    (get "status" {|{"op":"submit","job":{"family":"grid","n":16,"seed":7}}|}
    = Some (Bench_io.String "queued"));
  check_true "malformed line is an error response, not a crash"
    (get "ok" "{nope" = Some (Bench_io.Bool false));
  check_true "unknown op is an error response"
    (get "ok" {|{"op":"florble"}|} = Some (Bench_io.Bool false));
  check_true "missing op is an error response"
    (get "ok" {|{"x":1}|} = Some (Bench_io.Bool false));
  check_true "bad job is an error response"
    (get "ok" {|{"op":"submit","job":{"family":"moebius"}}|} = Some (Bench_io.Bool false));
  check_true "drain completes the backlog"
    (get "depth" {|{"op":"drain"}|} = Some (Bench_io.Int 0));
  check_true "status reports the completion"
    (get "completed" {|{"op":"status"}|} = Some (Bench_io.Int 1));
  check_true "get finds it"
    (get "found" {|{"op":"get","id":"j1"}|} = Some (Bench_io.Bool true));
  check_true "get on unknown id"
    (get "found" {|{"op":"get","id":"j99"}|} = Some (Bench_io.Bool false));
  check_true "reconfig echoes touched fields"
    (get "applied" {|{"op":"reconfig","set":{"cache_capacity":2}}|}
    = Some (Bench_io.List [ Bench_io.String "cache_capacity" ]));
  check_true "bad patch rejected whole"
    (get "ok" {|{"op":"reconfig","set":{"cache_capacity":2,"warp":9}}|}
    = Some (Bench_io.Bool false));
  check_true "checkpoint without a path is an error"
    (get "ok" {|{"op":"checkpoint"}|} = Some (Bench_io.Bool false));
  check_true "metrics carries a prometheus dump"
    (match get "prometheus" {|{"op":"metrics"}|} with
    | Some (Bench_io.String s) -> String.length s > 0
    | _ -> false);
  check_true "shutdown flips the flag"
    (get "ok" {|{"op":"shutdown"}|} = Some (Bench_io.Bool true));
  check_true "shutdown requested" (Server.shutdown_requested t)

let test_server_backpressure_response () =
  let t = server ~st:(settings ~queue:1 ()) () in
  let submit = {|{"op":"submit","job":{"family":"grid","n":16,"seed":7}}|} in
  ignore (Server.handle t submit);
  match Bench_io.of_string (Server.handle t {|{"op":"submit","job":{"family":"grid","n":16,"seed":8}}|}) with
  | Error e -> Alcotest.fail e
  | Ok json ->
    check_true "refused" (Bench_io.member "ok" json = Some (Bench_io.Bool false));
    check_true "backpressure error"
      (Bench_io.member "error" json = Some (Bench_io.String "backpressure"));
    check_true "machine-readable reason"
      (Bench_io.member "reason" json = Some (Bench_io.String "queue_full"))

let test_server_obs_off_identity () =
  (* The kill switch disables every registry/span/event path.  Responses
     must not change: they are built from scheduler state, never from
     telemetry.  ([metrics] is excepted — it *is* telemetry.) *)
  let script =
    [
      {|{"op":"submit","job":{"family":"grid","n":16,"seed":7}}|};
      {|{"op":"submit","job":{"family":"grid","n":16,"seed":7,"tenant":"b"}}|};
      {|{"op":"tick"}|};
      {|{"op":"drain"}|};
      {|{"op":"status"}|};
      {|{"op":"cancel","id":"j1"}|};
    ]
  in
  let run_script () = List.map (Server.handle (server ())) script in
  let with_obs = run_script () in
  Registry.set_enabled false;
  let without_obs = Fun.protect ~finally:(fun () -> Registry.set_enabled true) run_script in
  Alcotest.(check (list string)) "responses byte-identical with telemetry off" with_obs without_obs

(* [serve --jsonl]'s job records: the sink holds none while the server
   runs; the export builds one per completion this process recorded,
   with what its drain response carried, after the other events. *)
let test_server_jsonl_completions () =
  let path = Filename.temp_file "ftagg-service" ".ckpt.json" in
  Sys.remove path;
  let start () =
    let t = server ~checkpoint_path:path ~st:(settings ~batch:1 ()) () in
    (Server.obs t, t)
  in
  let submit ?(tenant = "default") ?(extra = "") seed =
    Printf.sprintf {|{"op":"submit","job":{"family":"grid","n":16,"seed":%d,"tenant":"%s"%s}}|} seed
      tenant extra
  in
  (* A drain's completions as the records the export must yield: a
     failed job's error rides in [outcome]. *)
  let drained t =
    match Bench_io.of_string (Server.handle t {|{"op":"drain"}|}) with
    | Ok json -> (
      match Bench_io.member "completed" json with
      | Some (Bench_io.List cs) ->
        List.map
          (function
            | Bench_io.Obj fields ->
              List.map (function "failed", e -> ("outcome", e) | kv -> kv) fields
            | _ -> Alcotest.fail "a completion is an object")
          cs
      | _ -> Alcotest.fail "drain lists its completions")
    | Error e -> Alcotest.fail e
  in
  let kinds obs = List.map (fun e -> e.Obs.ev_kind) (Obs.events obs) in
  let export obs t =
    Scheduler.export_completions (Server.scheduler t);
    List.filter_map
      (fun e -> if e.Obs.ev_kind = "job_completed" then Some e.Obs.ev_fields else None)
      (Obs.events obs)
  in
  let obs, t = start () in
  List.iter
    (fun line -> ignore (Server.handle t line))
    [ submit 7; submit ~tenant:"b" 7; submit ~extra:{|,"deadline":0|} 9;
      {|{"op":"reconfig","set":{"cache_capacity":4}}|} ];
  let first = drained t in
  check_int "executed, cache hit and expired" 3 (List.length first);
  check_true "one was a cache hit"
    (List.exists (fun c -> List.assoc "cached" c = Bench_io.Bool true) first);
  check_true "one expired"
    (List.exists
       (fun c -> match List.assoc "outcome" c with Bench_io.String _ -> true | _ -> false)
       first);
  ignore (Server.handle t {|{"op":"checkpoint"}|});
  Alcotest.(check (list string)) "no job record before export" [ "reconfig" ] (kinds obs);
  check_true "one record per completion, as drained" (export obs t = first);
  Alcotest.(check (list string)) "records follow the other events"
    [ "reconfig"; "job_completed"; "job_completed"; "job_completed" ] (kinds obs);
  (* A restarted server exports only what it recorded itself. *)
  let obs', t' = start () in
  check_int "three completions restored" 3 (Scheduler.completed_count (Server.scheduler t'));
  ignore (Server.handle t' (submit ~tenant:"c" 7));
  ignore (Server.handle t' (submit 11));
  let second = drained t' in
  check_int "a restored hit and a fresh job" 2 (List.length second);
  check_true "only its own completions" (export obs' t' = second);
  Sys.remove path

(* --- sweep: the non-abandoning variant --- *)

let test_map_results () =
  let f x = if x mod 3 = 0 then failwith (Printf.sprintf "boom %d" x) else x * 10 in
  let results = Sweep.map_results ~domains:2 f [ 1; 2; 3; 4; 5; 6 ] in
  check_int "all six jobs report" 6 (List.length results);
  List.iteri
    (fun i r ->
      let x = i + 1 in
      match r with
      | Ok v ->
        check_true "non-multiples succeed in order" (x mod 3 <> 0);
        check_int "value" (x * 10) v
      | Error (Failure msg) ->
        check_true "multiples of 3 fail" (x mod 3 = 0);
        check_true "their own exception" (msg = Printf.sprintf "boom %d" x)
      | Error e -> Alcotest.fail (Printexc.to_string e))
    results;
  (* [map] keeps its fail-fast contract *)
  match Sweep.map ~domains:2 (fun x -> if x = 2 then failwith "x" else x) [ 1; 2; 3 ] with
  | exception Sweep.Job_failed (i, _) -> check_int "index of the failure" 1 i
  | _ -> Alcotest.fail "expected Job_failed"

(* --- chaos campaigns through the service --- *)

let campaign_config =
  {
    Campaign.default_config with
    Campaign.trials = 6;
    seed = 99;
    bit_cap = Some 40 (* planted: every executed trial must violate *);
    max_n = 14;
    log = ignore;
  }

let test_campaign_via_service () =
  let sched = Scheduler.create ~settings:(settings ~queue:4 ~cache:4 ()) () in
  let outcome =
    Campaign.run { campaign_config with Campaign.via = Some (Service.Chaos_gate.via sched) }
  in
  check_int "nothing rejected at this capacity" 0 outcome.Campaign.o_rejected_trials;
  check_int "planted cap violates every trial" 6 outcome.Campaign.o_violating_trials;
  check_true "the service actually ran them" (Scheduler.completed_count sched >= 6);
  check_true "under the chaos tenant"
    (Registry.counter (Scheduler.registry sched)
       ~labels:[ ("tenant", "chaos") ]
       "service_jobs_completed_total"
    >= 6)

let test_campaign_via_service_backpressure () =
  (* queue capacity 0: the service refuses every trial; the campaign
     counts them as rejected and reports no violations. *)
  let sched = Scheduler.create ~settings:(settings ~queue:0 ()) () in
  let outcome =
    Campaign.run { campaign_config with Campaign.via = Some (Service.Chaos_gate.via sched) }
  in
  check_int "every trial rejected" 6 outcome.Campaign.o_rejected_trials;
  check_int "no violations observed" 0 outcome.Campaign.o_violating_trials;
  check_true "no incidents" (outcome.Campaign.o_incidents = []);
  check_int "nothing completed" 0 (Scheduler.completed_count sched)

let test_campaign_via_service_cancellation () =
  let sched = Scheduler.create ~settings:(settings ~queue:4 ()) () in
  let outcome =
    Campaign.run
      {
        campaign_config with
        Campaign.via = Some (Service.Chaos_gate.via ~cancel_every:2 sched);
      }
  in
  check_int "every second trial cancelled" 3 outcome.Campaign.o_rejected_trials;
  check_int "the rest still violate" 3 outcome.Campaign.o_violating_trials

(* A chaos-pair job answers the aggregate it names: the watched pair runs
   on the job's own params, caaf included. *)
let test_chaos_pair_job_caaf () =
  let job =
    {
      (spec ~n:25 ~seed:5 ()) with
      Job.t = 2;
      caaf = "max";
      protocol = Job.Chaos_pair { bit_cap = None };
      failures = Job.Explicit [];
    }
  in
  let e = Job.execute job in
  check_true "value is the max" (e.Job.outcome.Job.value = Some 25);
  check_true "and correct" e.Job.outcome.Job.correct;
  check_true "no violation" (e.Job.violation = None && e.Job.outcome.Job.violation = None)

(* --- golden digest vectors ---

   The digest is the cross-process cache key: the store files, the
   fleet's ring placement and the client's idempotent resubmit all
   assume every build of every fleet member hashes a job to the same
   hex string.  These vectors pin the digest byte-exact, so any change
   to the canonical serialization (field order, separators, the FNV
   constants) fails loudly instead of silently splitting the fleet's
   caches. *)

let test_job_digest_golden () =
  let vectors =
    [
      (spec (), "711832b693b6182d");
      (spec ~n:25 ~seed:3 (), "6b57e64ed4fe9fa5");
      ({ (spec ()) with Job.caaf = "max"; protocol = Job.Brute }, "d88d0e3b6b1a7869");
      ( { (spec ~n:9 ()) with Job.failures = Job.Explicit [ (1, 4); (2, 0) ] },
        "364c1ad699197b83" );
    ]
  in
  List.iteri
    (fun i (s, expect) ->
      Alcotest.(check string)
        (Printf.sprintf "vector %d pinned" (i + 1))
        expect (Job.digest s))
    vectors

(* --- the digest against its specification ---

   The reference is the string-concatenating construction [Job.digest]
   had before it wrote the canonical bytes into one buffer, kept here
   verbatim with its per-byte FNV-1a: every spec must still digest, and
   key, to the same hex string. *)

let reference_fnv s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let reference_digest (spec : Job.spec) =
  let protocol_token = function
    | Job.Tradeoff { b; f } -> Printf.sprintf "tradeoff:%d:%d" b f
    | Job.Brute -> "brute"
    | Job.Unknown_f -> "unknown_f"
    | Job.Chaos_pair { bit_cap } ->
      Printf.sprintf "chaos_pair:%s" (match bit_cap with Some c -> string_of_int c | None -> "-")
  in
  let failures_token = function
    | Job.Generated { mode; budget } -> Printf.sprintf "gen:%s:%d" mode budget
    | Job.Explicit schedule ->
      "exp:" ^ String.concat "," (List.map (fun (u, r) -> Printf.sprintf "%d@%d" u r) schedule)
  in
  let canonical =
    String.concat "|"
      [
        Incident.family_to_string spec.Job.family;
        string_of_int spec.Job.n;
        string_of_int spec.Job.topo_seed;
        String.concat "," (Array.to_list (Array.map string_of_int spec.Job.inputs));
        string_of_int spec.Job.c;
        string_of_int spec.Job.t;
        String.lowercase_ascii spec.Job.caaf;
        protocol_token spec.Job.protocol;
        failures_token spec.Job.failures;
        string_of_int spec.Job.seed;
      ]
  in
  Printf.sprintf "%016Lx" (reference_fnv canonical)

let reference_cache_key (spec : Job.spec) =
  if spec.Job.generation = 0 then reference_digest spec
  else Printf.sprintf "%s@g%d" (reference_digest spec) spec.Job.generation

(* Ints over the whole range, weighted towards the edges of the decimal
   writer: signs, one and two digits, [min_int] and [max_int]. *)
let any_int =
  QCheck.Gen.(
    oneof
      [
        int;
        small_signed_int;
        oneofl [ min_int; min_int + 1; max_int; 0; -1; 1; 9; 10; -9; -10; -11; 100; -100 ];
      ])

let spec_gen =
  let open QCheck.Gen in
  let family =
    oneof
      [
        oneofl
          Topo.[ Path; Ring; Grid; Star; Binary_tree; Complete; Caterpillar; Lollipop; Torus ];
        map (fun p -> Topo.Random p) (float_bound_inclusive 1.);
        map (fun k -> Topo.Random_regular k) any_int;
      ]
  in
  let mixed_case name =
    map
      (fun flips ->
        String.mapi
          (fun i c -> if List.nth flips (i mod List.length flips) then Char.uppercase_ascii c else c)
          name)
      (list_size (1 -- 8) bool)
  in
  let caaf =
    oneof
      [
        oneofl [ "sum"; "max"; "min"; "count"; "gcd"; "and"; "or" ] >>= mixed_case;
        string_size ~gen:char (0 -- 8);
      ]
  in
  let protocol =
    oneof
      [
        map2 (fun b f -> Job.Tradeoff { b; f }) any_int any_int;
        return Job.Brute;
        return Job.Unknown_f;
        map (fun bit_cap -> Job.Chaos_pair { bit_cap }) (opt any_int);
      ]
  in
  let failures =
    oneof
      [
        map2
          (fun mode budget -> Job.Generated { mode; budget })
          (oneof [ oneofl Failure.modes; string_size ~gen:printable (0 -- 6) ])
          any_int;
        return (Job.Explicit []);
        map (fun l -> Job.Explicit l) (list_size (0 -- 6) (pair any_int any_int));
      ]
  in
  let generation = oneof [ return 0; int_range 1 5; map abs any_int ] in
  family >>= fun family ->
  quad any_int any_int any_int any_int >>= fun (n, topo_seed, c, t) ->
  array_size (0 -- 40) any_int >>= fun inputs ->
  triple caaf protocol failures >>= fun (caaf, protocol, failures) ->
  pair any_int generation >>= fun (seed, generation) ->
  string_size ~gen:char (0 -- 6) >>= fun tenant ->
  return
    {
      Job.tenant;
      family;
      n;
      topo_seed;
      inputs;
      c;
      t;
      caaf;
      protocol;
      failures;
      seed;
      generation;
      deadline = None;
      priority = Job.Normal;
    }

let qcheck_tests =
  [
    QCheck.Test.make ~name:"job: digest and cache key match the reference construction"
      ~count:1000 (QCheck.make spec_gen) (fun spec ->
        let digest = Job.digest spec in
        digest = reference_digest spec
        && Job.cache_key spec = reference_cache_key spec
        && Job.key_of_digest spec digest = Job.cache_key spec);
  ]

(* --- the shared store as an L2 behind the LRU --- *)

let store_dir_counter = ref 0

let with_store_dir f =
  incr store_dir_counter;
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftagg-svc-store-%d-%d" (Unix.getpid ()) !store_dir_counter)
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists d then begin
        Array.iter (fun x -> Sys.remove (Filename.concat d x)) (Sys.readdir d);
        Unix.rmdir d
      end)
    (fun () -> f d)

let open_store d = Result.get_ok (Store.open_ ~dir:d ())

let test_scheduler_store_l2 () =
  with_store_dir @@ fun d ->
  let store_a = open_store d in
  let a = Scheduler.create ~store:store_a ~settings:(settings ~batch:1 ()) () in
  ignore (Result.get_ok (Scheduler.submit a (spec ())));
  (match Scheduler.tick a () with
  | [ c ] -> check_true "first execution is not cached" (not c.Scheduler.cached)
  | _ -> Alcotest.fail "expected one completion");
  check_int "execution appended to the store" 1 (Store.entries store_a);
  (* a second scheduler — fresh (empty) L1, same directory: the same job
     completes from the store, no re-simulation *)
  let store_b = open_store d in
  let b = Scheduler.create ~store:store_b ~settings:(settings ~batch:1 ()) () in
  ignore (Result.get_ok (Scheduler.submit b (spec ())));
  (match Scheduler.tick b () with
  | [ c ] ->
    check_true "L2 hit completes as cached" c.Scheduler.cached;
    check_true "outcome intact across the disk round-trip"
      (match c.Scheduler.outcome with Ok o -> o.Job.correct | Error _ -> false)
  | _ -> Alcotest.fail "expected one completion");
  let st = Option.get (Scheduler.store_stats b) in
  check_true "store hit counted" (st.Store.s_hits >= 1);
  check_int "no duplicate append from the L2 hit" 1 (Store.entries store_b);
  (* the hit was promoted into L1: another duplicate stays off the store *)
  ignore (Result.get_ok (Scheduler.submit b (spec ~tenant:"other" ())));
  (match Scheduler.tick b () with
  | [ c ] -> check_true "promoted hit serves from L1" c.Scheduler.cached
  | _ -> Alcotest.fail "expected one completion");
  check_int "L1 hit does not touch the store again" st.Store.s_hits
    (Option.get (Scheduler.store_stats b)).Store.s_hits;
  Store.close store_a;
  Store.close store_b

(* Satellite: resuming from a checkpoint against an already-populated
   store must not duplicate store entries and must not move any cache or
   store counter — restore is bookkeeping, not traffic. *)
let test_restore_with_populated_store () =
  with_store_dir @@ fun d ->
  let ckpt = Filename.temp_file "ftagg-store-resume" ".ckpt.json" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists ckpt then Sys.remove ckpt) @@ fun () ->
  let store_a = open_store d in
  let a =
    Scheduler.create ~checkpoint_path:ckpt ~store:store_a ~settings:(settings ~batch:2 ()) ()
  in
  ignore (Result.get_ok (Scheduler.submit a (spec ())));
  ignore (Result.get_ok (Scheduler.submit a (spec ~seed:8 ())));
  ignore (Scheduler.drain a);
  ignore (Scheduler.checkpoint_now a);
  check_int "both executions on disk" 2 (Store.entries store_a);
  (* resume against the populated store *)
  let state = Result.get_ok (Checkpoint.load ~path:ckpt) in
  let store_b = open_store d in
  let b =
    Scheduler.restore ~checkpoint_path:ckpt ~store:store_b
      ~settings:(settings ~batch:2 ()) state
  in
  let st = Option.get (Scheduler.store_stats b) in
  check_int "restore appends nothing" 0 st.Store.s_appends;
  check_int "restore reads count no hits" 0 st.Store.s_hits;
  check_int "restore reads count no misses" 0 st.Store.s_misses;
  check_int "no duplicate entries" 2 (Store.entries store_b);
  let cs = Scheduler.cache_stats b in
  check_int "restore flips no cache hits" 0 cs.Cache.hits;
  check_int "restore flips no cache misses" 0 cs.Cache.misses;
  (* the restored digests still answer as cached on resubmission *)
  ignore (Result.get_ok (Scheduler.submit b (spec ())));
  (match Scheduler.tick b () with
  | [ c ] -> check_true "resubmission after resume is cached" c.Scheduler.cached
  | _ -> Alcotest.fail "expected one completion");
  Store.close store_a;
  Store.close store_b

let suite =
  [
    Alcotest.test_case "queue: per-tenant fairness" `Quick test_queue_fairness;
    Alcotest.test_case "queue: priority within tenant" `Quick test_queue_priority;
    Alcotest.test_case "queue: bounded with backpressure" `Quick test_queue_backpressure;
    Alcotest.test_case "queue: snapshot, remove, live resize" `Quick test_queue_snapshot_and_remove;
    Alcotest.test_case "cache: LRU + mirrored counters" `Quick test_cache_lru;
    Alcotest.test_case "cache: capacity 0 disables" `Quick test_cache_disabled;
    Alcotest.test_case "job: digest soundness" `Quick test_job_digest;
    Alcotest.test_case "job: a chaos-pair job answers its own aggregate" `Quick
      test_chaos_pair_job_caaf;
    Alcotest.test_case "job: generation-keyed cache key" `Quick test_job_cache_key;
    Alcotest.test_case "scheduler: new generation misses stale cache" `Quick
      test_scheduler_generation_invalidation;
    Alcotest.test_case "job: wire round-trip" `Quick test_job_json_roundtrip;
    Alcotest.test_case "job: defaults and validation" `Quick test_job_of_json_defaults_and_errors;
    Alcotest.test_case "job: golden digest vectors" `Quick test_job_digest_golden;
    Alcotest.test_case "scheduler: store is an L2 behind the LRU" `Quick test_scheduler_store_l2;
    Alcotest.test_case "scheduler: resume against a populated store" `Quick
      test_restore_with_populated_store;
    Alcotest.test_case "scheduler: duplicate = cache hit" `Quick test_scheduler_cache_hit;
    Alcotest.test_case "scheduler: cancel + deadline" `Quick test_scheduler_cancel_and_deadline;
    Alcotest.test_case "scheduler: live reconfig" `Quick test_scheduler_reconfig;
    Alcotest.test_case "scheduler: checkpoint + restore" `Quick test_scheduler_checkpoint_restore;
    Alcotest.test_case "checkpoint: codec + versioning" `Quick test_checkpoint_codec;
    Alcotest.test_case "checkpoint: atomic save leaves no tmp" `Quick test_checkpoint_atomic_save;
    Alcotest.test_case "checkpoint: torn file refused, server survives" `Quick
      test_checkpoint_torn_file_refused;
    Alcotest.test_case "server: protocol surface" `Quick test_server_protocol;
    Alcotest.test_case "server: backpressure response" `Quick test_server_backpressure_response;
    Alcotest.test_case "server: obs-off byte identity" `Quick test_server_obs_off_identity;
    Alcotest.test_case "server: JSONL job records at export" `Quick test_server_jsonl_completions;
    Alcotest.test_case "sweep: map_results never abandons" `Quick test_map_results;
    Alcotest.test_case "campaign via service" `Quick test_campaign_via_service;
    Alcotest.test_case "campaign via service: backpressure" `Quick
      test_campaign_via_service_backpressure;
    Alcotest.test_case "campaign via service: cancellation" `Quick
      test_campaign_via_service_cancellation;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
