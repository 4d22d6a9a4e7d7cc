(* The service's job engine: admission (bounded queue, per-tenant
   fairness), dispatch (cache lookup, then a Sweep batch over domains),
   bookkeeping (results table, telemetry, auto-checkpoint).

   Everything is driven by explicit [tick] calls from a single thread —
   only [Job.execute] runs on domains, and jobs are pure functions of
   their specs, so there is no shared mutable state to guard.  Settings
   are re-read at job boundaries (admission and tick), which is what
   makes [reconfig] safe to apply at any time. *)

module Registry = Ftagg_obs.Registry
module Obs = Ftagg_obs.Obs
module Sweep = Ftagg_runner.Sweep
module Bench_io = Ftagg_runner.Bench_io
module Store = Ftagg_store.Store

(* [q_key] is the job's {!Job.cache_key}, computed once at admission. *)
type queued = { q_id : string; q_spec : Job.spec; q_key : string; q_enqueued : int }

type completion = {
  id : string;
  tenant : string;
  digest : string;
  cached : bool;
  outcome : (Job.outcome, string) result;
  violation : Ftagg_sim.Engine.violation option;
}

type t = {
  mutable settings : Reconfig.settings;
  queue : queued Queue.t;
  cache : Job.executed Cache.t;
  results : (string, completion) Hashtbl.t;
  mutable completed_order : string list;  (* reverse completion order *)
  mutable restored : int;  (* completions a checkpoint seeded: [completed_order]'s tail *)
  mutable next_id : int;
  mutable tick_count : int;
  mutable since_checkpoint : int;
  checkpoint_path : string option;
  store : Store.t option;  (* shared on-disk L2 behind the LRU cache *)
  obs : Obs.t option;
  registry : Registry.t;
}

let registry t = t.registry
let settings t = t.settings
let depth t = Queue.length t.queue
let tenants t = Queue.tenants t.queue
(* [results] holds one entry per completed id ([record_completion],
   [restore]), so every status and checkpoint response reads the count in
   O(1). *)
let completed_count t = Hashtbl.length t.results
let cache_stats t = Cache.stats t.cache
let tick_count t = t.tick_count

let count t ?labels name k = Registry.incr t.registry ?labels name k
let set_depth_gauge t = Registry.set_gauge t.registry "service_queue_depth" (float_of_int (depth t))

let create ?obs ?checkpoint_path ?store ~settings () =
  let registry =
    match obs with Some o -> Obs.registry o | None -> Registry.create ()
  in
  {
    settings;
    queue = Queue.create ~capacity:settings.Reconfig.queue_capacity;
    cache = Cache.create ~registry ~capacity:settings.Reconfig.cache_capacity ();
    results = Hashtbl.create 64;
    completed_order = [];
    restored = 0;
    next_id = 1;
    tick_count = 0;
    since_checkpoint = 0;
    checkpoint_path;
    store;
    obs;
    registry;
  }

let store t = t.store
let store_stats t = Option.map Store.stats t.store

(* L2 lookup: a digest another process (or a previous life) already
   resolved is served from the shared store and promoted into the LRU,
   so repeats stay off the disk. *)
let store_find t digest =
  match t.store with
  | None -> None
  | Some store -> (
    match Store.find store digest with
    | None -> None
    | Some json -> (
      match Job.outcome_of_json json with
      | Error _ -> None
      | Ok outcome ->
        let executed = { Job.outcome; violation = None } in
        Cache.add t.cache digest executed;
        Some executed))

(* Completions flow into the store as they happen, making them visible
   to every other fleet member.  [Store.add] dedupes on digest. *)
let store_put t digest (executed : Job.executed) =
  match t.store with
  | None -> ()
  | Some store -> Store.add store digest (Job.outcome_to_json executed.Job.outcome)

let fresh_id t =
  let id = Printf.sprintf "j%d" t.next_id in
  t.next_id <- t.next_id + 1;
  id

let submit t (spec : Job.spec) =
  let id = fresh_id t in
  let digest = Job.digest spec in
  let entry =
    { q_id = id; q_spec = spec; q_key = Job.key_of_digest spec digest; q_enqueued = t.tick_count }
  in
  match
    Queue.submit t.queue ~tenant:spec.Job.tenant
      ~priority:(Job.priority_rank spec.Job.priority) entry
  with
  | Ok () ->
    count t ~labels:[ ("tenant", spec.Job.tenant) ] "service_jobs_submitted_total" 1;
    set_depth_gauge t;
    Ok (id, digest)
  | Error reject ->
    count t "service_jobs_rejected_total" 1;
    set_depth_gauge t;
    Error reject

let cancel t id =
  match Queue.remove t.queue (fun q -> q.q_id = id) with
  | [] -> false
  | _ :: _ ->
    count t "service_jobs_cancelled_total" 1;
    set_depth_gauge t;
    true

let result t id = Hashtbl.find_opt t.results id

let record_completion t completion =
  Hashtbl.replace t.results completion.id completion;
  t.completed_order <- completion.id :: t.completed_order;
  t.since_checkpoint <- t.since_checkpoint + 1;
  count t ~labels:[ ("tenant", completion.tenant) ] "service_jobs_completed_total" 1;
  match completion.outcome with
  | Ok o -> Registry.observe t.registry "service_job_rounds" (float_of_int o.Job.rounds)
  | Error _ -> count t "service_jobs_failed_total" 1

(* A server that kept an event per completion would grow with every job
   served, so the records are built here, at export, from the results
   table.  All but the [restored] oldest ids of [completed_order] are
   this process's. *)
let export_completions t =
  match t.obs with
  | None -> ()
  | Some obs ->
    let rec own k acc = function
      | id :: older when k > 0 -> own (k - 1) (Hashtbl.find t.results id :: acc) older
      | _ -> acc
    in
    List.iter
      (fun c ->
        Obs.event obs ~kind:"job_completed"
          [
            ("id", Bench_io.String c.id);
            ("tenant", Bench_io.String c.tenant);
            ("digest", Bench_io.String c.digest);
            ("cached", Bench_io.Bool c.cached);
            ( "outcome",
              match c.outcome with Ok o -> Job.outcome_to_json o | Error e -> Bench_io.String e );
          ])
      (own (List.length t.completed_order - t.restored) [] t.completed_order)

(* ---- checkpointing ---- *)

let snapshot t =
  {
    Checkpoint.s_next_id = t.next_id;
    s_tick = t.tick_count;
    s_pending = List.map (fun q -> (q.q_id, q.q_spec)) (Queue.to_list t.queue);
    s_completed =
      List.rev_map
        (fun id ->
          let c = Hashtbl.find t.results id in
          {
            Checkpoint.d_id = c.id;
            d_tenant = c.tenant;
            d_digest = c.digest;
            d_cached = c.cached;
            d_outcome = c.outcome;
          })
        t.completed_order;
  }

let checkpoint_now t =
  match t.checkpoint_path with
  | None -> None
  | Some path ->
    Checkpoint.save ~path (snapshot t);
    t.since_checkpoint <- 0;
    count t "service_checkpoints_total" 1;
    Some path

let maybe_checkpoint t =
  let every = t.settings.Reconfig.checkpoint_every in
  if every > 0 && t.since_checkpoint >= every then ignore (checkpoint_now t)

let restore ?obs ?checkpoint_path ?store ~settings (state : Checkpoint.state) =
  let t = create ?obs ?checkpoint_path ?store ~settings () in
  t.next_id <- state.Checkpoint.s_next_id;
  t.tick_count <- state.Checkpoint.s_tick;
  (* Completed results re-seed the results table.  Without a store they
     also re-seed the cache; with one, re-seeding is deduplicated against
     it — a digest the store already holds is served from L2 on demand,
     and only genuinely new outcomes (completed after the store's last
     sight of this scheduler) are appended.  Either way no cache hit or
     miss counter moves: restore is bookkeeping, not lookups. *)
  List.iter
    (fun (d : Checkpoint.done_entry) ->
      let completion =
        {
          id = d.Checkpoint.d_id;
          tenant = d.Checkpoint.d_tenant;
          digest = d.Checkpoint.d_digest;
          cached = d.Checkpoint.d_cached;
          outcome = d.Checkpoint.d_outcome;
          violation = None;
        }
      in
      Hashtbl.replace t.results completion.id completion;
      t.completed_order <- completion.id :: t.completed_order;
      t.restored <- t.restored + 1;
      match d.Checkpoint.d_outcome with
      | Ok o -> (
        let executed = { Job.outcome = o; violation = None } in
        match t.store with
        | Some s when Store.mem s d.Checkpoint.d_digest -> ()
        | Some s ->
          Store.add s d.Checkpoint.d_digest (Job.outcome_to_json o);
          Cache.add t.cache d.Checkpoint.d_digest executed
        | None -> Cache.add t.cache d.Checkpoint.d_digest executed)
      | Error _ -> ())
    state.Checkpoint.s_completed;
  (* Re-admit the backlog in checkpoint (= pop) order.  Admission was
     already granted in the previous life, so bypass the capacity gate by
     widening it for the duration. *)
  let cap = Queue.capacity t.queue in
  Queue.set_capacity t.queue (max cap (List.length state.Checkpoint.s_pending + Queue.length t.queue));
  List.iter
    (fun (id, (spec : Job.spec)) ->
      let entry =
        { q_id = id; q_spec = spec; q_key = Job.cache_key spec; q_enqueued = t.tick_count }
      in
      match
        Queue.submit t.queue ~tenant:spec.Job.tenant
          ~priority:(Job.priority_rank spec.Job.priority) entry
      with
      | Ok () -> ()
      | Error _ -> assert false)
    state.Checkpoint.s_pending;
  Queue.set_capacity t.queue cap;
  t.since_checkpoint <- 0;
  set_depth_gauge t;
  t

(* ---- dispatch ---- *)

let expired t q =
  match q.q_spec.Job.deadline with
  | None -> false
  | Some deadline -> t.tick_count - q.q_enqueued > deadline

let tick ?max t () =
  t.tick_count <- t.tick_count + 1;
  let batch_size = match max with Some m -> m | None -> t.settings.Reconfig.tick_batch in
  (* Pop the batch, resolving expiries and cache hits inline; only true
     misses go to the domain pool. *)
  let rec take acc misses k =
    if k = 0 then (List.rev acc, List.rev misses)
    else
      match Queue.pop t.queue with
      | None -> (List.rev acc, List.rev misses)
      | Some (_, q) ->
        (* the generation-aware cache key, not the bare digest: a job
           admitted under generation g never hits a g-1 entry *)
        let digest = q.q_key in
        if expired t q then begin
          count t "service_jobs_expired_total" 1;
          let completion =
            {
              id = q.q_id;
              tenant = q.q_spec.Job.tenant;
              digest;
              cached = false;
              outcome =
                Error
                  (Printf.sprintf "deadline exceeded: waited %d ticks, deadline %d"
                     (t.tick_count - q.q_enqueued)
                     (Option.value q.q_spec.Job.deadline ~default:0));
              violation = None;
            }
          in
          take (completion :: acc) misses (k - 1)
        end
        else
          let hit =
            match Cache.find t.cache digest with
            | Some _ as h -> h
            | None -> store_find t digest
          in
          match hit with
          | Some (executed : Job.executed) ->
            let completion =
              {
                id = q.q_id;
                tenant = q.q_spec.Job.tenant;
                digest;
                cached = true;
                outcome = Ok executed.Job.outcome;
                violation = executed.Job.violation;
              }
            in
            take (completion :: acc) misses (k - 1)
          | None -> take acc ((q, digest) :: misses) (k - 1)
  in
  let resolved, misses = take [] [] (Stdlib.max 1 batch_size) in
  (* In-batch dedup: when caching is on, one execution per distinct
     digest; co-batched duplicates are then served from the just-filled
     cache (so they register as hits and count no simulation). *)
  let unique =
    if Cache.capacity t.cache = 0 then misses
    else begin
      let seen = Hashtbl.create 8 in
      List.filter
        (fun (_, digest) ->
          if Hashtbl.mem seen digest then false
          else begin
            Hashtbl.add seen digest ();
            true
          end)
        misses
    end
  in
  let executed =
    Sweep.map_results ~domains:t.settings.Reconfig.domains
      (fun (q, _) -> Job.execute q.q_spec)
      unique
  in
  let own = Hashtbl.create 8 in
  let by_digest = Hashtbl.create 8 in
  List.iter2
    (fun (q, digest) result ->
      Hashtbl.replace own q.q_id result;
      Hashtbl.replace by_digest digest result;
      match result with
      | Ok e ->
        Cache.add t.cache digest e;
        store_put t digest e
      | Error _ -> ())
    unique executed;
  let miss_completions =
    List.map
      (fun (q, digest) ->
        let mk cached outcome violation =
          { id = q.q_id; tenant = q.q_spec.Job.tenant; digest; cached; outcome; violation }
        in
        match Hashtbl.find_opt own q.q_id with
        | Some (Ok (e : Job.executed)) -> mk false (Ok e.Job.outcome) e.Job.violation
        | Some (Error exn) -> mk false (Error (Printexc.to_string exn)) None
        | None -> (
          (* co-batched duplicate: its representative ran above *)
          match Cache.find t.cache digest with
          | Some e -> mk true (Ok e.Job.outcome) e.Job.violation
          | None -> (
            match Hashtbl.find_opt by_digest digest with
            | Some (Error exn) -> mk false (Error (Printexc.to_string exn)) None
            | _ -> mk false (Error "representative execution missing") None)))
      misses
  in
  let completions = resolved @ miss_completions in
  List.iter (record_completion t) completions;
  set_depth_gauge t;
  maybe_checkpoint t;
  completions

let drain t =
  let rec go acc =
    if Queue.is_empty t.queue then List.concat (List.rev acc)
    else go (tick t () :: acc)
  in
  go []

let reconfig t patch =
  let settings = Reconfig.apply patch t.settings in
  t.settings <- settings;
  Queue.set_capacity t.queue settings.Reconfig.queue_capacity;
  Cache.set_capacity t.cache settings.Reconfig.cache_capacity;
  count t "service_reconfigs_total" 1;
  (match t.obs with
  | None -> ()
  | Some obs ->
    Obs.event obs ~kind:"reconfig"
      [ ("touched", Bench_io.List (List.map (fun s -> Bench_io.String s) (Reconfig.touched patch))) ]);
  settings
