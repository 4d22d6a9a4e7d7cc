module Bench_io = Ftagg_runner.Bench_io
module Obs = Ftagg_obs.Obs
module Export = Ftagg_obs.Export
module Registry = Ftagg_obs.Registry

type config = {
  settings : Reconfig.settings;
  checkpoint_path : string option;
  store_dir : string option;  (* shared on-disk outcome store (L2 cache) *)
  name : string;
}

let default_config =
  { settings = Reconfig.default; checkpoint_path = None; store_dir = None; name = "ftagg-serve" }

type t = {
  scheduler : Scheduler.t;
  config : config;
  obs : Obs.t;
  mutable shutdown : bool;
  mutable restored : int;  (* pending jobs recovered from the checkpoint *)
  restore_error : string option;  (* why the checkpoint was not restored *)
  store_error : string option;  (* why the store was not opened *)
}

let scheduler t = t.scheduler
let obs t = t.obs
let shutdown_requested t = t.shutdown
let checkpoint_path t = t.config.checkpoint_path
let restore_error t = t.restore_error
let store_error t = t.store_error
let store t = Scheduler.store t.scheduler

let create config =
  let obs = Obs.create ~name:config.name () in
  let restored_state, restore_error =
    match config.checkpoint_path with
    | Some path when Sys.file_exists path -> (
      match Checkpoint.load ~path with
      | Ok state -> (Some state, None)
      (* A corrupt checkpoint must not brick the server: start empty, but
         surface the reason so callers can warn (or, for a handoff
         successor, refuse to adopt). *)
      | Error e -> (None, Some e))
    | _ -> (None, None)
  in
  let store, store_error =
    match config.store_dir with
    | None -> (None, None)
    | Some dir -> (
      match Ftagg_store.Store.open_ ~registry:(Obs.registry obs) ~dir () with
      | Ok s -> (Some s, None)
      (* Same stance as a corrupt checkpoint: an unopenable store must
         not brick the server — run without the L2 and surface why. *)
      | Error e -> (None, Some e))
  in
  let scheduler =
    match restored_state with
    | Some state ->
      Scheduler.restore ~obs ?checkpoint_path:config.checkpoint_path ?store
        ~settings:config.settings state
    | None ->
      Scheduler.create ~obs ?checkpoint_path:config.checkpoint_path ?store
        ~settings:config.settings ()
  in
  {
    scheduler;
    config;
    obs;
    shutdown = false;
    restored =
      (match restored_state with
      | Some s -> List.length s.Checkpoint.s_pending
      | None -> 0);
    restore_error;
    store_error;
  }

let restored_backlog t = t.restored

(* ---- responses (always a single line) ---- *)

let line json = Bench_io.to_string ~indent:false json

let ok op fields = line (Bench_io.Obj (("ok", Bench_io.Bool true) :: ("op", Bench_io.String op) :: fields))

let err ?op error fields =
  let op_field = match op with Some o -> [ ("op", Bench_io.String o) ] | None -> [] in
  line
    (Bench_io.Obj
       ((("ok", Bench_io.Bool false) :: op_field) @ (("error", Bench_io.String error) :: fields)))

let completion_to_json (c : Scheduler.completion) =
  let base =
    [
      ("id", Bench_io.String c.Scheduler.id);
      ("tenant", Bench_io.String c.Scheduler.tenant);
      ("digest", Bench_io.String c.Scheduler.digest);
      ("cached", Bench_io.Bool c.Scheduler.cached);
    ]
  in
  match c.Scheduler.outcome with
  | Ok o -> Bench_io.Obj (base @ [ ("outcome", Job.outcome_to_json o) ])
  | Error e -> Bench_io.Obj (base @ [ ("failed", Bench_io.String e) ])

let depth_field t = ("depth", Bench_io.Int (Scheduler.depth t.scheduler))

let cache_json t =
  let s = Scheduler.cache_stats t.scheduler in
  Bench_io.Obj
    [
      ("hits", Bench_io.Int s.Cache.hits);
      ("misses", Bench_io.Int s.Cache.misses);
      ("evictions", Bench_io.Int s.Cache.evictions);
      ("entries", Bench_io.Int s.Cache.entries);
      ("capacity", Bench_io.Int s.Cache.s_capacity);
    ]

(* ---- request dispatch ---- *)

let handle_submit t json =
  match Bench_io.member "job" json with
  | None -> err ~op:"submit" "bad_request" [ ("detail", Bench_io.String "missing job object") ]
  | Some job_json -> (
    match Job.of_json ~settings:(Scheduler.settings t.scheduler) job_json with
    | Error reason -> err ~op:"submit" "bad_request" [ ("detail", Bench_io.String reason) ]
    | Ok spec -> (
      match Scheduler.submit t.scheduler spec with
      | Ok (id, digest) ->
        ok "submit"
          [
            ("id", Bench_io.String id);
            ("digest", Bench_io.String digest);
            ("status", Bench_io.String "queued");
            depth_field t;
          ]
      | Error reject ->
        err ~op:"submit" "backpressure"
          [
            ("reason", Bench_io.String (Queue.reject_reason reject));
            ("detail", Bench_io.String (Queue.reject_detail reject));
            depth_field t;
          ]))

let handle_tick t json =
  let max =
    Option.bind (Bench_io.member "max" json) Bench_io.to_int
  in
  let completions = Scheduler.tick ?max t.scheduler () in
  ok "tick"
    [
      ("completed", Bench_io.List (List.map completion_to_json completions));
      depth_field t;
    ]

let handle_drain t =
  let completions = Scheduler.drain t.scheduler in
  ok "drain"
    [
      ("completed", Bench_io.List (List.map completion_to_json completions));
      depth_field t;
    ]

let handle_get t json =
  match Bench_io.member "id" json with
  | Some (Bench_io.String id) -> (
    match Scheduler.result t.scheduler id with
    | Some c -> ok "get" [ ("found", Bench_io.Bool true); ("completion", completion_to_json c) ]
    | None -> ok "get" [ ("found", Bench_io.Bool false); ("id", Bench_io.String id) ])
  | _ -> err ~op:"get" "bad_request" [ ("detail", Bench_io.String "missing string id") ]

let handle_cancel t json =
  match Bench_io.member "id" json with
  | Some (Bench_io.String id) ->
    ok "cancel" [ ("id", Bench_io.String id); ("cancelled", Bench_io.Bool (Scheduler.cancel t.scheduler id)); depth_field t ]
  | _ -> err ~op:"cancel" "bad_request" [ ("detail", Bench_io.String "missing string id") ]

let store_json t =
  match Scheduler.store_stats t.scheduler with
  | None -> []
  | Some s ->
    [
      ( "store",
        Bench_io.Obj
          [
            ("hits", Bench_io.Int s.Ftagg_store.Store.s_hits);
            ("misses", Bench_io.Int s.Ftagg_store.Store.s_misses);
            ("appends", Bench_io.Int s.Ftagg_store.Store.s_appends);
            ("entries", Bench_io.Int s.Ftagg_store.Store.s_entries);
            ("segments", Bench_io.Int s.Ftagg_store.Store.s_segments);
          ] );
    ]

let handle_status t =
  ok "status"
    ([
       depth_field t;
       ( "tenants",
         Bench_io.List (List.map (fun s -> Bench_io.String s) (Scheduler.tenants t.scheduler)) );
       ("completed", Bench_io.Int (Scheduler.completed_count t.scheduler));
       ("tick", Bench_io.Int (Scheduler.tick_count t.scheduler));
       ("restored", Bench_io.Int t.restored);
       ("cache", cache_json t);
     ]
    @ store_json t
    @ [ ("settings", Reconfig.settings_to_json (Scheduler.settings t.scheduler)) ])

let handle_reconfig t json =
  match Bench_io.member "set" json with
  | None -> err ~op:"reconfig" "bad_request" [ ("detail", Bench_io.String "missing set object") ]
  | Some patch_json -> (
    match Reconfig.of_json patch_json with
    | Error reason -> err ~op:"reconfig" "bad_request" [ ("detail", Bench_io.String reason) ]
    | Ok patch ->
      let settings = Scheduler.reconfig t.scheduler patch in
      ok "reconfig"
        [
          ("applied", Bench_io.List (List.map (fun s -> Bench_io.String s) (Reconfig.touched patch)));
          ("settings", Reconfig.settings_to_json settings);
        ])

let handle_checkpoint t =
  match Scheduler.checkpoint_now t.scheduler with
  | Some path ->
    ok "checkpoint"
      [
        ("path", Bench_io.String path);
        depth_field t;
        ("completed", Bench_io.Int (Scheduler.completed_count t.scheduler));
      ]
  | None ->
    err ~op:"checkpoint" "no_checkpoint_path"
      [ ("detail", Bench_io.String "server started without --checkpoint") ]

let handle_metrics t =
  ok "metrics" [ ("prometheus", Bench_io.String (Export.prometheus (Scheduler.registry t.scheduler))) ]

let handle_shutdown t json =
  let drain =
    match Option.bind (Bench_io.member "drain" json) Bench_io.to_bool with
    | Some b -> b
    | None -> false
  in
  let drained = if drain then List.length (Scheduler.drain t.scheduler) else 0 in
  t.shutdown <- true;
  ok "shutdown" [ ("drained", Bench_io.Int drained); depth_field t ]

let dispatch t json =
  match Bench_io.member "op" json with
  | Some (Bench_io.String op) -> (
    match op with
    | "submit" -> handle_submit t json
    | "tick" -> handle_tick t json
    | "drain" -> handle_drain t
    | "get" -> handle_get t json
    | "cancel" -> handle_cancel t json
    | "status" -> handle_status t
    | "reconfig" -> handle_reconfig t json
    | "checkpoint" -> handle_checkpoint t
    | "metrics" -> handle_metrics t
    | "shutdown" -> handle_shutdown t json
    | other -> err "unknown_op" [ ("op", Bench_io.String other) ])
  | _ -> err "bad_request" [ ("detail", Bench_io.String "missing op field") ]

(* Overwrite the job's claimed tenant with the connection's: on a shared
   transport the handshake, not the request body, is the identity.  Only
   [submit] carries a tenant; every other op passes through untouched. *)
let stamp_tenant tenant json =
  match (Bench_io.member "op" json, json) with
  | Some (Bench_io.String "submit"), Bench_io.Obj fields -> (
    match List.assoc_opt "job" fields with
    | Some (Bench_io.Obj job_fields) ->
      let job_fields =
        ("tenant", Bench_io.String tenant) :: List.remove_assoc "tenant" job_fields
      in
      Bench_io.Obj
        (List.map
           (fun (k, v) -> if k = "job" then (k, Bench_io.Obj job_fields) else (k, v))
           fields)
    | _ -> json (* a missing/malformed job object fails validation downstream *))
  | _ -> json

let handle_as ?tenant t line_text =
  match Bench_io.of_string line_text with
  | Error e -> err "parse" [ ("detail", Bench_io.String e) ]
  | Ok json ->
    let json = match tenant with Some ten -> stamp_tenant ten json | None -> json in
    dispatch t json

let handle t line_text = handle_as t line_text

let finish t =
  (* Final checkpoint so a plain EOF (or a kill between auto-checkpoints
     followed by a clean restart of the pipeline) loses nothing that was
     completed before the last response was written. *)
  ignore (Scheduler.checkpoint_now t.scheduler)

let serve t ic oc =
  let rec loop () =
    if t.shutdown then ()
    else
      match input_line ic with
      | exception End_of_file -> ()
      | line_text ->
        if String.trim line_text <> "" then begin
          output_string oc (handle t line_text);
          output_char oc '\n';
          flush oc
        end;
        loop ()
  in
  loop ();
  finish t;
  0
