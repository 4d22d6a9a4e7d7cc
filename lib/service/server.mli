(** The aggregation server: a line-based JSON request/response protocol
    over any channel pair (the CLI wires it to stdin/stdout, tests call
    {!handle} directly — no sockets anywhere, so the whole protocol is
    scriptable and deterministic).

    Every request is one JSON object on one line with an ["op"] field;
    every response is one line, [{"ok": true, ...}] or
    [{"ok": false, "error": ...}].  A malformed line gets an error
    {e response} — it never kills the server.  Ops:

    - [submit]: admit [{"op":"submit","job":{...}}] (see {!Job.of_json});
      answers with the job id and digest, or a [backpressure] error with
      the queue-full reason.
    - [tick] (optional ["max"]): run one dispatch round; answers with the
      completions.
    - [drain]: run the whole backlog.
    - [get] / [cancel]: by id.
    - [status]: depth, tenants, cache stats, settings, restored backlog.
    - [reconfig]: [{"op":"reconfig","set":{"default_b":126,...}}] — live
      patch via {!Reconfig}, applied at a job boundary.
    - [checkpoint]: force a snapshot now.
    - [metrics]: the Prometheus rendering of the service registry.
    - [shutdown] (optional ["drain"]: true): finish and exit the serve
      loop.

    Except for [metrics] (which {e is} telemetry), every response is
    byte-identical whether telemetry is globally enabled or not: response
    fields come from the scheduler's own state, never from the registry. *)

type config = {
  settings : Reconfig.settings;
  checkpoint_path : string option;
      (** enables resume-on-start (loaded when the file exists), periodic
          auto-checkpoints, the [checkpoint] op, and a final snapshot on
          exit *)
  store_dir : string option;
      (** directory of the shared on-disk outcome store; when set, the
          scheduler gains it as an L2 behind the LRU cache and every
          fresh execution is appended for other fleet members to reuse *)
  name : string;  (** labels the telemetry sink *)
}

val default_config : config

type t

val create : config -> t
(** Build the server; when [config.checkpoint_path] names an existing,
    readable checkpoint, the scheduler resumes from it (a corrupt file is
    ignored rather than fatal). *)

val handle : t -> string -> string
(** One request line in, one response line out — the whole protocol,
    usable without any process machinery. *)

val handle_as : ?tenant:string -> t -> string -> string
(** {!handle} on behalf of an authenticated client: [tenant] (when
    given) is stamped over the [job.tenant] of every [submit] before
    dispatch, so a transport that binds identity at the connection (the
    socket listener's [hello] handshake) makes tenant spoofing through
    the request body impossible.  [handle] is [handle_as] with no
    tenant. *)

val serve : t -> in_channel -> out_channel -> int
(** Read requests until EOF or a [shutdown] op, writing one response line
    per request (blank lines are skipped); writes a final checkpoint when
    configured.  Returns the process exit code (0). *)

val scheduler : t -> Scheduler.t
val obs : t -> Ftagg_obs.Obs.t
val shutdown_requested : t -> bool

val restored_backlog : t -> int
(** Pending jobs recovered from the checkpoint at startup. *)

val checkpoint_path : t -> string option
(** The configured checkpoint path (what a handoff successor resumes
    from). *)

val restore_error : t -> string option
(** Why the startup checkpoint was {e not} restored ([Some] iff a file
    existed but was torn/corrupt/unreadable).  The server still starts —
    empty — but callers that need the state (the CLI's warning banner,
    [--takeover]) can refuse or report. *)

val store : t -> Ftagg_store.Store.t option
(** The shared outcome store, when [config.store_dir] was set and opened. *)

val store_error : t -> string option
(** Why the store was {e not} opened ([Some] iff [store_dir] was set but
    unopenable); the server runs without the L2 rather than bricking. *)

val finish : t -> unit
(** Write the final checkpoint (what {!serve} does on exit) — for
    embedders driving {!handle} themselves. *)
