(** The client for the socket transport — what [ftagg client --connect]
    (and the socket smoke in CI) speaks.

    The protocol is strict request/response lockstep: every non-empty
    line sent gets exactly one response line.  The client is a
    {e resilient} {!session}: jittered-exponential retry/backoff with
    per-attempt timeouts and automatic reconnect + re-handshake, built
    for riding through a server restart or a live handoff.  Resubmitting
    after a connection loss is safe because job identity is the FNV-1a
    content digest — a request that did execute before the connection
    died comes back as a cache hit, not a duplicate execution.

    The session treats three things as {e transient} (retry): connect
    failure, connection loss/timeout mid-exchange, and a connection-fate
    notice — an [{"ok":false,"op":"transport",...}] line whose error is
    [handing_off] (the handoff goodbye), [idle_timeout] or [server_busy];
    such a line announces the connection's fate and is never the answer
    to a request.  Other [ok:false] lines are genuine responses; in
    particular a handshake refusal (bad token) is {e permanent}:
    {!srequest} returns [Refused] without retrying. *)

val probe : Listener.address -> bool
(** Cheap liveness check: can a connection be opened to [address] right
    now?  Connects and immediately closes — no handshake, no request —
    so it is safe against authenticated listeners and costs the server
    one accept.  What the fleet client uses to skip known-dead endpoints
    without spending a retry budget on them. *)

(** {2 Retry policy} *)

type retry = {
  attempts : int;  (** total tries per request, including the first
                       (default 5) *)
  backoff_ms : int;  (** base delay before the first retry (default 50) *)
  max_backoff_ms : int;  (** exponential growth cap (default 2000) *)
  timeout_ms : int;  (** per-attempt budget: connect + handshake +
                         request + response (default 5000) *)
  seed : int;  (** jitter PRNG seed — the whole backoff schedule is
                   deterministic given the seed (default 1) *)
}

val retry : ?attempts:int -> ?backoff_ms:int -> ?max_backoff_ms:int -> ?timeout_ms:int ->
  ?seed:int -> unit -> retry
(** Build a policy; every field is clamped to at least 1. *)

val backoff_schedule : retry -> float list
(** The exact delays (milliseconds) a fresh session with this policy
    would sleep between consecutive failed attempts: [attempts - 1]
    values, [min (max_backoff_ms, backoff_ms * 2^k) * (0.5 + 0.5u)] with
    [u] drawn from the seeded PRNG — pure, for tests asserting
    reproducibility. *)

(** {2 The resilient session} *)

type session

type failure =
  | Refused of string
      (** the server answered the handshake with [{"ok":false,...}] —
          permanent; the payload is that response line *)
  | Exhausted of string
      (** every attempt failed transiently; the payload is the last
          failure *)

val failure_message : failure -> string

val session : ?token:string -> ?tenant:string -> ?retry:retry -> ?pump:(unit -> unit) ->
  Listener.address -> session
(** A lazy session: nothing connects until the first {!srequest}.
    [token]/[tenant] are replayed in a fresh [hello] on {e every}
    (re)connect, so a session keeps its authenticated identity across a
    handoff.  [pump] is called while waiting (connect backoff, response
    polling) — in-process tests and benches pass the listener's
    [poll] so one thread can drive both ends. *)

val srequest : session -> string -> (string, failure) result
(** Send one request line, retrying per the policy; reconnects (and
    re-runs the handshake) whenever the connection is lost. *)

val shello : session -> (string option, failure) result
(** Force the connection (and handshake) now, with the same retry
    policy; returns the server's hello response line ([None] when the
    session has no token/tenant, so no handshake is sent). *)

val reconnects : session -> int
(** Connections established beyond the first — how many times the
    session healed. *)

val attempts_used : session -> int
(** Total attempts across all {!srequest} calls (≥ number of calls). *)

val sclose : session -> unit
