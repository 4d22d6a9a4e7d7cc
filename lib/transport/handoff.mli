(** The zero-downtime handoff protocol: wire format shared by the
    incumbent ({!Listener}) and the successor ({!Takeover}).

    Every server with a control socket listens on a {e versioned} unix
    control socket next to its data listener (by convention
    [<listen-path>.ctl]).  A successor process connects to it and runs:

    {v
      successor -> incumbent   {"op":"takeover","version":1,"mode":"fd"}
      incumbent: pause accepting, close client connections with a
                 structured goodbye, finish the admitted backlog,
                 write the final checkpoint
      incumbent -> successor   {"ok":true,"op":"takeover","version":1,
                                "address":"unix:/run/a.sock",
                                "checkpoint":"a.ckpt.json",
                                "fd_follows":true}
      incumbent -> successor   [the listening fd, via SCM_RIGHTS]
      successor: resume from the checkpoint (cache re-seeded), adopt
                 the fd, start serving
      successor -> incumbent   {"op":"adopted","version":1}
      incumbent: exit 0 without touching the socket path
    v}

    [mode = "rebind"] is the TCP-friendly fallback: instead of passing
    the fd the incumbent closes its listener (unlinking a unix path)
    before replying, and the successor binds the address itself; clients
    ride over the gap on {!Client} retry/backoff.

    Failure matrix (see DESIGN §12): a second takeover request while one
    is in flight is refused with [handoff_in_progress]; a successor that
    dies mid-takeover (control connection EOF before [adopted]) makes
    the incumbent resume — re-accepting on its kept fd in [fd] mode,
    re-binding in [rebind] mode. *)

val version : int
(** Control-protocol version; both sides refuse a mismatch. *)

type mode = Fd_pass | Rebind

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

(** {2 Wire format} (single-line JSON, shared by both sides) *)

val takeover_request : mode -> string
val adopted_line : string

val refusal : error:string -> detail:string -> string
(** An [{"ok":false,"op":"takeover","error":...}] line. *)

type reply = {
  r_address : string;  (** the data listener's address string *)
  r_checkpoint : string option;  (** checkpoint the successor resumes from *)
  r_fd_follows : bool;  (** an SCM_RIGHTS descriptor follows this line *)
}

val reply_line : reply -> string
val parse_reply : string -> (reply, string) result

val parse_request : string -> (mode, [ `Refuse of string * string ]) result
(** Decode a takeover request; [`Refuse (error, detail)] carries the
    structured refusal to send back ([version_mismatch], [bad_request]). *)

val parse_adopted : string -> bool
(** Is this line a well-formed [adopted] ack (matching version)? *)

(** {2 The successor side} *)

module Takeover : sig
  type outcome = {
    address : string;  (** parseable by [Listener.address_of_string] *)
    checkpoint_path : string option;
    fd : Unix.file_descr option;  (** [Some] iff the fd-pass path ran *)
  }

  type t

  val start : ?mode:mode -> ctl:string -> unit -> (t, string) result
  (** Connect to the incumbent's control socket and send the takeover
      request.  The connection is nonblocking: drive it with {!step}. *)

  val step : t -> [ `Pending | `Ready of outcome | `Failed of string ]
  (** One poll: [`Pending] until the reply (and fd, in [fd] mode) has
      arrived.  [`Ready] is returned on every call thereafter; the
      caller builds its listener, then calls {!confirm}. *)

  val confirm : t -> unit
  (** Send the [adopted] ack and close the control connection — the
      incumbent exits.  Call only after the successor listener is
      actually serving. *)

  val abort : t -> unit
  (** Close the control connection without acking — the incumbent
      resumes.  Safe at any point; used on successor-side failure. *)

  val run :
    ?mode:mode -> ?sleep:(float -> unit) -> ctl:string -> unit ->
    (t * outcome, string) result
  (** Blocking convenience for the CLI: {!start} then {!step} until
      ready, sleeping [sleep] (default [Unix.sleepf 0.01]) between
      polls, giving up after 30 seconds. *)
end
