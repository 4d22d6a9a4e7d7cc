(** Execution traces: a recorder that plugs into {!Engine.run}'s
    [observer] hook and collects every broadcast for post-mortem
    inspection or debugging.

    Recording is protocol-agnostic: the caller supplies a printer for its
    message type when rendering. *)

type 'msg event = {
  round : int;
  node : int;
  payloads : 'msg list;  (** the node's broadcast that round; [[]] = silent *)
}

type 'msg t

val create : ?keep_silent:bool -> unit -> 'msg t
(** A fresh recorder.  By default silent rounds (empty broadcasts) are
    dropped; [keep_silent:true] records them too, for every node the
    engine stepped.  A node the protocol's [wake] let the engine skip
    leaves no event for that round (see {!Engine.protocol}). *)

val observer : 'msg t -> round:int -> node:int -> 'msg list -> unit
(** Pass as [Engine.run ~observer:(Trace.observer tr)]. *)

val events : 'msg t -> 'msg event list
(** All recorded events in chronological order. *)

val length : 'msg t -> int

val broadcasts_of : 'msg t -> node:int -> 'msg event list
(** Events of one node, chronological. *)

val rounds_active : 'msg t -> node:int -> int list
(** Rounds in which the node broadcast at least one payload. *)

val pp :
  pp_msg:(Format.formatter -> 'msg -> unit) ->
  Format.formatter ->
  'msg t ->
  unit
(** Render the whole trace, one line per event. *)
