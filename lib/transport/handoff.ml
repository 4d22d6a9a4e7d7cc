module Bench_io = Ftagg_runner.Bench_io

let version = 1

type mode = Fd_pass | Rebind

let mode_to_string = function Fd_pass -> "fd" | Rebind -> "rebind"

let mode_of_string = function
  | "fd" -> Some Fd_pass
  | "rebind" -> Some Rebind
  | _ -> None

let line json = Bench_io.to_string ~indent:false json

let str_member key json =
  match Bench_io.member key json with Some (Bench_io.String s) -> Some s | _ -> None

let int_member key json = Option.bind (Bench_io.member key json) Bench_io.to_int

let takeover_request mode =
  line
    (Bench_io.Obj
       [
         ("op", Bench_io.String "takeover");
         ("version", Bench_io.Int version);
         ("mode", Bench_io.String (mode_to_string mode));
       ])

let adopted_line =
  line (Bench_io.Obj [ ("op", Bench_io.String "adopted"); ("version", Bench_io.Int version) ])

let refusal ~error ~detail =
  line
    (Bench_io.Obj
       [
         ("ok", Bench_io.Bool false);
         ("op", Bench_io.String "takeover");
         ("error", Bench_io.String error);
         ("detail", Bench_io.String detail);
       ])

type reply = { r_address : string; r_checkpoint : string option; r_fd_follows : bool }

let reply_line r =
  line
    (Bench_io.Obj
       [
         ("ok", Bench_io.Bool true);
         ("op", Bench_io.String "takeover");
         ("version", Bench_io.Int version);
         ("address", Bench_io.String r.r_address);
         ( "checkpoint",
           match r.r_checkpoint with Some p -> Bench_io.String p | None -> Bench_io.Null );
         ("fd_follows", Bench_io.Bool r.r_fd_follows);
       ])

let parse_reply s =
  match Bench_io.of_string s with
  | Error e -> Error (Printf.sprintf "takeover reply does not parse: %s" e)
  | Ok json -> (
    match Bench_io.member "ok" json with
    | Some (Bench_io.Bool false) ->
      let error = Option.value (str_member "error" json) ~default:"refused" in
      let detail = Option.value (str_member "detail" json) ~default:"" in
      Error (Printf.sprintf "takeover refused: %s%s" error
           (if detail = "" then "" else " (" ^ detail ^ ")"))
    | Some (Bench_io.Bool true) -> (
      match int_member "version" json with
      | Some v when v <> version ->
        Error (Printf.sprintf "takeover reply version %d (expected %d)" v version)
      | _ -> (
        match str_member "address" json with
        | None -> Error "takeover reply without an address"
        | Some r_address ->
          let r_checkpoint = str_member "checkpoint" json in
          let r_fd_follows =
            match Option.bind (Bench_io.member "fd_follows" json) Bench_io.to_bool with
            | Some b -> b
            | None -> false
          in
          Ok { r_address; r_checkpoint; r_fd_follows }))
    | _ -> Error "takeover reply without an ok field")

let parse_request s =
  match Bench_io.of_string s with
  | Error e -> Error (`Refuse ("bad_request", Printf.sprintf "unparseable control line: %s" e))
  | Ok json -> (
    match str_member "op" json with
    | Some "takeover" -> (
      match int_member "version" json with
      | Some v when v <> version ->
        Error
          (`Refuse
             ( "version_mismatch",
               Printf.sprintf "control protocol version %d (this server speaks %d)" v version ))
      | None -> Error (`Refuse ("version_mismatch", "takeover request without a version"))
      | Some _ -> (
        match mode_of_string (Option.value (str_member "mode" json) ~default:"fd") with
        | Some mode -> Ok mode
        | None -> Error (`Refuse ("bad_request", "mode must be \"fd\" or \"rebind\""))))
    | Some other -> Error (`Refuse ("bad_request", Printf.sprintf "unknown control op %S" other))
    | None -> Error (`Refuse ("bad_request", "control line without an op")))

let parse_adopted s =
  match Bench_io.of_string s with
  | Error _ -> false
  | Ok json -> str_member "op" json = Some "adopted" && int_member "version" json = Some version

(* ------------------------------------------------------------------ *)
(* Successor side                                                      *)
(* ------------------------------------------------------------------ *)

module Takeover = struct
  type outcome = {
    address : string;
    checkpoint_path : string option;
    fd : Unix.file_descr option;
  }

  type state =
    | Awaiting_reply
    | Awaiting_fd of reply
    | Ready of outcome
    | Failed of string
    | Closed

  type t = {
    fd : Unix.file_descr;
    frame : Frame.t;
    mode : mode;
    mutable state : state;
    mutable got_fd : Unix.file_descr option;
        (* a descriptor can ride in on the same recvmsg as reply bytes,
           so it is captured eagerly whatever state we are in *)
  }

  let start ?(mode = Fd_pass) ~ctl () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Unix.connect fd (Unix.ADDR_UNIX ctl);
      let req = takeover_request mode ^ "\n" in
      ignore (Unix.write_substring fd req 0 (String.length req));
      Unix.set_nonblock fd
    with
    | () ->
      Ok { fd; frame = Frame.create ~max_line:65536; mode; state = Awaiting_reply; got_fd = None }
    | exception Unix.Unix_error (e, fn, _) ->
      (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
      Error (Printf.sprintf "takeover: %s: %s(%s)" ctl (Unix.error_message e) fn)

  let read_buf = Bytes.create 4096

  let fail t msg =
    t.state <- Failed msg;
    `Failed msg

  (* One nonblocking read; returns the completed lines (empty on EAGAIN)
     and stashes a received descriptor into [got_fd].  Every read goes
     through [recv_with_fd]: a plain [read] would make the kernel drop —
     and close — an SCM_RIGHTS descriptor attached to the bytes. *)
  let read_lines t =
    match Fd_passing.recv_with_fd ~sock:t.fd read_buf with
    | Error "EAGAIN" -> Ok []
    | Error msg -> Error msg
    | Ok (0, _) -> Error "incumbent closed the control connection"
    | Ok (n, fd_opt) ->
      (match fd_opt with Some fd -> t.got_fd <- Some fd | None -> ());
      Ok
        (List.filter_map
           (function Frame.Line l -> Some l | Frame.Oversized _ -> None)
           (Frame.feed t.frame read_buf ~off:0 ~len:n))

  let rec step t =
    match t.state with
    | Ready o -> `Ready o
    | Failed msg -> `Failed msg
    | Closed -> `Failed "takeover already closed"
    | Awaiting_reply -> (
      match read_lines t with
      | Error msg -> fail t msg
      | Ok [] -> `Pending
      | Ok (line :: _) -> (
        match parse_reply line with
        | Error msg -> fail t msg
        | Ok reply ->
          if reply.r_fd_follows then begin
            t.state <- Awaiting_fd reply;
            step t
          end
          else begin
            t.state <-
              Ready
                {
                  address = reply.r_address;
                  checkpoint_path = reply.r_checkpoint;
                  fd = None;
                };
            step t
          end))
    | Awaiting_fd reply -> (
      match t.got_fd with
      | Some listen_fd ->
        t.got_fd <- None;
        t.state <-
          Ready
            {
              address = reply.r_address;
              checkpoint_path = reply.r_checkpoint;
              fd = Some listen_fd;
            };
        step t
      | None -> (
        match read_lines t with
        | Error msg -> fail t msg
        | Ok _ -> if t.got_fd = None then `Pending else step t))

  let close_ctl t =
    (try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ());
    t.state <- Closed

  let confirm t =
    (match t.state with
    | Ready _ ->
      let ack = adopted_line ^ "\n" in
      (* The socket is nonblocking, but a one-line write into an empty
         buffer cannot meaningfully short-write; EAGAIN here means the
         incumbent is gone, which [close] below settles either way. *)
      (try ignore (Unix.write_substring t.fd ack 0 (String.length ack))
       with Unix.Unix_error (_, _, _) -> ())
    | _ -> ());
    close_ctl t

  let abort t =
    (* Closing an fd we received but will not use matters: it is a live
       dup of the incumbent's listener. *)
    (match t.state with
    | Ready { fd = Some listen_fd; _ } -> (
      try Unix.close listen_fd with Unix.Unix_error (_, _, _) -> ())
    | _ -> ());
    (match t.got_fd with
    | Some fd ->
      t.got_fd <- None;
      (try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    | None -> ());
    close_ctl t

  let run ?mode ?(sleep = Unix.sleepf) ~ctl () =
    let timeout = 30. in
    match start ?mode ~ctl () with
    | Error e -> Error e
    | Ok t ->
      let deadline = Unix.gettimeofday () +. timeout in
      let rec loop () =
        match step t with
        | `Ready outcome -> Ok (t, outcome)
        | `Failed msg ->
          abort t;
          Error msg
        | `Pending ->
          if Unix.gettimeofday () > deadline then begin
            abort t;
            Error (Printf.sprintf "takeover timed out after %.0fs" timeout)
          end
          else begin
            sleep 0.01;
            loop ()
          end
      in
      loop ()
end
