(* The load side of the service workloads: the shipped [ftagg serve]
   binary as a child process, and one blocking connection to it.

   Hardening: every way a request can go wrong (a dead server, a closed
   or timed-out socket, a malformed or [ok:false] line) comes back as an
   [Error], never as an exception; the server is always SIGTERMed and
   reaped, and the directory holding its socket, control socket and store
   is removed, on every exit path. *)

open Common

type server = { pid : int; socket : string }

let timeout_s = 30.

let rec waitpid_noeintr flags pid =
  try Unix.waitpid flags pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr flags pid

let reaped pid =
  match waitpid_noeintr [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* SIGTERM (a server drains and exits), SIGKILL after 10 s, then reap. *)
let terminate pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now_ns () + 10_000_000_000 in
  let rec wait () =
    if not (reaped pid) then
      if now_ns () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (try waitpid_noeintr [] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))
      end
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
  in
  wait ()

let stop s = terminate s.pid

(* A blocking connection with receive/send timeouts. *)
type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () ->
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s;
    Ok { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception Unix.Unix_error (e, _, _) ->
    Unix.close fd;
    Error (Unix.error_message e)

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

type error =
  | Lost of string  (** the connection is gone, or a read or write timed out *)
  | Refused of string  (** a malformed or [ok:false] response line *)

let error_message = function Lost e -> "connection lost: " ^ e | Refused e -> e

(* One line out; one line back that parses and says [ok:true]. *)
let request c line =
  match
    output_string c.oc line;
    output_char c.oc '\n';
    flush c.oc;
    input_line c.ic
  with
  | exception End_of_file -> Error (Lost "closed by the server")
  | exception Sys_error e -> Error (Lost e)
  | response -> (
    match Bench_io.of_string response with
    | Error e -> Error (Refused ("malformed response: " ^ e))
    | Ok json -> (
      match Bench_io.member "ok" json with
      | Some (Bench_io.Bool true) -> Ok json
      | _ -> Error (Refused ("server refused: " ^ response))))

(* Poll until the server accepts a connection, it exits, or 20 s pass. *)
let rec await_ready s ~deadline =
  if reaped s.pid then Error "server exited during start-up"
  else if now_ns () > deadline then Error "server did not accept connections within 20 s"
  else
    match connect s.socket with
    | Ok c -> Ok c
    | Error _ ->
      Unix.sleepf 0.002;
      await_ready s ~deadline

(* Spawn [exe serve] on a unix socket under [dir] and connect to it. *)
let spawn ~exe ~dir =
  let socket = Filename.concat dir "s.sock" in
  let args =
    [| exe; "serve"; "--listen"; "unix:" ^ socket; "--store"; Filename.concat dir "store";
       "--checkpoint-every"; "0" |]
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let log =
    Unix.openfile (Filename.concat dir "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  match
    Fun.protect
      ~finally:(fun () ->
        Unix.close null;
        Unix.close log)
      (fun () -> Unix.create_process exe args null null log)
  with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "cannot run %s: %s" exe (Unix.error_message e))
  | pid -> (
    let s = { pid; socket } in
    match await_ready s ~deadline:(now_ns () + 20_000_000_000) with
    | Ok c -> Ok (s, c)
    | Error e ->
      stop s;
      Error e)

(* [f] with a running server and a connection to it; on every exit path
   the connection is closed, the server reaped and [dir] removed. *)
let with_server ~exe ~dir f =
  mkdir_p dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      match spawn ~exe ~dir with
      | Error e -> Error e
      | Ok (s, c) ->
        Fun.protect
          ~finally:(fun () ->
            close c;
            stop s)
          (fun () -> Ok (f s c)))
