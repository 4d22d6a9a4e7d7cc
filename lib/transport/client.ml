module Bench_io = Ftagg_runner.Bench_io
module Prng = Ftagg_util.Prng

let connect_fd address =
  let sock () =
    match (address : Listener.address) with
    | Listener.Unix_sock path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
    | Listener.Tcp (host, port) ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.gethostbyname host with
          | exception Not_found -> Printf.ksprintf failwith "unknown host %S" host
          | h -> h.Unix.h_addr_list.(0))
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (addr, port));
      fd
  in
  match sock () with
  | exception Failure msg -> Error msg
  | exception Unix.Unix_error (e, _, _) ->
    Printf.ksprintf Result.error "%s: %s" (Listener.address_to_string address)
      (Unix.error_message e)
  | fd -> Ok fd

(* A health check is one connect and an immediate close: the listener
   accepts before any protocol exchange, so reachability alone answers
   "is something serving this address?" without burning a request. *)
let probe address =
  match connect_fd address with
  | Error _ -> false
  | Ok fd ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    true

(* ------------------------------------------------------------------ *)
(* Retry policy                                                        *)
(* ------------------------------------------------------------------ *)

type retry = {
  attempts : int;
  backoff_ms : int;
  max_backoff_ms : int;
  timeout_ms : int;
  seed : int;
}

let retry ?(attempts = 5) ?(backoff_ms = 50) ?(max_backoff_ms = 2000) ?(timeout_ms = 5000)
    ?(seed = 1) () =
  {
    attempts = max 1 attempts;
    backoff_ms = max 1 backoff_ms;
    max_backoff_ms = max 1 max_backoff_ms;
    timeout_ms = max 1 timeout_ms;
    seed;
  }

(* Delay before retry [k+1] (k = 0-based index of the failed attempt):
   exponential with full deterministic jitter in [d/2, d).  Pure in the
   PRNG so the whole schedule is reproducible from [seed]. *)
let backoff_delay_ms r prng k =
  let expo = float_of_int r.backoff_ms *. (2. ** float_of_int k) in
  let capped = Float.min (float_of_int r.max_backoff_ms) expo in
  capped *. (0.5 +. Prng.float prng 0.5)

let backoff_schedule r =
  let prng = Prng.create r.seed in
  List.init (max 0 (r.attempts - 1)) (fun k -> backoff_delay_ms r prng k)

(* ------------------------------------------------------------------ *)
(* The resilient session                                               *)
(* ------------------------------------------------------------------ *)

type failure = Refused of string | Exhausted of string

let failure_message = function
  | Refused line -> Printf.sprintf "refused: %s" line
  | Exhausted msg -> Printf.sprintf "retries exhausted: %s" msg

type sconn = {
  sfd : Unix.file_descr;
  sframe : Frame.t;
  mutable s_extra : string list;  (* lines read past the one we awaited *)
}

type session = {
  s_address : Listener.address;
  s_token : string option;
  s_tenant : string option;
  s_retry : retry;
  s_prng : Prng.t;
  s_pump : unit -> unit;
  mutable s_conn : sconn option;
  mutable s_connected_once : bool;
  mutable s_reconnects : int;
  mutable s_attempts : int;
  mutable s_hello_response : string option;  (* last successful handshake *)
}

let session ?token ?tenant ?(retry = retry ()) ?(pump = fun () -> ()) address =
  {
    s_address = address;
    s_token = token;
    s_tenant = tenant;
    s_retry = retry;
    s_prng = Prng.create retry.seed;
    s_pump = pump;
    s_conn = None;
    s_connected_once = false;
    s_reconnects = 0;
    s_attempts = 0;
    s_hello_response = None;
  }

let reconnects s = s.s_reconnects
let attempts_used s = s.s_attempts

let drop_conn s =
  (match s.s_conn with
  | Some sc -> ( try Unix.close sc.sfd with Unix.Unix_error (_, _, _) -> ())
  | None -> ());
  s.s_conn <- None

let sclose = drop_conn

(* A connection-fate notice the server pushes on its own — the goodbye
   before a handoff, an idle timeout, the connection-limit refusal — is
   not a response to our request.  Treat it like a hangup: reconnect and
   resubmit, which the content-digest cache makes idempotent.  Every
   [Session] error line carries [op:"transport"], so the op alone does
   not identify a notice: [bad_token] or [line_too_long] are genuine
   (permanent) answers to what we sent, and only the fate errors below
   are transient. *)
let is_transport_notice line =
  match Bench_io.of_string line with
  | Error _ -> false
  | Ok json ->
    Bench_io.member "ok" json = Some (Bench_io.Bool false)
    && Bench_io.member "op" json = Some (Bench_io.String "transport")
    && (match Bench_io.member "error" json with
       | Some (Bench_io.String ("handing_off" | "idle_timeout" | "server_busy")) -> true
       | _ -> false)

let is_refusal line =
  match Bench_io.of_string line with
  | Error _ -> false
  | Ok json -> Bench_io.member "ok" json = Some (Bench_io.Bool false)

let session_buf = Bytes.create 4096

let send_line s sc ~deadline line =
  let data = line ^ "\n" in
  let len = String.length data in
  let rec go off =
    if off >= len then Ok ()
    else if Unix.gettimeofday () > deadline then Error (`Transient "send timed out")
    else
      match Unix.write_substring sc.sfd data off (len - off) with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        s.s_pump ();
        Unix.sleepf 0.002;
        go off
      | exception Unix.Unix_error (_, _, _) -> Error (`Transient "connection lost while sending")
      | n -> go (off + n)
  in
  go 0

let recv_line s sc ~deadline =
  let rec loop () =
    match sc.s_extra with
    | line :: rest ->
      sc.s_extra <- rest;
      Ok line
    | [] ->
      if Unix.gettimeofday () > deadline then Error (`Transient "response timed out")
      else begin
        s.s_pump ();
        match Unix.read sc.sfd session_buf 0 (Bytes.length session_buf) with
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          Unix.sleepf 0.002;
          loop ()
        | exception Unix.Unix_error (_, _, _) -> Error (`Transient "connection lost")
        | 0 -> Error (`Transient "connection closed by server")
        | n ->
          sc.s_extra <-
            sc.s_extra
            @ List.filter_map
                (function Frame.Line l -> Some l | Frame.Oversized _ -> None)
                (Frame.feed sc.sframe session_buf ~off:0 ~len:n);
          loop ()
      end
  in
  loop ()

let exchange s sc ~deadline line =
  match send_line s sc ~deadline line with
  | Error _ as e -> e
  | Ok () -> (
    match recv_line s sc ~deadline with
    | Error _ as e -> e
    | Ok response ->
      if is_transport_notice response then Error (`Transient "server said goodbye")
      else Ok response)

let hello_line ?token ?tenant () =
  let fields =
    [ ("op", Bench_io.String "hello") ]
    @ (match token with Some tok -> [ ("token", Bench_io.String tok) ] | None -> [])
    @ match tenant with Some ten -> [ ("tenant", Bench_io.String ten) ] | None -> []
  in
  Bench_io.to_string ~indent:false (Bench_io.Obj fields)

(* (Re)connect and re-run the handshake.  A token-mode server demands
   [hello] as the first line of {e every} connection, so a session that
   rides through a handoff re-authenticates with the successor before
   resubmitting anything. *)
let ensure_conn s ~deadline =
  match s.s_conn with
  | Some sc -> Ok sc
  | None -> (
    match connect_fd s.s_address with
    | Error e -> Error (`Transient e)
    | Ok fd ->
      Unix.set_nonblock fd;
      let sc = { sfd = fd; sframe = Frame.create ~max_line:1048576; s_extra = [] } in
      s.s_conn <- Some sc;
      if s.s_connected_once then s.s_reconnects <- s.s_reconnects + 1;
      s.s_connected_once <- true;
      if s.s_token = None && s.s_tenant = None then Ok sc
      else
        match exchange s sc ~deadline (hello_line ?token:s.s_token ?tenant:s.s_tenant ()) with
        | Error _ as e -> e
        | Ok response ->
          if is_refusal response then Error (`Refused response)
          else begin
            s.s_hello_response <- Some response;
            Ok sc
          end)

let with_retries s f =
  let r = s.s_retry in
  let rec attempt k =
    s.s_attempts <- s.s_attempts + 1;
    let deadline = Unix.gettimeofday () +. (float_of_int r.timeout_ms /. 1000.) in
    let result =
      match ensure_conn s ~deadline with Error e -> Error e | Ok sc -> f sc ~deadline
    in
    match result with
    | Ok v -> Ok v
    | Error (`Refused response) ->
      drop_conn s;
      Error (Refused response)
    | Error (`Transient msg) ->
      drop_conn s;
      if k + 1 >= r.attempts then Error (Exhausted msg)
      else begin
        let d = backoff_delay_ms r s.s_prng k /. 1000. in
        (* Sleep in slices, pumping between them, so an in-process
           listener driven by the same thread keeps making progress. *)
        let slices = 4 in
        for _ = 1 to slices do
          s.s_pump ();
          Unix.sleepf (d /. float_of_int slices)
        done;
        attempt (k + 1)
      end
  in
  attempt 0

let srequest s line = with_retries s (fun sc ~deadline -> exchange s sc ~deadline line)

let shello s = with_retries s (fun _sc ~deadline:_ -> Ok s.s_hello_response)
