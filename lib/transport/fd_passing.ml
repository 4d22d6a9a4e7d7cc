(* Thin wrappers over the sendmsg/recvmsg stubs.  The stubs speak
   negative errno; Unix.file_descr is an immediate int on every platform
   we build for, so the int<->descr casts below are the standard trick
   (the same representation the stdlib's own unix stubs rely on). *)

external sendmsg_fd : Unix.file_descr -> Unix.file_descr -> int = "ftagg_sendmsg_fd"
external recvmsg_buf : Unix.file_descr -> Bytes.t -> int -> int ref -> int = "ftagg_recvmsg_buf"

let available = true

(* Linux errno values we need to recognise by name; anything else is
   reported numerically (still actionable in a log line). *)
let errno_name = function
  | 11 -> "EAGAIN" (* EWOULDBLOCK shares the value on Linux *)
  | 32 -> "EPIPE"
  | 104 -> "ECONNRESET"
  | 74 -> "EBADMSG"
  | 9 -> "EBADF"
  | e -> Printf.sprintf "errno %d" e

let send_fd ~sock ~fd =
  match sendmsg_fd sock fd with
  | 0 -> Ok ()
  | neg -> Error (Printf.sprintf "sendmsg(SCM_RIGHTS): %s" (errno_name (-neg)))

let recv_with_fd ~sock buf =
  let fdref = ref (-1) in
  let r = recvmsg_buf sock buf (Bytes.length buf) fdref in
  if r >= 0 then
    Ok (r, if !fdref >= 0 then Some (Obj.magic (!fdref : int) : Unix.file_descr) else None)
  else if -r = 11 then Error "EAGAIN"
  else Error (Printf.sprintf "recvmsg: %s" (errno_name (-r)))
