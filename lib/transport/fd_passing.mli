(** SCM_RIGHTS file-descriptor passing — the mechanism behind the live
    listener handoff.

    A listening socket is kernel state: passing it to the successor
    process keeps the accept backlog intact, so connections that arrive
    {e during} the handoff are neither refused nor reset — they queue in
    the kernel and the successor accepts them.  Both calls require
    [sock] to be a unix-domain stream socket (the control socket); the
    descriptor being passed can be any kind, including a TCP listener.

    Errors come back as [Error errno_message] rather than exceptions so
    the handoff path can degrade to the unlink-and-rebind fallback
    without exception plumbing.  [EAGAIN]/[EWOULDBLOCK] on a nonblocking
    control socket is reported as [Error "EAGAIN"] — pollable callers
    treat it as "not yet". *)

val send_fd : sock:Unix.file_descr -> fd:Unix.file_descr -> (unit, string) result
(** Send [fd] (with one sentinel payload byte) over [sock].  The caller
    keeps its own copy of [fd]; the receiver gets an independent dup. *)

val recv_with_fd : sock:Unix.file_descr -> Bytes.t -> (int * Unix.file_descr option, string) result
(** Read up to [Bytes.length buf] payload bytes into [buf], capturing a
    descriptor if one is attached to any of them; [Ok (0, _)] is EOF.
    A stream that {e may} carry an fd must be read exclusively through
    this: a plain [read] makes the kernel gather the SCM_RIGHTS payload
    and then destroy it, silently closing the passed descriptor. *)

val available : bool
(** Always [true] on this build (the stubs are compiled in); kept as an
    explicit capability flag so a future platform port can gate the
    fd-pass path to the rebind fallback without API changes. *)
