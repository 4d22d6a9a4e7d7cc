/* SCM_RIGHTS file-descriptor passing over a unix-domain socket.
 *
 * The OCaml stdlib's Unix module exposes sendmsg/recvmsg only without
 * ancillary data, so the two syscalls the live-handoff path needs are
 * provided here as minimal stubs.  Error handling crosses the FFI as a
 * negative errno (the OCaml wrapper turns it into a result); success is
 * 0 for send and the payload byte count for recv.  On every supported
 * platform Unix.file_descr is an immediate int, which is what Int_val /
 * Val_int rely on below.
 */

#include <caml/memory.h>
#include <caml/mlvalues.h>

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

CAMLprim value ftagg_sendmsg_fd(value vsock, value vfd)
{
  struct msghdr msg;
  struct iovec iov;
  char byte = 'F'; /* one payload byte so a zero-length read is an EOF */
  char cbuf[CMSG_SPACE(sizeof(int))];
  struct cmsghdr *cmsg;
  int fd = Int_val(vfd);
  ssize_t r;

  memset(&msg, 0, sizeof msg);
  memset(cbuf, 0, sizeof cbuf);
  iov.iov_base = &byte;
  iov.iov_len = 1;
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = cbuf;
  msg.msg_controllen = CMSG_SPACE(sizeof(int));
  cmsg = CMSG_FIRSTHDR(&msg);
  cmsg->cmsg_level = SOL_SOCKET;
  cmsg->cmsg_type = SCM_RIGHTS;
  cmsg->cmsg_len = CMSG_LEN(sizeof(int));
  memcpy(CMSG_DATA(cmsg), &fd, sizeof(int));

  do {
    r = sendmsg(Int_val(vsock), &msg, 0);
  } while (r < 0 && errno == EINTR);
  return Val_int(r < 0 ? -errno : 0);
}

/* Read up to [vlen] payload bytes WITH a control buffer, storing a
 * received descriptor (or -1) into the int ref [vfdref].  A stream
 * reader that may be handed an fd mid-stream must use this for every
 * read: a plain read() makes the kernel gather and then destroy the
 * SCM_RIGHTS ancillary data, silently closing the passed descriptor.
 * Returns bytes read (0 = EOF) or a negative errno.
 */
CAMLprim value ftagg_recvmsg_buf(value vsock, value vbuf, value vlen, value vfdref)
{
  struct msghdr msg;
  struct iovec iov;
  char cbuf[CMSG_SPACE(sizeof(int))];
  struct cmsghdr *cmsg;
  ssize_t r;

  memset(&msg, 0, sizeof msg);
  iov.iov_base = Bytes_val(vbuf);
  iov.iov_len = Long_val(vlen);
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = cbuf;
  msg.msg_controllen = sizeof cbuf;

  do {
    r = recvmsg(Int_val(vsock), &msg, 0);
  } while (r < 0 && errno == EINTR);
  Store_field(vfdref, 0, Val_int(-1));
  if (r < 0) return Val_int(-errno);
  for (cmsg = CMSG_FIRSTHDR(&msg); cmsg != NULL; cmsg = CMSG_NXTHDR(&msg, cmsg)) {
    if (cmsg->cmsg_level == SOL_SOCKET && cmsg->cmsg_type == SCM_RIGHTS) {
      int fd;
      memcpy(&fd, CMSG_DATA(cmsg), sizeof(int));
      Store_field(vfdref, 0, Val_int(fd));
      break;
    }
  }
  return Val_int(r);
}
