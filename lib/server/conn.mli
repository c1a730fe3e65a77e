(** Transport plumbing shared by the single-worker server loop and the
    coordinator's worker domains: the listening socket plus
    per-connection buffering. Protocol logic stays in {!Worker_core};
    callers shuttle the bytes. *)

exception Bind_error of string
(** Binding or listening failed; the message names the address and
    cause. *)

val listen_on : Wire.addr -> Unix.file_descr
(** Bind and listen (backlog 128). TCP sockets get [SO_REUSEADDR]; a
    stale Unix-domain socket file left by a dead server is removed
    (anything else at that path raises {!Bind_error}). *)

type 'a t = {
  fd : Unix.file_descr;
  meta : 'a;
      (** Per-connection payload: a [Worker_core.session] on the wire
          protocol, HTTP request state on the observability endpoint. *)
  inbuf : Wire.Line_buffer.t;
  out : string Queue.t;  (** Whole replies not yet fully written. *)
  mutable out_pos : int;  (** Bytes of the head of [out] already written. *)
  mutable out_bytes : int;  (** Unwritten bytes across [out]. *)
  mutable closing : bool;  (** No more reads; close once [out] drains. *)
}

val make : max_line:int -> meta:'a -> Unix.file_descr -> 'a t

val pending_out : 'a t -> int
(** Buffered reply bytes not yet written. *)

val enqueue : 'a t -> string -> unit
(** Queue a reply body behind the ones not yet written. The string is
    kept as it is, not copied. *)

val flush : 'a t -> bool
(** Write queued replies, in order, until the queue is empty or the
    socket would block; [false] when the peer is gone (EPIPE /
    ECONNRESET). *)

val settle : 'a t -> bool
(** {!flush}, then say whether the connection stays open: [false] when
    the peer is gone, or when the connection is closing and every reply
    has been written. The server loops call it right after handling a
    read and whenever [select] reports the socket writable, and drop
    the connection (releasing its session) on [false]. *)

type read_result =
  | Lines of string list  (** Complete request lines, in arrival order. *)
  | Nothing  (** Spurious wakeup (EAGAIN / EINTR). *)
  | Eof  (** Peer closed or reset: drop the connection. *)
  | Framing_error of string  (** Line overflow / NUL byte. *)

val read : 'a t -> read_result
(** One non-blocking read attempt, framed into lines by the
    connection's {!Wire.Line_buffer}. *)

type raw_result =
  | Raw_data of string  (** Bytes as received, unframed. *)
  | Raw_nothing  (** Spurious wakeup (EAGAIN / EINTR). *)
  | Raw_eof  (** Peer closed or reset. *)

val read_raw : 'a t -> raw_result
(** One non-blocking read attempt without line framing — for
    connections whose protocol frames its own stream (the HTTP
    gateway). *)

val reject : Unix.file_descr -> string -> unit
(** Best-effort one-shot write of a rejection line, then close — for
    admission control on a socket that never becomes a connection. *)
