(* Transport plumbing shared by the single-worker server loop and the
   coordinator's worker domains: the listening socket and the
   per-connection buffering (line framing in, a queue of whole replies
   out). No protocol logic lives here — callers feed lines to a
   Worker_core and enqueue the reply bodies. *)

exception Bind_error of string

let bind_error fmt = Printf.ksprintf (fun s -> raise (Bind_error s)) fmt

(* --------------------------- Listening socket ----------------------- *)

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } -> bind_error "host %s has no address" host
      | { Unix.h_addr_list; _ } -> h_addr_list.(0)
      | exception Not_found -> bind_error "unknown host %s" host)

let listen_on addr =
  match addr with
  | Wire.Tcp (host, port) -> (
      let inet = resolve_host host in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      try
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (inet, port));
        Unix.listen fd 128;
        fd
      with Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        bind_error "cannot listen on %s: %s" (Wire.addr_to_string addr)
          (Unix.error_message e))
  | Wire.Unix_path path -> (
      (* A stale socket file from a dead server would make bind fail;
         only ever remove sockets, never ordinary files. *)
      (match Unix.lstat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Sys.remove path
      | _ -> bind_error "%s exists and is not a socket" path
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      try
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 128;
        fd
      with Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        bind_error "cannot listen on %s: %s" (Wire.addr_to_string addr)
          (Unix.error_message e))

(* ----------------------------- Connections -------------------------- *)

(* Polymorphic in the per-connection payload: the wire-protocol loops
   attach a [Worker_core.session], the HTTP observability responder its
   own request state. *)
type 'a t = {
  fd : Unix.file_descr;
  meta : 'a;
  inbuf : Wire.Line_buffer.t;
  out : string Queue.t;  (* whole replies not yet fully written, oldest first *)
  mutable out_pos : int;  (* bytes of the head reply already written *)
  mutable out_bytes : int;  (* unwritten bytes across the whole queue *)
  mutable closing : bool;  (* no more reads; close once [out] drains *)
}

let make ~max_line ~meta fd =
  {
    fd;
    meta;
    inbuf = Wire.Line_buffer.create ~max_line;
    out = Queue.create ();
    out_pos = 0;
    out_bytes = 0;
    closing = false;
  }

let pending_out c = c.out_bytes

let enqueue c s =
  if s <> "" then begin
    Queue.push s c.out;
    c.out_bytes <- c.out_bytes + String.length s
  end

(* Write queued replies in order until they are gone or the socket
   would block; a reply is written from where the last attempt left
   off, never copied. False when the connection died. *)
let flush c =
  let rec go () =
    match Queue.peek_opt c.out with
    | None -> true
    | Some s ->
        let n = String.length s - c.out_pos in
        let written = Unix.write_substring c.fd s c.out_pos n in
        c.out_bytes <- c.out_bytes - written;
        if written = n then begin
          ignore (Queue.pop c.out);
          c.out_pos <- 0;
          go ()
        end
        else begin
          c.out_pos <- c.out_pos + written;
          true
        end
  in
  match go () with
  | alive -> alive
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      true
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false

let settle c = flush c && not (c.closing && c.out_bytes = 0)

type read_result =
  | Lines of string list  (* complete request lines, in arrival order *)
  | Nothing  (* spurious wakeup (EAGAIN/EINTR) *)
  | Eof  (* peer closed (or reset): drop the connection *)
  | Framing_error of string  (* line overflow / NUL — protocol_error + close *)

(* One non-blocking read attempt, framed into lines. *)
let read c =
  let buf = Bytes.create 4096 in
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> Eof
  | n -> (
      match Wire.Line_buffer.feed c.inbuf (Bytes.sub_string buf 0 n) with
      | Ok lines -> Lines lines
      | Error msg -> Framing_error msg)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      Nothing
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Eof

type raw_result =
  | Raw_data of string  (* bytes as received, unframed *)
  | Raw_nothing
  | Raw_eof

(* One non-blocking read attempt, raw: the HTTP gateway frames its own
   stream (request heads + Content-Length bodies), so the line buffer
   must not touch these bytes. *)
let read_raw c =
  let buf = Bytes.create 4096 in
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> Raw_eof
  | n -> Raw_data (Bytes.sub_string buf 0 n)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      Raw_nothing
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Raw_eof

(* Best-effort one-shot write + close, for admission rejections: the
   reply is one short line, well under the socket send buffer, so the
   write cannot block. *)
let reject fd body =
  (try ignore (Unix.write_substring fd body 0 (String.length body))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()
