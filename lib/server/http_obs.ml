(* Minimal zero-dependency HTTP/1.0 observability endpoint.

   Serves GET /metrics, /healthz, /varz and /slowlog out of the server
   loop that owns it (the coordinator's accept loop, or the
   single-worker select loop) — no threads, no HTTP library. It reuses
   the wire transport's [Conn] buffering: an HTTP/1.0 request head is
   CRLF-line framed, so the existing line framing carries it; the empty
   line ending the head triggers the response and the connection closes
   after one exchange (Connection: close).

   This endpoint is deliberately tiny — the first brick of the ROADMAP
   HTTP gateway, not the gateway itself. *)

module Json = Crimson_obs.Json
module Fleet = Crimson_obs.Fleet
module Runtime = Crimson_obs.Runtime
module Log = (val Logs.src_log Worker_core.src : Logs.LOG)

type response = { status : int; content_type : string; body : string }

(* Render through the gateway's HTTP writer so every response — 200s and
   errors alike — is well-formed: explicit Content-Length (even when the
   body is empty) and Connection: close. *)
let render r =
  Crimson_gateway.Http.render ~status:r.status ~content_type:r.content_type
    ~keep_alive:false r.body

let text status body = { status; content_type = "text/plain; charset=utf-8"; body }
let json status j = { status; content_type = "application/json"; body = Json.to_string j ^ "\n" }

(* Per-connection request state: the first line is the request line,
   everything else is headers we ignore; the empty line ends the head. *)
type req = { mutable r_line : string option }

type t = {
  listen_fd : Unix.file_descr;
  handler : string -> response;
  mutable conns : req Conn.t list;
}

let max_conns = 64
let max_head_line = 8192

let create ~addr ~handler =
  let listen_fd = Conn.listen_on addr in
  Unix.set_nonblock listen_fd;
  { listen_fd; handler; conns = [] }

let bound_addr t = Unix.getsockname t.listen_fd

let readable t =
  t.listen_fd
  :: List.filter_map
       (fun c -> if c.Conn.closing then None else Some c.Conn.fd)
       t.conns

let writable t =
  List.filter_map
    (fun c -> if Conn.pending_out c > 0 then Some c.Conn.fd else None)
    t.conns

let drop t c =
  (try Unix.close c.Conn.fd with Unix.Unix_error _ -> ());
  t.conns <- List.filter (fun c' -> c' != c) t.conns

let respond t c resp =
  Conn.enqueue c (render resp);
  c.Conn.closing <- true;
  (* Most responses fit the socket buffer: try to finish the exchange
     right here so a probe never waits for the next select round. *)
  if not (Conn.settle c) then drop t c

(* Parse "GET /path HTTP/1.x" (query strings stripped). *)
let parse_request_line line =
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | [ meth; target; _ ] | [ meth; target ] ->
      let path =
        match String.index_opt target '?' with
        | Some i -> String.sub target 0 i
        | None -> target
      in
      Ok (String.uppercase_ascii meth, path)
  | _ -> Error "malformed request line"

let process_line t c line =
  match c.Conn.meta.r_line with
  | None -> c.Conn.meta.r_line <- Some line
  | Some req_line when line = "" ->
      let resp =
        match parse_request_line req_line with
        | Error msg -> text 400 (msg ^ "\n")
        | Ok ("GET", path) -> ( try t.handler path with _ -> text 400 "handler error\n")
        | Ok (_, _) -> text 405 "only GET is supported\n"
      in
      respond t c resp
  | Some _ -> () (* header line; ignored *)

let accept_new t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | fd, _peer ->
        if List.length t.conns >= max_conns then
          Conn.reject fd (render (text 503 "too many observability connections\n"))
        else begin
          Unix.set_nonblock fd;
          t.conns <-
            Conn.make ~max_line:max_head_line ~meta:{ r_line = None } fd :: t.conns
        end;
        go ()
  in
  go ()

let read_conn t c =
  match Conn.read c with
  | Conn.Lines lines ->
      List.iter (fun l -> if not c.Conn.closing then process_line t c l) lines
  | Conn.Nothing -> ()
  | Conn.Eof -> drop t c
  | Conn.Framing_error _ -> respond t c (text 400 "request head too large\n")

(* One service pass with the fd sets select returned. *)
let service t ~readable:r ~writable:w =
  List.iter
    (fun c -> if List.memq c.Conn.fd w && not (Conn.settle c) then drop t c)
    t.conns;
  List.iter (fun c -> if List.memq c.Conn.fd r then read_conn t c) t.conns;
  if List.memq t.listen_fd r then accept_new t

let close t =
  List.iter (fun c -> try Unix.close c.Conn.fd with Unix.Unix_error _ -> ()) t.conns;
  t.conns <- [];
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ())

(* ------------------------------ Routes ------------------------------- *)

let index_body =
  "crimson observability endpoint\n\
   /metrics  merged Prometheus exposition\n\
   /healthz  watchdog health (200 healthy / 503 stalled), per-worker JSON\n\
   /varz     stats --json equivalent\n\
   /slowlog  fleet-merged slow-query log\n"

let routes ~healthz ~varz ~slowlog path =
  match path with
  | "/" -> text 200 index_body
  | "/metrics" ->
      Runtime.refresh ();
      {
        status = 200;
        content_type = "text/plain; version=0.0.4; charset=utf-8";
        body = Fleet.to_prometheus (Fleet.capture ());
      }
  | "/healthz" ->
      let ok, detail = healthz () in
      json (if ok then 200 else 503) detail
  | "/varz" ->
      Runtime.refresh ();
      json 200 (varz ())
  | "/slowlog" -> json 200 (slowlog ())
  | _ -> text 404 "not found (try /metrics, /healthz, /varz, /slowlog)\n"

(* ------------------------------ Client ------------------------------- *)

(* Tiny blocking GET, for `crimson health`, the smoke script and tests.
   HTTP/1.0 with Connection: close — read to EOF, split head from body. *)
let get ?(timeout = 5.0) addr path =
  let domain, sockaddr =
    match addr with
    | Wire.Tcp (host, port) -> (
        match Unix.inet_addr_of_string host with
        | inet -> (Unix.PF_INET, Unix.ADDR_INET (inet, port))
        | exception Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list; _ } when Array.length h_addr_list > 0 ->
                (Unix.PF_INET, Unix.ADDR_INET (h_addr_list.(0), port))
            | _ | (exception Not_found) ->
                raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host))))
    | Wire.Unix_path p -> (Unix.PF_UNIX, Unix.ADDR_UNIX p)
  in
  match
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
        Unix.connect fd sockaddr;
        let req = Printf.sprintf "GET %s HTTP/1.0\r\nHost: crimson\r\n\r\n" path in
        ignore (Unix.write_substring fd req 0 (String.length req));
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec read_all () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              read_all ()
        in
        read_all ();
        Buffer.contents buf)
  with
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | raw -> (
      let head_end =
        let rec find i =
          if i + 3 >= String.length raw then None
          else if String.sub raw i 4 = "\r\n\r\n" then Some i
          else find (i + 1)
        in
        find 0
      in
      match head_end with
      | None -> Error "malformed HTTP response (no header terminator)"
      | Some i -> (
          let head = String.sub raw 0 i in
          let body = String.sub raw (i + 4) (String.length raw - i - 4) in
          let status_line =
            match String.index_opt head '\r' with
            | Some j -> String.sub head 0 j
            | None -> head
          in
          match String.split_on_char ' ' status_line with
          | _http :: code :: _ -> (
              match int_of_string_opt code with
              | Some status -> Ok (status, body)
              | None -> Error ("malformed status line: " ^ status_line))
          | _ -> Error ("malformed status line: " ^ status_line)))
