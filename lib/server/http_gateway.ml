(* Gateway-connection glue shared by the single-worker server loop and
   the coordinator's worker domains: adopt an accepted socket as an HTTP
   connection (its own decoder, a Worker_core session for accounting),
   feed raw reads through the decoder, and dispatch each completed
   request through Worker_core.handle_http. The select loops stay
   protocol-agnostic — they shuttle bytes and bracket the watchdog. *)

module Http = Crimson_gateway.Http
module Response = Crimson_gateway.Response
module Gateway = Crimson_gateway.Gateway

type meta = {
  session : Worker_core.session;
  dec : Http.decoder;
}

let make_conn core ~session fd =
  Conn.make
    ~max_line:(Worker_core.config core).Worker_core.max_line
    ~meta:{ session; dec = Http.create_decoder () }
    fd

let session (c : meta Conn.t) = c.Conn.meta.session

(* Admission rejection, rendered as a well-formed HTTP response (503 +
   the same structured error object every other front-end failure
   carries). *)
let rejection ~active ~max_sessions =
  Http.render ~status:503
    (Response.error_line Response.Session_limit
       (Worker_core.rejection_message ~active ~max_sessions))

(* Serve whatever arrived on one gateway connection. [watch] brackets
   the watchdog around each dispatched request. [`Drop] when the peer
   is gone; enqueued bytes (and [closing]) are the caller's to flush. *)
let service core (c : meta Conn.t) ~watch =
  match Conn.read_raw c with
  | Conn.Raw_eof -> `Drop
  | Conn.Raw_nothing -> `Keep
  | Conn.Raw_data data ->
      (match Http.feed c.Conn.meta.dec data with
      | Error msg ->
          (* Unrecoverable framing (malformed head, cap exceeded): one
             well-formed error response, then close. *)
          Conn.enqueue c
            (Http.render ~status:400
               (Response.error_line Response.Bad_request msg));
          c.Conn.closing <- true
      | Ok reqs ->
          List.iter
            (fun r ->
              if not c.Conn.closing then begin
                let body, close =
                  watch r (fun () ->
                      Worker_core.handle_http core c.Conn.meta.session r)
                in
                Conn.enqueue c body;
                if close then c.Conn.closing <- true
              end)
            reqs);
      `Keep
