module Json = Crimson_obs.Json
module Metrics = Crimson_obs.Metrics
module Trace = Crimson_obs.Trace
module Events = Crimson_obs.Events
module Log = (val Logs.src_log Engine.src : Logs.LOG)

exception Bind_error = Conn.Bind_error

(* --------------------------- Single worker -------------------------- *)

(* The historical single-threaded server: one standalone engine, one
   select loop, everything on the calling domain. [--workers 1] (the
   default) lands here — the old behaviour plus the observability
   endpoint and a one-beat watchdog, both serviced from the same
   loop. *)
let run_single ~config ~on_ready ~on_obs_ready ~on_http_ready repo addr =
  let engine = Engine.create ~config repo in
  let max_line = config.Engine.max_line in
  let started_at = Unix.gettimeofday () in
  let listen_fd = Conn.listen_on addr in
  Unix.set_nonblock listen_fd;
  (* The obs endpoint binds before the signal handlers are installed so
     a bad --obs-listen fails fast, like a bad listen address. *)
  let beat = Watchdog.make_beat ~worker:0 in
  let watchdog =
    Watchdog.create ~stall_after:config.Engine.stall_after
      ~stall_factor:config.Engine.stall_factor [| beat |]
  in
  let healthz () =
    Watchdog.check watchdog;
    (Watchdog.healthy watchdog, Watchdog.to_json watchdog)
  in
  let varz () =
    Json.Obj
      [
        ("uptime_s", Json.Num (Unix.gettimeofday () -. started_at));
        ("workers", Json.Num 1.0);
        ("active", Json.Num (float_of_int (Engine.active_sessions engine)));
        ("healthy", Json.Bool (Watchdog.healthy watchdog));
        ("metrics", Metrics.to_json ());
      ]
  in
  let slowlog_json () =
    Json.Obj
      [
        ( "threshold_ms",
          match Trace.slowlog_threshold () with
          | Some th -> Json.Num th
          | None -> Json.Null );
        ("workers", Json.Num 1.0);
        ("entries", Json.List (List.map Trace.record_to_json (Trace.slowlog ())));
      ]
  in
  let obs =
    match config.Engine.obs_listen with
    | None -> None
    | Some oaddr -> (
        try
          Some
            (Http_obs.create ~addr:oaddr
               ~handler:(Http_obs.routes ~healthz ~varz ~slowlog:slowlog_json))
        with e ->
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          (match addr with
          | Wire.Unix_path path -> ( try Sys.remove path with Sys_error _ -> ())
          | Wire.Tcp _ -> ());
          raise e)
  in
  (* The HTTP data-service gateway binds with the same fail-fast rule as
     the obs endpoint. *)
  let http_lfd =
    match config.Engine.http_listen with
    | None -> None
    | Some haddr -> (
        try
          let fd = Conn.listen_on haddr in
          Unix.set_nonblock fd;
          Some fd
        with e ->
          (match obs with Some o -> Http_obs.close o | None -> ());
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          (match addr with
          | Wire.Unix_path path -> ( try Sys.remove path with Sys_error _ -> ())
          | Wire.Tcp _ -> ());
          raise e)
  in
  (* A client closing mid-reply must surface as EPIPE, not kill the
     process. *)
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let stop = ref false in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true)) in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true)) in
  let conns = ref [] in
  let drop c =
    Engine.close_session engine c.Conn.meta;
    (try Unix.close c.Conn.fd with Unix.Unix_error _ -> ());
    conns := List.filter (fun c' -> c' != c) !conns
  in
  let accept_new () =
    match Unix.accept listen_fd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
    | fd, _peer -> (
        Unix.set_nonblock fd;
        match Engine.open_session engine with
        | Ok session -> conns := Conn.make ~max_line ~meta:session fd :: !conns
        | Error reply ->
            (* Admission control: answer, then close — a rejected client
               gets a protocol error, never a hang. *)
            Conn.reject fd reply.Engine.body)
  in
  let handle_lines c lines =
    (* Requests pipelined after QUIT (or after a framing error) are
       dropped: the session is already closing. *)
    List.iter
      (fun line ->
        if not c.Conn.closing then begin
          let verb =
            let t = String.trim line in
            match String.index_opt t ' ' with
            | Some i -> String.uppercase_ascii (String.sub t 0 i)
            | None -> String.uppercase_ascii t
          in
          Watchdog.begin_request beat ~verb
            ~session:(Engine.session_id c.Conn.meta)
            ~deadline:(Unix.gettimeofday () +. config.Engine.request_timeout);
          let reply =
            Fun.protect
              ~finally:(fun () -> Watchdog.end_request beat)
              (fun () -> Engine.handle_line engine c.Conn.meta line)
          in
          Conn.enqueue c reply.Engine.body;
          if reply.Engine.close then c.Conn.closing <- true
        end)
      lines
  in
  let read_conn c =
    (* Replies are written as soon as they exist; select waits for
       writability only when the socket could not take them all. *)
    let settle () = if not (Conn.settle c) then drop c in
    match Conn.read c with
    | Conn.Lines lines ->
        handle_lines c lines;
        settle ()
    | Conn.Nothing -> ()
    | Conn.Eof -> drop c
    | Conn.Framing_error msg ->
        let reply = Engine.protocol_error engine c.Conn.meta msg in
        Conn.enqueue c reply.Engine.body;
        c.Conn.closing <- true;
        settle ()
  in
  (* Gateway connections: same engine, same sessions, HTTP framing. *)
  let http_conns = ref [] in
  let drop_http c =
    Engine.close_session engine (Http_gateway.session c);
    (try Unix.close c.Conn.fd with Unix.Unix_error _ -> ());
    http_conns := List.filter (fun c' -> c' != c) !http_conns
  in
  let accept_http lfd =
    match Unix.accept lfd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
    | fd, _peer -> (
        Unix.set_nonblock fd;
        match Engine.open_session engine with
        | Ok session ->
            http_conns := Http_gateway.make_conn engine ~session fd :: !http_conns
        | Error _ ->
            Conn.reject fd
              (Http_gateway.rejection
                 ~active:(Engine.active_sessions engine)
                 ~max_sessions:config.Engine.max_sessions))
  in
  let read_http c =
    let session = Http_gateway.session c in
    let watch (r : Crimson_gateway.Http.request) f =
      Watchdog.begin_request beat
        ~verb:(r.Crimson_gateway.Http.meth ^ " " ^ r.Crimson_gateway.Http.path)
        ~session:(Engine.session_id session)
        ~deadline:(Unix.gettimeofday () +. config.Engine.request_timeout);
      Fun.protect ~finally:(fun () -> Watchdog.end_request beat) f
    in
    match Http_gateway.service engine c ~watch with
    | `Drop -> drop_http c
    | `Keep -> if not (Conn.settle c) then drop_http c
  in
  on_ready (Unix.getsockname listen_fd);
  (match obs with Some o -> on_obs_ready (Http_obs.bound_addr o) | None -> ());
  (match http_lfd with Some fd -> on_http_ready (Unix.getsockname fd) | None -> ());
  Events.emit "server_started"
    ~fields:
      [ ("addr", Json.Str (Wire.addr_to_string addr)); ("workers", Json.Num 1.0) ];
  Log.info (fun m -> m "listening on %s" (Wire.addr_to_string addr));
  let flush_interval = config.Engine.flush_interval in
  let last_tick = ref (Unix.gettimeofday ()) in
  let wd_interval = Watchdog.interval watchdog in
  let last_wd = ref (Unix.gettimeofday ()) in
  let select_timeout = Float.min 0.25 wd_interval in
  while not !stop do
    Watchdog.tick beat;
    (* Periodic maintenance between selects: fsync the trace sink so a
       crash loses at most one flush interval of records. *)
    (if flush_interval > 0.0 then
       let now = Unix.gettimeofday () in
       if now -. !last_tick >= flush_interval then begin
         last_tick := now;
         Engine.tick engine
       end);
    (let now = Unix.gettimeofday () in
     if now -. !last_wd >= wd_interval then begin
       last_wd := now;
       Watchdog.check watchdog
     end);
    let obs_r = match obs with Some o -> Http_obs.readable o | None -> [] in
    let obs_w = match obs with Some o -> Http_obs.writable o | None -> [] in
    let http_l = match http_lfd with Some fd -> [ fd ] | None -> [] in
    let conn_fds cs =
      List.filter_map
        (fun c -> if c.Conn.closing then None else Some c.Conn.fd)
        cs
    in
    let out_fds cs =
      List.filter_map
        (fun c -> if Conn.pending_out c > 0 then Some c.Conn.fd else None)
        cs
    in
    let readable =
      listen_fd :: (http_l @ obs_r @ conn_fds !conns @ conn_fds !http_conns)
    in
    let writable = obs_w @ out_fds !conns @ out_fds !http_conns in
    match Unix.select readable writable [] select_timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | r, w, _ ->
        if List.memq listen_fd r then accept_new ();
        (match http_lfd with
        | Some fd when List.memq fd r -> accept_http fd
        | Some _ | None -> ());
        (match obs with
        | Some o -> Http_obs.service o ~readable:r ~writable:w
        | None -> ());
        (* Snapshot: handlers mutate [conns]/[http_conns]. *)
        List.iter
          (fun c -> if List.memq c.Conn.fd w && not (Conn.settle c) then drop c)
          !conns;
        List.iter (fun c -> if List.memq c.Conn.fd r then read_conn c) !conns;
        List.iter
          (fun c ->
            if List.memq c.Conn.fd w && not (Conn.settle c) then drop_http c)
          !http_conns;
        List.iter (fun c -> if List.memq c.Conn.fd r then read_http c) !http_conns
  done;
  (* Graceful drain: requests are synchronous so none is in flight here;
     what remains is buffered replies. Stop accepting, give clients a
     bounded window to take their bytes, then close everything. *)
  Log.info (fun m ->
      m "shutting down: draining %d sessions"
        (List.length !conns + List.length !http_conns));
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (match http_lfd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  (match obs with Some o -> Http_obs.close o | None -> ());
  (match config.Engine.obs_listen with
  | Some (Wire.Unix_path p) -> ( try Sys.remove p with Sys_error _ -> ())
  | Some (Wire.Tcp _) | None -> ());
  (match config.Engine.http_listen with
  | Some (Wire.Unix_path p) -> ( try Sys.remove p with Sys_error _ -> ())
  | Some (Wire.Tcp _) | None -> ());
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec drain () =
    let waiting = List.filter (fun c -> Conn.pending_out c > 0) !conns in
    let hwaiting = List.filter (fun c -> Conn.pending_out c > 0) !http_conns in
    if (waiting <> [] || hwaiting <> []) && Unix.gettimeofday () < deadline then begin
      let fds =
        List.map (fun c -> c.Conn.fd) waiting
        @ List.map (fun c -> c.Conn.fd) hwaiting
      in
      (match Unix.select [] fds [] 0.1 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | _, w, _ ->
          List.iter
            (fun c -> if List.memq c.Conn.fd w && not (Conn.flush c) then drop c)
            waiting;
          List.iter
            (fun c ->
              if List.memq c.Conn.fd w && not (Conn.flush c) then drop_http c)
            hwaiting);
      drain ()
    end
  in
  drain ();
  List.iter drop !conns;
  List.iter drop_http !http_conns;
  Engine.tick engine;
  Events.emit "server_stopped" ~fields:[ ("workers", Json.Num 1.0) ];
  Events.flush ();
  (match addr with
  | Wire.Unix_path path -> ( try Sys.remove path with Sys_error _ -> ())
  | Wire.Tcp _ -> ());
  Sys.set_signal Sys.sigpipe old_pipe;
  Sys.set_signal Sys.sigint old_int;
  Sys.set_signal Sys.sigterm old_term;
  Log.info (fun m -> m "shutdown complete")

(* ------------------------------ Dispatch ----------------------------- *)

let run ?config ?(on_ready = fun _ -> ()) ?(on_obs_ready = fun _ -> ())
    ?(on_http_ready = fun _ -> ()) repo addr =
  let config = match config with Some c -> c | None -> Engine.default_config in
  if config.Engine.workers <= 1 then
    run_single ~config ~on_ready ~on_obs_ready ~on_http_ready repo addr
  else Coordinator.run ~config ~on_ready ~on_obs_ready ~on_http_ready repo addr
