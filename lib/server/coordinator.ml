(* The shared-nothing fleet: one coordinator thread (the spawning
   domain) plus N worker domains.

   The coordinator owns the listening socket, admission control, the
   configuration, and the only read-write repository handle — the Query
   Repository write path. Workers never touch the coordinator's
   repository: each domain opens its own read-only
   [Repo.open_dir ~mode:Read_only] over the same immutable files, giving
   it private file descriptors, buffer pools and node-view caches.
   Cross-domain traffic is limited to:

   - accepted connections, handed to a worker's inbox (round-robin)
     with a pipe-byte wakeup;
   - query-history rows, enqueued on a serialized channel the
     coordinator drains into its writable repository;
   - session accounting atomics (admission count, session ids);
   - published per-session rows, so TOP answers fleet-wide.

   Metrics need no aggregation step: counters are atomic and
   process-global, so the server.* family already sums across workers,
   while server.worker.<id>.* exposes each worker's slice. *)

module Repo = Crimson_core.Repo
module Json = Crimson_obs.Json
module Metrics = Crimson_obs.Metrics
module Trace = Crimson_obs.Trace
module Events = Crimson_obs.Events
module Fleet = Crimson_obs.Fleet
module Log = (val Logs.src_log Worker_core.src : Logs.LOG)

(* One Query Repository row in flight from a worker to the writer. *)
type write_req = {
  q_elapsed_ms : float;
  q_pages : int;
  q_cost : string;
  q_text : string;
  q_result : string;
}

type shared = {
  stop : bool Atomic.t;
  active : int Atomic.t;  (* fleet-wide live sessions (admission) *)
  next_session : int Atomic.t;  (* fleet-wide session id allocator *)
  ready : int Atomic.t;  (* workers that finished opening their repo *)
  boot_failed : bool Atomic.t;
  write_lock : Mutex.t;
  write_queue : write_req Queue.t;
  write_wake_w : Unix.file_descr;  (* workers ring the coordinator *)
}

(* Which front end an accepted connection speaks: the wire protocol or
   the HTTP gateway. Decided by which listening socket it arrived on. *)
type conn_kind = Wire_conn | Http_conn

(* Coordinator-side view of one worker domain. *)
type slot = {
  w_id : int;  (* 1-based *)
  w_lock : Mutex.t;
  w_inbox : (Unix.file_descr * int * conn_kind) Queue.t;
      (* (conn fd, session id, front end) *)
  w_wake_r : Unix.file_descr;
  w_wake_w : Unix.file_descr;
  w_rows_lock : Mutex.t;
  mutable w_rows : Worker_core.session_row list;  (* latest published *)
  (* Heartbeat slot: written by the worker, read by the watchdog. *)
  w_beat : Watchdog.beat;
  (* Published trace/slowlog ring slice, plus the snapshot-request
     handshake counters: a requester bumps [w_obs_req] and rings the
     wake pipe; the worker republishes and acks at its next loop
     iteration. The requester waits briefly, then falls back to the
     last published slice (a busy worker is allowed to be stale). *)
  w_obs_lock : Mutex.t;
  mutable w_obs : Worker_core.obs_slice;
  w_obs_req : int Atomic.t;
  w_obs_ack : int Atomic.t;
}

(* Wake pipes are best-effort edge triggers: a full pipe already has a
   pending wakeup, a closed peer means shutdown is underway. *)
let wake fd =
  try ignore (Unix.write_substring fd "!" 0 1)
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.EBADF), _, _)
  -> ()

let drain_pipe fd =
  let buf = Bytes.create 256 in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | n when n = Bytes.length buf -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
  in
  go ()

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* --------------------- Obs snapshot-request protocol ----------------- *)

(* Ask every slot (except [except]) for a fresh ring slice over the
   wake-pipe channel: bump its request counter, ring its pipe, wait up
   to [timeout_s] for the acks, then read whatever each slot last
   published — fresh for responsive workers, last-known for a worker
   wedged inside a request (exactly the one that cannot answer). *)
let request_obs ?except ?(timeout_s = 0.05) slots =
  let peers =
    Array.to_list slots |> List.filter (fun s -> Some s.w_id <> except)
  in
  let wants =
    List.map (fun p -> (p, 1 + Atomic.fetch_and_add p.w_obs_req 1)) peers
  in
  List.iter (fun (p, _) -> wake p.w_wake_w) wants;
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec await () =
    let pending =
      List.exists (fun (p, want) -> Atomic.get p.w_obs_ack < want) wants
    in
    if pending && Unix.gettimeofday () < deadline then begin
      Unix.sleepf 0.001;
      await ()
    end
  in
  await ();
  List.filter_map
    (fun (p, _) ->
      let slice = locked p.w_obs_lock (fun () -> p.w_obs) in
      (* generation -1 marks "never published" *)
      if slice.Worker_core.o_generation >= 0 then Some slice else None)
    wants

(* ------------------------------ Workers ----------------------------- *)

(* The event loop of one worker domain: same select discipline as the
   single-worker server, plus the inbox wakeup pipe as a read source. *)
let worker_loop ~shared ~slots ~slot ~cfg ~dir ~fleet_started_at () =
  let ctx =
    {
      Worker_core.worker_id = slot.w_id;
      workers = Array.length slots;
      fleet_started_at;
      fleet_active = (fun () -> Atomic.get shared.active);
      on_session_closed = (fun () -> ignore (Atomic.fetch_and_add shared.active (-1)));
      record_query =
        (fun ~elapsed_ms ~pages ~cost ~text ~result ->
          locked shared.write_lock (fun () ->
              Queue.push
                {
                  q_elapsed_ms = elapsed_ms;
                  q_pages = pages;
                  q_cost = cost;
                  q_text = text;
                  q_result = result;
                }
                shared.write_queue);
          wake shared.write_wake_w);
      publish_sessions =
        (fun rows -> locked slot.w_rows_lock (fun () -> slot.w_rows <- rows));
      peer_sessions =
        (fun () ->
          Array.fold_left
            (fun acc peer ->
              if peer.w_id = slot.w_id then acc
              else locked peer.w_rows_lock (fun () -> peer.w_rows) @ acc)
            [] slots);
      publish_obs =
        (fun slice ->
          locked slot.w_obs_lock (fun () -> slot.w_obs <- slice);
          (* Publishing acks any pending snapshot request: the data is
             as fresh as a forced republish would make it. *)
          Atomic.set slot.w_obs_ack (Atomic.get slot.w_obs_req));
      peer_obs = (fun () -> request_obs ~except:slot.w_id slots);
    }
  in
  (* Each worker opens its own read-only repository: private fds, buffer
     pools, node-view caches — shared-nothing over shared immutable
     files. The coordinator flushed its handle before spawning, and no
     history row can be written before every worker reports ready, so
     this open sees a quiescent directory. *)
  let repo =
    match Repo.open_dir ~mode:Crimson_storage.Database.Read_only ~create:false dir with
    | repo ->
        Atomic.incr shared.ready;
        repo
    | exception e ->
        Atomic.set shared.boot_failed true;
        Log.err (fun m ->
            m "worker %d: cannot open %s read-only: %s" slot.w_id dir
              (Printexc.to_string e));
        raise e
  in
  let core = Worker_core.create ~config:cfg ~ctx repo in
  let conns = ref [] in
  let http_conns = ref [] in
  let drop c =
    Worker_core.close_session core c.Conn.meta;
    (try Unix.close c.Conn.fd with Unix.Unix_error _ -> ());
    conns := List.filter (fun c' -> c' != c) !conns
  in
  let drop_http c =
    Worker_core.close_session core (Http_gateway.session c);
    (try Unix.close c.Conn.fd with Unix.Unix_error _ -> ());
    http_conns := List.filter (fun c' -> c' != c) !http_conns
  in
  let adopt_inbox () =
    let batch =
      locked slot.w_lock (fun () ->
          let acc = ref [] in
          while not (Queue.is_empty slot.w_inbox) do
            acc := Queue.pop slot.w_inbox :: !acc
          done;
          List.rev !acc)
    in
    List.iter
      (fun (fd, id, kind) ->
        let session = Worker_core.accept_session core ~id in
        match kind with
        | Wire_conn ->
            conns :=
              Conn.make ~max_line:cfg.Worker_core.max_line ~meta:session fd
              :: !conns
        | Http_conn ->
            http_conns := Http_gateway.make_conn core ~session fd :: !http_conns)
      batch
  in
  (* Requests are synchronous, so the loop heartbeat goes quiet while
     one runs: bracket each with the in-flight descriptor so the
     watchdog can judge it against its own deadline instead. *)
  let handle_lines c lines =
    List.iter
      (fun line ->
        if not c.Conn.closing then begin
          let verb =
            match String.index_opt (String.trim line) ' ' with
            | Some i -> String.uppercase_ascii (String.sub (String.trim line) 0 i)
            | None -> String.uppercase_ascii (String.trim line)
          in
          Watchdog.begin_request slot.w_beat ~verb
            ~session:(Worker_core.session_id c.Conn.meta)
            ~deadline:(Unix.gettimeofday () +. cfg.Worker_core.request_timeout);
          let reply =
            Fun.protect
              ~finally:(fun () -> Watchdog.end_request slot.w_beat)
              (fun () -> Worker_core.handle_line core c.Conn.meta line)
          in
          Conn.enqueue c reply.Worker_core.body;
          if reply.Worker_core.close then c.Conn.closing <- true
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
        let reply = Worker_core.protocol_error core c.Conn.meta msg in
        Conn.enqueue c reply.Worker_core.body;
        c.Conn.closing <- true;
        settle ()
  in
  let read_http c =
    let session = Http_gateway.session c in
    let watch (r : Crimson_gateway.Http.request) f =
      Watchdog.begin_request slot.w_beat
        ~verb:(r.Crimson_gateway.Http.meth ^ " " ^ r.Crimson_gateway.Http.path)
        ~session:(Worker_core.session_id session)
        ~deadline:(Unix.gettimeofday () +. cfg.Worker_core.request_timeout);
      Fun.protect ~finally:(fun () -> Watchdog.end_request slot.w_beat) f
    in
    match Http_gateway.service core c ~watch with
    | `Drop -> drop_http c
    | `Keep -> if not (Conn.settle c) then drop_http c
  in
  let last_tick = ref (Unix.gettimeofday ()) in
  while not (Atomic.get shared.stop) do
    Watchdog.tick slot.w_beat;
    (* Answer pending obs snapshot requests (STATS/SLOWLOG on a peer,
       the coordinator's /slowlog): force a republish of our rings. *)
    if Atomic.get slot.w_obs_req > Atomic.get slot.w_obs_ack then
      Worker_core.publish_obs ~force:true core;
    (if cfg.Worker_core.flush_interval > 0.0 then
       let now = Unix.gettimeofday () in
       if now -. !last_tick >= cfg.Worker_core.flush_interval then begin
         last_tick := now;
         Worker_core.tick core
       end);
    adopt_inbox ();
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
      slot.w_wake_r :: (conn_fds !conns @ conn_fds !http_conns)
    in
    let writable = out_fds !conns @ out_fds !http_conns in
    match Unix.select readable writable [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | r, w, _ ->
        if List.memq slot.w_wake_r r then drain_pipe slot.w_wake_r;
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
  (* Graceful drain, mirroring the single-worker server: connections
     still in the inbox are adopted so their admission slots release,
     buffered replies get a bounded window, then everything closes. *)
  adopt_inbox ();
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
  Worker_core.tick core;
  Repo.close repo;
  Log.info (fun m -> m "worker %d: drained and closed" slot.w_id)

(* ---------------------------- Coordinator --------------------------- *)

let drain_writes shared repo =
  let batch =
    locked shared.write_lock (fun () ->
        let acc = ref [] in
        while not (Queue.is_empty shared.write_queue) do
          acc := Queue.pop shared.write_queue :: !acc
        done;
        List.rev !acc)
  in
  List.iter
    (fun r ->
      ignore
        (Repo.record_query repo ~elapsed_ms:r.q_elapsed_ms ~pages:r.q_pages
           ~cost:r.q_cost ~text:r.q_text ~result:r.q_result))
    batch

let run ~(config : Worker_core.config) ?(on_ready = fun _ -> ())
    ?(on_obs_ready = fun _ -> ()) ?(on_http_ready = fun _ -> ()) repo addr =
  let workers = config.Worker_core.workers in
  let dir =
    match Repo.dir repo with
    | Some d -> d
    | None ->
        invalid_arg
          "serve --workers: a multi-worker server needs an on-disk repository \
           (worker domains re-open it read-only)"
  in
  (* Fleet-global observability is installed once, here, before any
     worker core exists: the shared JSONL sink, the slowlog threshold,
     and the request histogram. *)
  ignore (Metrics.histogram "server.request_ms");
  Trace.set_slowlog_ms config.Worker_core.slowlog_ms;
  (match config.Worker_core.trace_out with
  | Some path ->
      Trace.set_sink ~max_bytes:config.Worker_core.trace_max_bytes (Some path)
  | None -> ());
  (match config.Worker_core.events_out with
  | Some path ->
      Events.set_journal ~max_bytes:config.Worker_core.events_max_bytes (Some path)
  | None -> ());
  (* Quiesce the files so the workers' read-only opens see a consistent
     image (no half-checkpointed WAL). *)
  Repo.flush repo;
  let listen_fd = Conn.listen_on addr in
  Unix.set_nonblock listen_fd;
  (* The HTTP observability endpoint binds now (so a bad --obs-listen
     fails fast, before domains spawn) but routes through a mutable
     handler — the real route table needs the watchdog and slots built
     below. *)
  let obs_handler = ref (fun _path -> Http_obs.text 503 "starting\n") in
  let obs =
    match config.Worker_core.obs_listen with
    | None -> None
    | Some oaddr -> (
        try Some (Http_obs.create ~addr:oaddr ~handler:(fun p -> !obs_handler p))
        with e ->
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          (match addr with
          | Wire.Unix_path path -> ( try Sys.remove path with Sys_error _ -> ())
          | Wire.Tcp _ -> ());
          raise e)
  in
  (* The HTTP data-service gateway binds with the same fail-fast rule. *)
  let http_lfd =
    match config.Worker_core.http_listen with
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
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let write_wake_r, write_wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock write_wake_r;
  Unix.set_nonblock write_wake_w;
  let shared =
    {
      stop = Atomic.make false;
      active = Atomic.make 0;
      next_session = Atomic.make 1;
      ready = Atomic.make 0;
      boot_failed = Atomic.make false;
      write_lock = Mutex.create ();
      write_queue = Queue.create ();
      write_wake_w;
    }
  in
  let old_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> Atomic.set shared.stop true))
  in
  let old_term =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set shared.stop true))
  in
  let slots =
    Array.init workers (fun i ->
        let r, w = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock r;
        Unix.set_nonblock w;
        {
          w_id = i + 1;
          w_lock = Mutex.create ();
          w_inbox = Queue.create ();
          w_wake_r = r;
          w_wake_w = w;
          w_rows_lock = Mutex.create ();
          w_rows = [];
          w_beat = Watchdog.make_beat ~worker:(i + 1);
          w_obs_lock = Mutex.create ();
          w_obs =
            {
              Worker_core.o_worker = i + 1;
              o_generation = -1;
              o_slow = [];
              o_recent = [];
            };
          w_obs_req = Atomic.make 0;
          w_obs_ack = Atomic.make 0;
        })
  in
  let fleet_started_at = Unix.gettimeofday () in
  let m_rejected = Metrics.counter "server.sessions.rejected" in
  let watchdog =
    Watchdog.create ~stall_after:config.Worker_core.stall_after
      ~stall_factor:config.Worker_core.stall_factor
      (Array.map (fun s -> s.w_beat) slots)
  in
  (* /healthz runs a watchdog pass of its own, so a probe observes a
     stall as soon as it crosses the threshold — no tick-cadence lag. *)
  let healthz () =
    Watchdog.check watchdog;
    (Watchdog.healthy watchdog, Watchdog.to_json watchdog)
  in
  let varz () =
    Json.Obj
      [
        ("uptime_s", Json.Num (Unix.gettimeofday () -. fleet_started_at));
        ("workers", Json.Num (float_of_int workers));
        ("active", Json.Num (float_of_int (Atomic.get shared.active)));
        ("healthy", Json.Bool (Watchdog.healthy watchdog));
        ("metrics", Metrics.to_json ());
      ]
  in
  let slowlog_json () =
    let slices = request_obs slots in
    let entries =
      Fleet.merge_records (List.map (fun s -> s.Worker_core.o_slow) slices)
    in
    Json.Obj
      [
        ( "threshold_ms",
          match Trace.slowlog_threshold () with
          | Some th -> Json.Num th
          | None -> Json.Null );
        ("workers", Json.Num (float_of_int workers));
        ("entries", Json.List (List.map Trace.record_to_json entries));
      ]
  in
  obs_handler := Http_obs.routes ~healthz ~varz ~slowlog:slowlog_json;
  let domains =
    Array.map
      (fun slot ->
        Domain.spawn
          (worker_loop ~shared ~slots ~slot ~cfg:config ~dir ~fleet_started_at))
      slots
  in
  let teardown () =
    Atomic.set shared.stop true;
    Array.iter (fun slot -> wake slot.w_wake_w) slots;
    Array.iter
      (fun d -> try Domain.join d with _ -> ())
      domains;
    (* Rows enqueued while the fleet drained still reach the history. *)
    drain_writes shared repo;
    Repo.flush repo;
    Trace.flush ();
    (match obs with Some o -> Http_obs.close o | None -> ());
    (match config.Worker_core.obs_listen with
    | Some (Wire.Unix_path p) -> ( try Sys.remove p with Sys_error _ -> ())
    | Some (Wire.Tcp _) | None -> ());
    (match http_lfd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    (match config.Worker_core.http_listen with
    | Some (Wire.Unix_path p) -> ( try Sys.remove p with Sys_error _ -> ())
    | Some (Wire.Tcp _) | None -> ());
    Events.emit "server_stopped"
      ~fields:[ ("workers", Json.Num (float_of_int workers)) ];
    Events.flush ();
    Array.iter
      (fun slot ->
        (try Unix.close slot.w_wake_r with Unix.Unix_error _ -> ());
        try Unix.close slot.w_wake_w with Unix.Unix_error _ -> ())
      slots;
    (try Unix.close write_wake_r with Unix.Unix_error _ -> ());
    (try Unix.close write_wake_w with Unix.Unix_error _ -> ());
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    (match addr with
    | Wire.Unix_path path -> ( try Sys.remove path with Sys_error _ -> ())
    | Wire.Tcp _ -> ());
    Sys.set_signal Sys.sigpipe old_pipe;
    Sys.set_signal Sys.sigint old_int;
    Sys.set_signal Sys.sigterm old_term
  in
  (* Don't accept until every worker holds its read-only repository:
     from then on the directory only changes through the coordinator's
     handle, which the workers never read again. *)
  while
    Atomic.get shared.ready < workers
    && not (Atomic.get shared.boot_failed)
    && not (Atomic.get shared.stop)
  do
    Unix.sleepf 0.002
  done;
  if Atomic.get shared.boot_failed then begin
    teardown ();
    raise (Conn.Bind_error (Printf.sprintf "worker cannot open repository %s" dir))
  end;
  on_ready (Unix.getsockname listen_fd);
  (match obs with Some o -> on_obs_ready (Http_obs.bound_addr o) | None -> ());
  (match http_lfd with
  | Some fd -> on_http_ready (Unix.getsockname fd)
  | None -> ());
  Events.emit "server_started"
    ~fields:
      [
        ("addr", Json.Str (Wire.addr_to_string addr));
        ("workers", Json.Num (float_of_int workers));
      ];
  Log.info (fun m ->
      m "listening on %s with %d workers" (Wire.addr_to_string addr) workers);
  let rr = ref 0 in
  (* Both listeners share the admission account and the round-robin
     dispatch; they differ only in how a refusal is framed (wire error
     line vs HTTP 503) and in the [conn_kind] tag the worker adopts. *)
  let accept_on lfd kind ~rejection =
    match Unix.accept lfd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | fd, _peer ->
        let active = Atomic.get shared.active in
        if active >= config.Worker_core.max_sessions then begin
          Metrics.Counter.incr m_rejected;
          Log.info (fun m ->
              m "session rejected: %d active (limit %d)" active
                config.Worker_core.max_sessions);
          Conn.reject fd
            (rejection ~active ~max_sessions:config.Worker_core.max_sessions)
        end
        else begin
          (* Charge the admission slot before dispatch; the worker's
             close_session releases it via [on_session_closed]. *)
          Atomic.incr shared.active;
          let id = Atomic.fetch_and_add shared.next_session 1 in
          Unix.set_nonblock fd;
          let slot = slots.(!rr mod workers) in
          incr rr;
          locked slot.w_lock (fun () -> Queue.push (fd, id, kind) slot.w_inbox);
          wake slot.w_wake_w
        end
  in
  let accept_new () =
    accept_on listen_fd Wire_conn ~rejection:Worker_core.rejection_body
  in
  let accept_http lfd =
    accept_on lfd Http_conn ~rejection:Http_gateway.rejection
  in
  let flush_interval = config.Worker_core.flush_interval in
  let last_tick = ref (Unix.gettimeofday ()) in
  let wd_interval = Watchdog.interval watchdog in
  let last_wd = ref (Unix.gettimeofday ()) in
  let select_timeout = Float.min 0.25 wd_interval in
  while not (Atomic.get shared.stop) do
    (if flush_interval > 0.0 then
       let now = Unix.gettimeofday () in
       if now -. !last_tick >= flush_interval then begin
         last_tick := now;
         Trace.flush ()
       end);
    (let now = Unix.gettimeofday () in
     if now -. !last_wd >= wd_interval then begin
       last_wd := now;
       Watchdog.check watchdog
     end);
    let obs_r = match obs with Some o -> Http_obs.readable o | None -> [] in
    let obs_w = match obs with Some o -> Http_obs.writable o | None -> [] in
    let http_r = match http_lfd with Some fd -> [ fd ] | None -> [] in
    (match
       Unix.select
         ((listen_fd :: write_wake_r :: obs_r) @ http_r)
         obs_w [] select_timeout
     with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | r, w, _ ->
        if List.memq write_wake_r r then drain_pipe write_wake_r;
        (match obs with
        | Some o -> Http_obs.service o ~readable:r ~writable:w
        | None -> ());
        if List.memq listen_fd r then accept_new ();
        (match http_lfd with
        | Some fd when List.memq fd r -> accept_http fd
        | Some _ | None -> ()));
    (* The write channel drains opportunistically every iteration — the
       wakeup pipe only bounds the latency when the loop is idle. *)
    drain_writes shared repo
  done;
  Log.info (fun m -> m "shutting down: draining %d workers" workers);
  teardown ();
  Log.info (fun m -> m "shutdown complete")
