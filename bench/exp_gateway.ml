(* E17 — gateway overview cost: precomputed summary clusters vs tree
   size, plus the HTTP caching path.

   The design claim: `/v1/trees/:id/overview?depth=k` is one short
   range scan over the summary table whose cost is the cluster count at
   the requested layer — f-fold fewer rows per resolution level
   dropped, and never the node pages — so it stays an order of
   magnitude under the full node scan as the tree grows. The
   in-process sweep measures `Summary.overview` latency and
   `Repo.measure` page touches at three tree sizes, and contrasts the
   precomputed path with the node-scan fallback (summary rows deleted)
   at the largest size. The end-to-end phase serves the largest tree
   over a real gateway socket and measures overview GET latency and the
   conditional-GET path: after the first 200, every revalidation must
   come back 304 Not Modified. Between the two, the largest overview
   reply is built through the worker core and its JSON encoding timed
   on its own (`encode_l8000_ms`), the layer a served GET adds on top of
   the query. *)

open Bench_common
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Stored_tree = Crimson_core.Stored_tree
module Summary = Crimson_core.Summary
module Table = Crimson_storage.Table
module Wire = Crimson_server.Wire
module Engine = Crimson_server.Engine
module Server = Crimson_server.Server
module Http_client = Crimson_server.Http_client
module Worker_core = Crimson_server.Worker_core
module Request = Crimson_gateway.Request
module Response = Crimson_gateway.Response

let sizes = [ 500; 2000; 8000 ]
let reps = 40
let conditional_gets = 50

let overview_once stored = ignore (Summary.overview stored ~depth:1)

let drop_summaries repo =
  let table = Repo.summaries repo in
  let doomed = ref [] in
  Table.scan table (fun rid _ -> doomed := rid :: !doomed);
  List.iter (fun rid -> ignore (Table.delete table rid)) !doomed

let wait_for_socket path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
    ignore (Unix.select [] [] [] 0.02)
  done;
  if not (Sys.file_exists path) then failwith "gateway socket never appeared"

let fork_server ~repo_dir ~sock ~hsock =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Crimson_obs.Trace.child_reset ();
      Crimson_obs.Events.child_reset ();
      Crimson_obs.Metrics.reset_all ();
      let repo = Repo.open_dir ~create:false repo_dir in
      let config =
        {
          Engine.default_config with
          Engine.max_sessions = 8;
          request_timeout = 10.0;
          http_listen = Some (Wire.Unix_path hsock);
        }
      in
      Fun.protect
        ~finally:(fun () -> Repo.close repo)
        (fun () -> Server.run ~config repo (Wire.Unix_path sock));
      Unix._exit 0
  | pid ->
      wait_for_socket hsock;
      pid

let stop_server pid =
  Unix.kill pid Sys.sigterm;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> Printf.eprintf "E17: server did not exit cleanly\n%!"

let run () =
  section "E17" "gateway: overview latency vs tree size, summary hits, 304 rate";
  with_scratch_dir (fun dir ->
      (* In-process sweep: overview cost as the tree grows 16x. *)
      let table =
        T.create
          ~columns:
            [
              ("leaves", T.Right);
              ("nodes", T.Right);
              ("clusters", T.Right);
              ("overview ms", T.Right);
              ("pages", T.Right);
            ]
      in
      let fields = ref [] in
      let largest = ref None in
      List.iter
        (fun leaves ->
          let repo_dir = Filename.concat dir (Printf.sprintf "r%d" leaves) in
          let repo = Repo.open_dir repo_dir in
          let stored =
            (Loader.load_tree ~f:8 repo ~name:"bench" (yule leaves)).Loader.tree
          in
          let _, clusters = Summary.overview stored ~depth:1 in
          let _, _, pages = Repo.measure repo (fun () -> overview_once stored) in
          let ms = time_mean ~reps (fun () -> overview_once stored) in
          T.add_row table
            [
              string_of_int leaves;
              string_of_int (Stored_tree.node_count stored);
              string_of_int (List.length clusters);
              Printf.sprintf "%.4f" ms;
              string_of_int pages;
            ];
          fields :=
            (Printf.sprintf "overview_pages_l%d" leaves, Json.Num (float_of_int pages))
            :: (Printf.sprintf "overview_ms_l%d" leaves, Json.Num ms)
            :: !fields;
          if leaves = List.fold_left max 0 sizes then
            largest := Some (repo_dir, repo, stored)
          else Repo.close repo)
        sizes;
      print_string (T.render table);
      (* Hit ratio so far, then the fallback contrast on the largest
         tree: drop its summary rows and measure the node-scan path. *)
      let counter = Crimson_obs.Metrics.counter_value in
      let hits = counter "core.summary.hit" and misses = counter "core.summary.miss" in
      let hit_ratio =
        if hits + misses = 0 then 0.0
        else float_of_int hits /. float_of_int (hits + misses)
      in
      let repo_dir, repo, stored =
        match !largest with Some x -> x | None -> failwith "no largest tree"
      in
      (* The served reply's JSON, encoded in-process: the same fields
         the gateway renders for GET /v1/trees/bench/overview?depth=1. *)
      let encode_ms, reply_bytes =
        let core = Worker_core.create repo in
        let session =
          match Worker_core.open_session core with
          | Ok s -> s
          | Error _ -> failwith "E17: session refused"
        in
        match
          Worker_core.dispatch core session
            (Request.Overview { tree = "bench"; depth = 1 })
        with
        | Response.Reply { fields; _ } ->
            let reply = Json.Obj (("ok", Json.Bool true) :: fields) in
            let bytes = String.length (Json.to_string reply) in
            Worker_core.close_session core session;
            (time_mean ~reps (fun () -> ignore (Json.to_string reply)), bytes)
        | Response.Err { message; _ } -> failwith ("E17 overview: " ^ message)
      in
      note "overview reply at %d leaves: %d bytes, encoded in %.3f ms"
        (List.fold_left max 0 sizes) reply_bytes encode_ms;
      let fallback_ms =
        drop_summaries repo;
        time_mean ~reps:5 (fun () -> overview_once stored)
      in
      let served_ms =
        match List.assoc_opt (Printf.sprintf "overview_ms_l%d" (List.fold_left max 0 sizes)) !fields with
        | Some (Json.Num v) -> v
        | _ -> 0.0
      in
      note "summary hit ratio %.3f; fallback scan %.3f ms vs served %.4f ms (%.0fx)"
        hit_ratio fallback_ms served_ms
        (if served_ms > 0.0 then fallback_ms /. served_ms else 0.0);
      Repo.close repo;
      (* Rebuild the largest repository (the fallback contrast deleted
         its summary rows) and measure the gateway end to end. *)
      let repo_dir2 = Filename.concat dir "served" in
      let repo = Repo.open_dir repo_dir2 in
      ignore
        (Loader.load_tree ~f:8 repo ~name:"bench"
           (yule (List.fold_left max 0 sizes)));
      Repo.close repo;
      ignore repo_dir;
      let sock = Filename.concat dir "e17.sock" in
      let hsock = Filename.concat dir "e17_http.sock" in
      let server = fork_server ~repo_dir:repo_dir2 ~sock ~hsock in
      let http_ms, rate_304 =
        let conn =
          match Http_client.connect (Wire.Unix_path hsock) with
          | Ok c -> c
          | Error e -> failwith ("E17 connect: " ^ e)
        in
        Fun.protect
          ~finally:(fun () -> Http_client.close conn)
          (fun () ->
            let path = "/v1/trees/bench/overview?depth=1" in
            let first =
              match Http_client.request conn path with
              | Ok r when r.Http_client.status = 200 -> r
              | Ok r ->
                  failwith (Printf.sprintf "E17: HTTP %d" r.Http_client.status)
              | Error e -> failwith ("E17 GET: " ^ e)
            in
            let etag =
              match Http_client.header first "etag" with
              | Some t -> t
              | None -> failwith "E17: overview reply without ETag"
            in
            (* Uncached GET latency. *)
            let http_ms =
              time_mean ~reps:20 (fun () ->
                  match Http_client.request conn path with
                  | Ok _ -> ()
                  | Error e -> failwith ("E17 GET: " ^ e))
            in
            (* Conditional GETs: every one must revalidate to 304. *)
            let not_modified = ref 0 in
            for _ = 1 to conditional_gets do
              match
                Http_client.request conn
                  ~headers:[ ("If-None-Match", etag) ]
                  path
              with
              | Ok r when r.Http_client.status = 304 -> incr not_modified
              | Ok _ -> ()
              | Error e -> failwith ("E17 conditional GET: " ^ e)
            done;
            (http_ms, float_of_int !not_modified /. float_of_int conditional_gets))
      in
      stop_server server;
      note "gateway: overview GET %.3f ms, conditional 304 rate %.2f" http_ms
        rate_304;
      emit_bench ~experiment:"E17"
        ~fields:
          (List.rev !fields
          @ [
              ("summary_hit_ratio", Json.Num hit_ratio);
              ("encode_l8000_ms", Json.Num encode_ms);
              ("fallback_scan_ms", Json.Num fallback_ms);
              ("http_overview_ms", Json.Num http_ms);
              ("etag_304_rate", Json.Num rate_304);
            ])
        ())
