(* The served side of the benchmark: start the real `crimson serve`
   binary over a prepared repository, talk to it over Unix sockets,
   scrape its STATS at the end, read its peak RSS and stop it. *)

open Common

(* Every server this process started, so an early exit still stops
   and reaps it. *)
let live = ref []

let stop_pid pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec reap () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0
  in
  let status = reap () in
  live := List.filter (( <> ) pid) !live;
  status

let () = at_exit (fun () -> List.iter (fun pid -> ignore (stop_pid pid)) !live)

type server = { pid : int; sock : string; hsock : string option }

(* ---------------------------- Line client --------------------------- *)

type conn = {
  fd : Unix.file_descr;
  pending : Buffer.t;  (** Received bytes not yet returned as a line. *)
  chunk : Bytes.t;
}

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> { fd; pending = Buffer.create 4096; chunk = Bytes.create 65536 }
  | exception e ->
      Unix.close fd;
      raise e

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let n = String.length s in
  let sent = ref 0 in
  while !sent < n do
    match Unix.write_substring fd s !sent (n - !sent) with
    | w -> sent := !sent + w
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let send c line = write_all c.fd (line ^ "\n")

(* One complete line out of the buffered bytes, if there is one. *)
let take_line c =
  let s = Buffer.contents c.pending in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      Buffer.clear c.pending;
      Buffer.add_substring c.pending s (i + 1) (String.length s - i - 1);
      Some (String.sub s 0 i)

(* Read once from the socket into the buffer; false at end of stream. *)
let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> false
  | n ->
      Buffer.add_subbytes c.pending c.chunk 0 n;
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let rec recv_line c =
  match take_line c with
  | Some l -> l
  | None -> if fill c then recv_line c else failwith "server closed the connection"

let request c line =
  send c line;
  recv_line c

let request_json c line = Json.parse (request c line)

let reply_ok j = Json.member "ok" j = Some (Json.Bool true)

(* ------------------------------ Server ------------------------------ *)

let start ~crimson ~repo_dir ~sock ?hsock ~log () =
  rm_rf sock;
  Option.iter rm_rf hsock;
  let args =
    [ crimson; "serve"; "-r"; repo_dir; "--listen"; "unix:" ^ sock ]
    @ match hsock with Some h -> [ "--http-listen"; "unix:" ^ h ] | None -> []
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out)
      (fun () -> Unix.create_process crimson (Array.of_list args) Unix.stdin out out)
  in
  live := pid :: !live;
  let deadline = now () +. 60.0 in
  let sockets = sock :: Option.to_list hsock in
  let rec ready () =
    if now () > deadline then failwith ("server did not come up; see " ^ log)
    else if not (List.for_all Sys.file_exists sockets) then begin
      ignore (Unix.select [] [] [] 0.005);
      ready ()
    end
    else
      match connect_unix sock with
      | c ->
          let hello = request_json c "HELLO" in
          close c;
          if not (reply_ok hello) then failwith "server HELLO failed"
      | exception Unix.Unix_error _ ->
          ignore (Unix.select [] [] [] 0.005);
          ready ()
  in
  ready ();
  { pid; sock; hsock }

(* The server's own view: one STATS scrape after the timed loop. *)
let scrape_stats server =
  let c = connect_unix server.sock in
  Fun.protect
    ~finally:(fun () -> close c)
    (fun () ->
      let reply = request_json c "STATS" in
      match Json.member "metrics" reply with
      | Some m -> m
      | None -> failwith "STATS reply without metrics")

let stop server =
  let rss = peak_rss_mb (string_of_int server.pid) in
  (match stop_pid server.pid with
  | Unix.WEXITED 0 -> ()
  | _ -> note "warning: server %d did not exit cleanly" server.pid);
  rss

(* Registry lookups on a STATS [metrics] object. *)
let stat_counter stats name =
  match Option.bind (Json.member "counters" stats) (Json.member name) with
  | Some (Json.Num v) -> int_of_float v
  | _ -> 0

let stat_hist stats name field =
  match
    Option.bind (Option.bind (Json.member "histograms" stats) (Json.member name)) (Json.member field)
  with
  | Some (Json.Num v) -> v
  | _ -> 0.0

(* ------------------------- Repository set-up ------------------------ *)

module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader

type built = { load_ms : float; nodes : int; disk_bytes : int }

(* Load [trees] into a fresh repository directory (plus whatever
   [extra] adds), the way `crimson load` does: default pool, f = 8,
   checkpoint on close. *)
let build_repo ~dir ?(extra = fun _ -> ()) trees =
  fresh_dir dir;
  let repo = Repo.open_dir dir in
  let load_ms = ref 0.0 and nodes = ref 0 in
  List.iter
    (fun (name, tree) ->
      let report, ms = time_ms (fun () -> Loader.load_tree ~f:8 repo ~name tree) in
      if report.Loader.node_rows <> Crimson_tree.Tree.node_count tree then
        failwith (Printf.sprintf "load of %s wrote %d node rows" name report.Loader.node_rows);
      load_ms := !load_ms +. ms;
      nodes := !nodes + report.Loader.node_rows)
    trees;
  extra repo;
  Repo.close repo;
  { load_ms = !load_ms; nodes = !nodes; disk_bytes = dir_bytes dir }

let rec copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun e ->
      let s = Filename.concat src e and d = Filename.concat dst e in
      if Sys.is_directory s then copy_dir s d
      else begin
        let ic = open_in_bin s and oc = open_out_bin d in
        Fun.protect
          ~finally:(fun () ->
            close_in_noerr ic;
            close_out_noerr oc)
          (fun () ->
            let buf = Bytes.create 65536 in
            let rec go () =
              match input ic buf 0 65536 with
              | 0 -> ()
              | n ->
                  output oc buf 0 n;
                  go ()
            in
            go ())
      end)
    (Sys.readdir src)

type setup = {
  server : server;
  setup_s : float;  (** Median over the repetitions. *)
  load_nodes_per_s : float;  (** Median over the repetitions. *)
  disk_bytes_per_node : float;
}

(* Set up [reps] times from nothing: build the repository, start the
   server, wait until it answers. Each repetition but the last stops its
   server; the last one is kept for the timed loop. *)
let setup_served ~crimson ~work ~reps ~http ?extra ?pristine trees =
  let runs =
    List.init reps (fun i ->
        let repo_dir = Filename.concat work (Printf.sprintf "repo%d" i) in
        let sock = Filename.concat work "wire.sock" in
        let hsock = if http then Some (Filename.concat work "http.sock") else None in
        let t0 = now () in
        let built = build_repo ~dir:repo_dir ?extra trees in
        (* The traced run replays in-process on copies of the untouched
           repository; the copy is not set-up work. *)
        let copy_s =
          match pristine with
          | Some dst when i = reps - 1 ->
              let t1 = now () in
              rm_rf dst;
              copy_dir repo_dir dst;
              now () -. t1
          | _ -> 0.0
        in
        let server =
          start ~crimson ~repo_dir ~sock ?hsock ~log:(Filename.concat work "server.log") ()
        in
        let setup_s = now () -. t0 -. copy_s in
        let server =
          if i < reps - 1 then begin
            ignore (stop server);
            rm_rf repo_dir;
            None
          end
          else Some server
        in
        (setup_s, built, server))
  in
  let server, built =
    match List.rev runs with
    | (_, built, Some s) :: _ -> (s, built)
    | _ -> assert false
  in
  note "setup: %s s; load %d nodes in %s ms"
    (String.concat ", " (List.map (fun (s, _, _) -> Printf.sprintf "%.3f" s) runs))
    built.nodes
    (String.concat ", " (List.map (fun (_, b, _) -> Printf.sprintf "%.1f" b.load_ms) runs));
  {
    server;
    setup_s = median_of (List.map (fun (s, _, _) -> s) runs);
    load_nodes_per_s =
      median_of
        (List.map (fun (_, b, _) -> float_of_int b.nodes /. (b.load_ms /. 1000.0)) runs);
    disk_bytes_per_node = float_of_int built.disk_bytes /. float_of_int built.nodes;
  }

(* The end-to-end metrics of a served run, tail at p99. *)
let e2e_metrics setup ~ops ~elapsed ~lat ~rss =
  [ metric "setup_s" "s" setup.setup_s; metric "ops_per_s" "op/s" (float_of_int ops /. elapsed) ]
  @ op_latency ~tail_p:99.0 lat
  @ [
      metric "load_nodes_per_s" "nodes/s" setup.load_nodes_per_s;
      metric "disk_bytes_per_node" "B/node" setup.disk_bytes_per_node;
      metric "peak_rss_mb" "MiB" rss;
    ]

(* A fresh copy of the untouched repository for one in-process replay. *)
let replica ~work ~pristine name =
  let d = Filename.concat work name in
  rm_rf d;
  copy_dir pristine d;
  d

(* Per-layer numbers every served traced run takes from the server's
   STATS scrape, the set-up loads (counter deltas of this process) and
   the untraced and traced replays. *)
let record_common_layers ~stats ~client_p50 ~setup ~nodes ~build_counts ~untraced ~traced =
  set_layer "server.request_ms_p99" (stat_hist stats "server.request_ms" "p99");
  set_layer "server.residual_ms_p50" (client_p50 -. stat_hist stats "server.request_ms" "p50");
  set_layer "core.load_ms_per_knode" (1e6 /. setup.load_nodes_per_s);
  (match build_counts with
  | [ writes; node_writes ] ->
      set_layer "storage.pages_written_per_node" (float_of_int writes /. float_of_int nodes);
      set_layer "storage.btree_node_writes_per_node" (float_of_int node_writes /. float_of_int nodes)
  | _ -> ());
  record_overhead ~traced ~untraced

let build_counters = [ "storage.pager.write"; "storage.btree.node_write" ]
