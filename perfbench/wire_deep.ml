(* wire-deep: structure queries over the line protocol on two very deep
   or very large trees, two closed-loop connections from one process
   against `crimson serve` at one worker.

   Tree "deep" is a 20,000-leaf caterpillar (39,999 nodes, 5 label
   layers at f = 8), tree "bushy" a 20,000-leaf Yule tree; one session
   USEs each. Replies are small, so the time goes to label layers, the
   node-view cache and the buffer pool, with a working set far above
   both (256 pages per file, 4,096 views per tree). Every reply is
   checked against the in-memory oracle after the timed loop. *)

open Common
module Tree = Crimson_tree.Tree
module Models = Crimson_sim.Models
module Prng = Crimson_util.Prng
module Repo = Crimson_core.Repo
module Stored_tree = Crimson_core.Stored_tree
module Query_lang = Crimson_core.Query_lang
module Database = Crimson_storage.Database
module Worker_core = Crimson_server.Worker_core
module Wire = Crimson_server.Wire
module Response = Crimson_gateway.Response

let leaves = 20_000
let warmup = 200 (* requests per connection before the clock starts *)
let replay_per_tree = 500 (* traced run: requests replayed per tree *)

type verb = Lca | Distance | Clade | Project | Sample

let verb_name = function
  | Lca -> "lca"
  | Distance -> "distance"
  | Clade -> "clade"
  | Project -> "project"
  | Sample -> "sample"

type req = { verb : verb; names : string list; time : float; text : string }

(* The mix: lca 30%, distance 20%, clade of 3 20%, project of 8 distinct
   species 20%, sample(8, t) 10% with t uniform below the time at which
   fewer than 8 leaves would lie beyond it, dealt in blocks of ten. A
   sample's cost grows with t (the frontier walk), so t follows a
   golden-ratio sequence from a random start: uniform over the range,
   but evenly spread within one run, so runs do not differ by lucky
   draws. *)
type gen = { rng : Prng.t; oracle : Oracle.t; mix : verb Mix.t; mutable phase : float }

let generator rng oracle =
  {
    rng;
    oracle;
    mix = Mix.create rng [| Lca; Lca; Lca; Distance; Distance; Clade; Clade; Project; Project; Sample |];
    phase = Prng.float rng 1.0;
  }

let gen g =
  let o = g.oracle and rng = g.rng in
  let distinct k =
    Prng.sample_without_replacement rng ~k ~n:(Oracle.leaf_count o)
    |> Array.to_list
    |> List.map (Oracle.leaf_name o)
  in
  let call verb names =
    {
      verb;
      names;
      time = 0.0;
      text = Printf.sprintf "%s(%s)" (verb_name verb) (String.concat ", " names);
    }
  in
  match Mix.next g.mix with
  | (Lca | Distance) as verb -> call verb (distinct 2)
  | Clade -> call Clade (distinct 3)
  | Project -> call Project (distinct 8)
  | Sample ->
      g.phase <- Float.rem (g.phase +. 0.6180339887498949) 1.0;
      let t = Float.floor (g.phase *. Oracle.sample_time_bound o ~k:8 *. 1e6) /. 1e6 in
      let shown = Printf.sprintf "%.6f" t in
      { verb = Sample; names = []; time = float_of_string shown; text = Printf.sprintf "sample(8, %s)" shown }

let check o req result =
  match req.verb with
  | Lca -> Oracle.check_lca o req.names result
  | Distance -> Oracle.check_distance o req.names result
  | Clade -> Oracle.check_clade o req.names result
  | Project -> Oracle.check_project o req.names result
  | Sample -> Oracle.check_sample o ~k:8 ~time:req.time result

let check_reply o req line =
  let ok =
    match Json.parse line with
    | j when Served.reply_ok j -> (
        match Json.member "result" j with Some (Json.Str r) -> check o req r | _ -> false)
    | _ -> false
    | exception _ -> false
  in
  if not ok then show_failure req.text line;
  ok

type input = {
  trees : (string * Tree.t) list;
  oracles : (string * Oracle.t) list;
  session_seed : int;
}

(* The trees are a fixed fixture, so that runs compare the system and
   not two tree shapes; the seed draws the traffic (species, sample
   times, order) and the sessions' sampling seed. *)
let make_input seed =
  let deep = Models.caterpillar ~rng:(Prng.create 1) ~leaves () in
  let bushy = Models.yule ~rng:(Prng.create 2) ~leaves () in
  let trees = [ ("deep", deep); ("bushy", bushy) ] in
  { trees; oracles = List.map (fun (n, t) -> (n, Oracle.build t)) trees; session_seed = seed }

(* Each connection's request stream is its own seeded generator, so the
   traced run replays exactly the requests the timed run started with. *)
let stream_rng seed i = Prng.create ((seed * 1_000) + 17 + i)

(* ---------------------------- Timed loop ---------------------------- *)

type stream = {
  tree : string;
  conn : Served.conn;
  oracle : Oracle.t;
  gen : gen;
  mutable cur : req;
  mutable sent_at : float;
  mutable live : bool;
  mutable log : (req * string) list;  (** Completed requests, newest first. *)
}

let open_stream server input i (name, oracle) =
  let conn = Served.connect_unix server.Served.sock in
  List.iter
    (fun line ->
      if not (Served.reply_ok (Served.request_json conn line)) then failwith ("set-up request failed: " ^ line))
    [ "USE " ^ name; Printf.sprintf "SEED %d" input.session_seed ];
  { tree = name; conn; oracle; gen = generator (stream_rng input.session_seed i) oracle; cur = { verb = Lca; names = []; time = 0.0; text = "" }; sent_at = 0.0; live = true; log = [] }

let send_next s =
  s.cur <- gen s.gen;
  s.sent_at <- now ();
  Served.send s.conn ("QUERY " ^ s.cur.text)

type loop_result = { lat : Samples.t; ops : int; bytes : int; elapsed : float }

(* Closed loop: each connection sends its next request as soon as its
   previous reply is complete, until [seconds] have passed. *)
let closed_loop streams ~seconds =
  let lat = Samples.create () and bytes = ref 0 in
  let t0 = now () in
  let deadline = t0 +. seconds in
  Array.iter send_next streams;
  let active = ref (Array.length streams) in
  while !active > 0 do
    let fds = Array.to_list streams |> List.filter (fun s -> s.live) |> List.map (fun s -> s.conn.Served.fd) in
    match Unix.select fds [] [] 30.0 with
    | [], _, _ -> failwith "server stalled for 30 s"
    | ready, _, _ ->
        List.iter
          (fun fd ->
            let s = List.find (fun s -> s.conn.Served.fd = fd) (Array.to_list streams) in
            if not (Served.fill s.conn) then failwith "server closed a connection";
            match Served.take_line s.conn with
            | None -> ()
            | Some line ->
                let t = now () in
                Samples.add lat (1000.0 *. (t -. s.sent_at));
                bytes := !bytes + String.length line + 1;
                s.log <- (s.cur, line) :: s.log;
                if t < deadline then send_next s
                else begin
                  s.live <- false;
                  decr active
                end)
          ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  { lat; ops = Samples.count lat; bytes = !bytes; elapsed = now () -. t0 }

let warm s =
  for _ = 1 to warmup do
    send_next s;
    let line = Served.recv_line s.conn in
    s.log <- (s.cur, line) :: s.log
  done

(* The server's own elapsed_ms per verb and tree, from the replies. *)
let per_verb_report streams =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      List.iter
        (fun (req, line) ->
          match Json.member "elapsed_ms" (Json.parse line) with
          | Some (Json.Num ms) ->
              let key = (s.tree, verb_name req.verb) in
              Hashtbl.replace tbl key (ms :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
          | _ | (exception _) -> ())
        s.log)
    streams;
  Hashtbl.iter
    (fun (tree, verb) l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      note "  server %-8s on %-5s n=%d p50 %.3f ms max %.3f ms" verb tree (Array.length a) (median a)
        a.(Array.length a - 1))
    tbl

let verify streams =
  Array.fold_left
    (fun (attempted, failed) s ->
      List.fold_left
        (fun (a, f) (req, line) -> (a + 1, if check_reply s.oracle req line then f else f + 1))
        (attempted, failed) s.log)
    (0, 0) streams

(* --------------------------- Traced passes -------------------------- *)

(* The requests both traced passes replay: the first [replay_per_tree]
   of each connection's stream, interleaved as the two connections
   would send them. *)
let replay_list input =
  let streams =
    List.mapi
      (fun i (name, o) ->
        let g = generator (stream_rng input.session_seed i) o in
        Array.init replay_per_tree (fun _ -> (name, gen g)))
      input.oracles
    |> Array.of_list
  in
  let m = Array.length streams in
  Array.init (m * replay_per_tree) (fun k -> streams.(k mod m).(k / m))

let reply_json = function
  | Response.Reply { fields; _ } -> Json.Obj (("ok", Json.Bool true) :: fields)
  | Response.Err { code; message; _ } ->
      Json.Obj [ ("ok", Json.Bool false); ("error", Response.error_json code message) ]

(* The served path in-process, through the entry points the server
   uses: wire parse, the shared verb dispatch, JSON encoding. *)
let serve_pass ~dir input reqs =
  let repo = Repo.open_dir dir in
  let core = Worker_core.create repo in
  let sessions =
    List.map
      (fun (name, _) ->
        let s = match Worker_core.open_session core with Ok s -> s | Error _ -> failwith "session refused" in
        List.iter
          (fun r -> ignore (Worker_core.dispatch core s r))
          [ Crimson_gateway.Request.Use name; Crimson_gateway.Request.Seed input.session_seed ];
        (name, s))
      input.trees
  in
  let ops = Samples.create () and encode = Samples.create () and bytes = ref 0 and bad = ref 0 in
  Array.iteri
    (fun i (tree, req) ->
      let s = List.assoc tree sessions in
      let t0 = now () in
      let line =
        Spans.op ~id:i "op.serve" (fun () ->
            let parsed = Spans.span "server.parse" (fun () -> Wire.parse_command ("QUERY " ^ req.text)) in
            let resp =
              Spans.span "server.dispatch" (fun () ->
                  match parsed with
                  | Ok r -> Worker_core.dispatch core s r
                  | Error (code, msg) -> Response.err code msg)
            in
            let json = reply_json resp in
            let e0 = now () in
            let line = Spans.span "obs.encode" (fun () -> Json.to_string json) in
            Samples.add encode (ms_since e0);
            line)
      in
      Samples.add ops (ms_since t0);
      bytes := !bytes + String.length line + 1;
      if not (check_reply (List.assoc tree input.oracles) req line) then incr bad)
    reqs;
  List.iter (fun (_, s) -> Worker_core.close_session core s) sessions;
  Repo.close repo;
  (ops, encode, !bytes, !bad)

(* The core layer called directly: each query through Query_lang.run
   (pages from Repo.measure), then its Query Repository row. *)
let core_pass ~dir input reqs =
  let repo = Repo.open_dir dir in
  let handles = List.map (fun (name, _) -> (name, Stored_tree.open_name repo name)) input.trees in
  let rngs = List.map (fun (name, _) -> (name, Prng.create input.session_seed)) input.trees in
  Database.reset_pager_stats (Repo.database repo);
  let per_verb = Hashtbl.create 8 and history = Samples.create () and bad = ref 0 in
  Array.iteri
    (fun i (tree, req) ->
      let stored = List.assoc tree handles in
      let t0 = now () in
      let result, _, _ =
        Spans.op ~id:i "op.core" (fun () ->
            let (result, _, pages) as measured =
              Spans.span ("core." ^ verb_name req.verb) (fun () ->
                  Repo.measure repo (fun () ->
                      Query_lang.run ~rng:(List.assoc tree rngs) ~record:false repo stored req.text))
            in
            let ms = ms_since t0 in
            (match result with
            | Ok outcome ->
                let h0 = now () in
                Spans.span "core.history_record" (fun () ->
                    ignore
                      (Repo.record_query repo ~elapsed_ms:ms ~pages ~text:req.text
                         ~result:outcome.Query_lang.result));
                Samples.add history (ms_since h0)
            | Error _ -> ());
            let prev = Option.value ~default:[] (Hashtbl.find_opt per_verb req.verb) in
            Hashtbl.replace per_verb req.verb ((ms, pages) :: prev);
            measured)
      in
      let ok =
        match result with
        | Ok outcome -> check (List.assoc tree input.oracles) req outcome.Query_lang.result
        | Error _ -> false
      in
      if not ok then begin
        show_failure req.text (match result with Ok o -> o.Query_lang.result | Error msg -> msg);
        incr bad
      end)
    reqs;
  let hits, misses, reads = pool_totals repo in
  let cache =
    List.fold_left
      (fun (h, m) (_, st) ->
        let c = Stored_tree.cache_stats st in
        (h + c.Crimson_core.Node_view.hits, m + c.Crimson_core.Node_view.misses))
      (0, 0) handles
  in
  let _, flush_ms = time_ms (fun () -> Repo.flush repo) in
  Repo.close repo;
  (per_verb, history, (hits, misses, reads), cache, flush_ms, !bad)

(* ------------------------------ Entry ------------------------------- *)

let run ~crimson ~work ~seed ~seconds ~trace =
  let input = make_input seed in
  let nodes = List.fold_left (fun acc (_, t) -> acc + Tree.node_count t) 0 input.trees in
  note "wire-deep: %d nodes in %d trees" nodes (List.length input.trees);
  let pristine = Filename.concat work "pristine" in
  let (setup, build_counts) =
    counter_delta Served.build_counters (fun () ->
        Served.setup_served ~crimson ~work ~reps:(if trace then 1 else 3) ~http:false
          ?pristine:(if trace then Some pristine else None)
          input.trees)
  in
  let streams = Array.of_list (List.mapi (open_stream setup.server input) input.oracles) in
  Array.iter warm streams;
  let loop = closed_loop streams ~seconds in
  Array.iter (fun s -> Served.close s.conn) streams;
  let stats = Served.scrape_stats setup.server in
  let rss = Served.stop setup.server in
  let attempted, failed = verify streams in
  per_verb_report streams;
  let client_p50 = median (Samples.sorted loop.lat) in
  note "served: %d ops in %.2f s, %d reply bytes; server request_ms p50 %.4f p99 %.4f; pool hit %.3f; node cache hit %.3f"
    loop.ops loop.elapsed loop.bytes
    (Served.stat_hist stats "server.request_ms" "p50")
    (Served.stat_hist stats "server.request_ms" "p99")
    (ratio (Served.stat_counter stats "storage.pager.hit")
       (Served.stat_counter stats "storage.pager.hit" + Served.stat_counter stats "storage.pager.miss"))
    (ratio (Served.stat_counter stats "core.node_cache.hit")
       (Served.stat_counter stats "core.node_cache.hit" + Served.stat_counter stats "core.node_cache.miss"));
  if not trace then
    (attempted, failed, Served.e2e_metrics setup ~ops:loop.ops ~elapsed:loop.elapsed ~lat:loop.lat ~rss)
  else begin
    let reqs = replay_list input in
    let copy = Served.replica ~work ~pristine in
    let dir_w = copy "replay-warmup" and dir_a = copy "replay-untraced" in
    let dir_b = copy "replay-traced" and dir_c = copy "replay-core" in
    (* A first, discarded replay takes the process's own warm-up (heap
       growth), which would otherwise land on whichever replay ran first. *)
    let _, _, _, bad_w = serve_pass ~dir:dir_w input reqs in
    let untraced, _, _, bad0 = serve_pass ~dir:dir_a input reqs in
    Spans.recording := true;
    let traced, encode, bytes, bad1 = serve_pass ~dir:dir_b input reqs in
    let per_verb, history, (hits, misses, reads), (ch, cm), flush_ms, bad2 = core_pass ~dir:dir_c input reqs in
    Spans.recording := false;
    let n = Array.length reqs in
    Served.record_common_layers ~stats ~client_p50 ~setup ~nodes ~build_counts ~untraced ~traced;
    set_layer "server.handle_ms_p50" (median (Samples.sorted traced));
    set_layer "obs.encode_ms_per_op" (Samples.sum encode /. float_of_int n);
    set_layer "obs.reply_bytes_per_op" (float_of_int bytes /. float_of_int n);
    Hashtbl.iter
      (fun verb samples ->
        let name = verb_name verb in
        set_layer (Printf.sprintf "core.%s_ms" name) (median_of (List.map fst samples));
        set_layer (Printf.sprintf "core.%s_pages" name)
          (mean (List.map (fun (_, p) -> float_of_int p) samples)))
      per_verb;
    set_layer "core.node_cache_hit_ratio" (ratio ch (ch + cm));
    set_layer "core.history_record_ms" (median (Samples.sorted history));
    Label_probe.record (List.map snd input.trees);
    set_layer "storage.pool_hit_ratio" (ratio hits (hits + misses));
    set_layer "storage.pages_read_per_op" (float_of_int reads /. float_of_int n);
    set_layer "storage.flush_ms" flush_ms;
    List.iter rm_rf [ dir_w; dir_a; dir_b; dir_c; pristine ];
    (attempted + (4 * n), failed + bad_w + bad0 + bad1 + bad2, layer_metrics ())
  end
