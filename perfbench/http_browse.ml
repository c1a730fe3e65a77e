(* http-browse: one interactive user of the /v1 HTTP gateway, a closed
   loop on one keep-alive connection against `crimson serve
   --http-listen` at one worker.

   The repository holds Yule trees of 500, 2,000 and 8,000 leaves and a
   collection of 100 one-leaf-swap replicates of a 100-leaf tree. The
   mix is dominated by building and encoding large JSON replies (the
   8,000-leaf overview is about 200 KB); the summary table fits in the
   buffer pool. A quarter of the requests revalidate an ETag seen
   earlier and must come back 304 with an empty body. *)

open Common
module Tree = Crimson_tree.Tree
module Models = Crimson_sim.Models
module Prng = Crimson_util.Prng
module Newick = Crimson_formats.Newick
module Consensus = Crimson_recon.Consensus
module Repo = Crimson_core.Repo
module Stored_tree = Crimson_core.Stored_tree
module Summary = Crimson_core.Summary
module Collection = Crimson_collection.Collection
module Database = Crimson_storage.Database
module Worker_core = Crimson_server.Worker_core
module Http_client = Crimson_server.Http_client
module Wire = Crimson_server.Wire
module Http = Crimson_gateway.Http

let sizes = [ 500; 2_000; 8_000 ]
let replicates = 100
let replicate_leaves = 100
let collection = "reps"
let warmup = 100 (* requests before the clock starts *)
let replay = 1_500 (* traced run: requests replayed in-process *)

type input = {
  trees : (string * Tree.t) list;
  oracles : (string * Oracle.t) list;
  reps : Tree.t list;
  consensus : Tree.t;  (** Majority rule of [reps], computed in memory. *)
}

(* Swap the names of two random leaves. *)
let one_leaf_swap rng base =
  let leaves = Tree.leaves base in
  let name i = Option.get (Tree.name base leaves.(i)) in
  let i = Prng.int rng (Array.length leaves) and j = Prng.int rng (Array.length leaves) in
  let a = name i and b = name j in
  let swap n = if n = a then b else if n = b then a else n in
  let builder = Tree.Builder.create () in
  let rec copy parent v =
    let name = Option.map (fun n -> if Tree.is_leaf base v then swap n else n) (Tree.name base v) in
    let id =
      match parent with
      | None -> Tree.Builder.add_root ?name builder
      | Some p -> Tree.Builder.add_child ?name ~branch_length:(Tree.branch_length base v) builder ~parent:p
    in
    List.iter (copy (Some id)) (Tree.children base v)
  in
  copy None (Tree.root base);
  Tree.Builder.finish builder

(* The repository is a fixed fixture (overview sizes depend strongly on
   tree shape), so runs compare the system; the seed draws the traffic. *)
let make_input () =
  let trees =
    List.mapi
      (fun i leaves -> (Printf.sprintf "y%d" leaves, Models.yule ~rng:(Prng.create (10 + i)) ~leaves ()))
      sizes
  in
  let rng = Prng.create 15 in
  let base = Models.yule ~rng ~leaves:replicate_leaves () in
  let reps = List.init replicates (fun _ -> one_leaf_swap rng base) in
  {
    trees;
    oracles = List.map (fun (n, t) -> (n, Oracle.build t)) trees;
    reps;
    consensus = Consensus.majority_rule reps;
  }

let ingest_collection input repo =
  let taxa = Array.to_list (Array.map (fun v -> Option.get (Tree.name (List.hd input.reps) v)) (Tree.leaves (List.hd input.reps))) in
  let c = Collection.create repo ~name:collection ~taxa in
  List.iter (fun t -> ignore (Collection.ingest c t)) input.reps

(* ------------------------------ Requests ---------------------------- *)

type kind =
  | Overview of string
  | Info of string
  | Listing
  | Clade of string * string list
  | Consensus_view
  | Revalidate of string  (** Path of an earlier request. *)

type req = { kind : kind; path : string }

let path_of = function
  | Overview t -> Printf.sprintf "/v1/trees/%s/overview?depth=1" t
  | Info t -> "/v1/trees/" ^ t
  | Listing -> "/v1/trees?per_page=20"
  | Clade (t, species) -> Printf.sprintf "/v1/trees/%s/clade?species=%s" t (String.concat "," species)
  | Consensus_view -> Printf.sprintf "/v1/collections/%s/consensus" collection
  | Revalidate p -> p

(* The mix, dealt in blocks of twenty: 25% revalidations of a path
   requested earlier, 30% overviews (10% per tree size), 10% tree info,
   10% listing, 15% clade of three species, 10% consensus. Every plain
   request is a cacheable resource, so which paths exist to revalidate
   depends only on the sequence. *)
type slot = S_revalidate | S_overview of int | S_info | S_listing | S_clade | S_consensus

let block =
  Array.concat
    [
      Array.make 5 S_revalidate;
      Array.init 6 (fun i -> S_overview (i mod 3));
      Array.make 2 S_info;
      Array.make 2 S_listing;
      Array.make 3 S_clade;
      Array.make 2 S_consensus;
    ]

let generator input rng =
  let seen = ref [||] and n_seen = ref 0 in
  let remember p =
    if !n_seen = Array.length !seen then begin
      let bigger = Array.make (max 64 (2 * !n_seen)) "" in
      Array.blit !seen 0 bigger 0 !n_seen;
      seen := bigger
    end;
    !seen.(!n_seen) <- p;
    incr n_seen
  in
  let names = Array.of_list (List.map fst input.trees) in
  let tree () = names.(Prng.int rng (Array.length names)) in
  let mix = Mix.create rng block in
  fun () ->
    let kind =
      match Mix.next mix with
      | S_revalidate when !n_seen > 0 -> Revalidate !seen.(Prng.int rng !n_seen)
      | S_revalidate -> Overview (tree ())
      | S_overview i -> Overview names.(i)
      | S_info -> Info (tree ())
      | S_listing -> Listing
      | S_clade ->
          let t = tree () in
          let o = List.assoc t input.oracles in
          let picks = Prng.sample_without_replacement rng ~k:3 ~n:(Oracle.leaf_count o) in
          Clade (t, Array.to_list (Array.map (Oracle.leaf_name o) picks))
      | S_consensus -> Consensus_view
    in
    let path = path_of kind in
    (match kind with Revalidate _ -> () | _ -> remember path);
    { kind; path }

(* ------------------------------ Checks ------------------------------ *)

let num j k = match Json.member k j with Some (Json.Num v) -> Some (int_of_float v) | _ -> None

let check_overview o j =
  match Json.member "clusters" j with
  | Some (Json.List clusters) ->
      let whole = ref false in
      let each =
        List.for_all
          (fun c ->
            match (num c "root", num c "nodes", num c "leaves") with
            | Some root, Some nodes, Some leaves ->
                if root = 0 && leaves = Oracle.leaf_count o then whole := true;
                root >= 0 && root < Oracle.node_count o && nodes = o.Oracle.size.(root)
                && leaves = o.Oracle.leaves_under.(root)
            | _ -> false)
          clusters
      in
      each && !whole
  | _ -> false

let check_info o j = num j "nodes" = Some (Oracle.node_count o) && num j "leaves" = Some (Oracle.leaf_count o)

let check_listing input j =
  match Json.member "trees" j with
  | Some (Json.List rows) ->
      List.length rows = List.length input.trees
      && List.for_all
           (fun row ->
             match Json.member "name" row with
             | Some (Json.Str name) -> (
                 match List.assoc_opt name input.oracles with
                 | Some o -> check_info o row
                 | None -> false)
             | _ -> false)
           rows
  | _ -> false

let check_clade o species j =
  let root = Oracle.lca_set o (Oracle.ids o species) in
  num j "root" = Some root
  && num j "leaves" = Some o.Oracle.leaves_under.(root)
  && match Json.member "newick" j with Some (Json.Str nw) -> Oracle.check_project o species nw | _ -> false

let check_consensus input j =
  match Json.member "consensus" j with
  | Some (Json.Str nw) -> (
      match Newick.parse nw with
      | t -> Tree.equal_unordered ~weighted:false t input.consensus
      | exception _ -> false)
  | _ -> false

(* [status], [body] of one exchange; [conditional] when it carried an
   If-None-Match. A revalidation must be a 304 with an empty body. *)
let check input req ~status ~body =
  let ok =
    match req.kind with
    | Revalidate _ -> status = 304 && body = ""
    | kind -> (
        status = 200
        &&
        match Json.parse body with
        | exception _ -> false
        | j -> (
            match kind with
            | Overview t -> check_overview (List.assoc t input.oracles) j
            | Info t -> check_info (List.assoc t input.oracles) j
            | Listing -> check_listing input j
            | Clade (t, species) -> check_clade (List.assoc t input.oracles) species j
            | Consensus_view -> check_consensus input j
            | Revalidate _ -> false))
  in
  if not ok then show_failure req.path (Printf.sprintf "HTTP %d %s" status body);
  ok

(* ----------------------------- Timed loop --------------------------- *)

type loop_result = {
  lat : Samples.t;
  ops : int;
  elapsed : float;
  attempted : int;
  failed : int;
  conditional : int;
  not_modified : int;
}

let closed_loop input server ~seed ~seconds =
  let hsock = Option.get server.Served.hsock in
  let conn =
    match Http_client.connect ~timeout:30.0 (Wire.Unix_path hsock) with
    | Ok c -> c
    | Error e -> failwith ("http connect: " ^ e)
  in
  let next = generator input (Prng.create ((seed * 1_000) + 7)) in
  let etags = Hashtbl.create 64 in
  (* Trees are immutable, so a resource's body never changes: each
     distinct body is checked in full once, repeats by digest. *)
  let verified = Hashtbl.create 64 in
  let check_once req ~status ~body =
    match req.kind with
    | Revalidate _ -> check input req ~status ~body
    | _ -> (
        let d = Digest.string body in
        match Hashtbl.find_opt verified req.path with
        | Some d' when status = 200 && d = d' -> true
        | _ ->
            let ok = check input req ~status ~body in
            if ok then Hashtbl.replace verified req.path d;
            ok)
  in
  let lat = Samples.create () in
  let attempted = ref 0 and failed = ref 0 and conditional = ref 0 and not_modified = ref 0 in
  let one ~timed =
    let req = next () in
    let headers =
      match req.kind with
      | Revalidate p -> (
          (* Without an ETag the request is unconditional, gets a 200
             and fails its check. *)
          match Hashtbl.find_opt etags p with Some e -> [ ("If-None-Match", e) ] | None -> [])
      | _ -> []
    in
    let t0 = now () in
    let resp =
      match Http_client.request conn ~headers req.path with
      | Ok r -> r
      | Error e -> failwith ("http request: " ^ e)
    in
    let ms = ms_since t0 in
    if timed then Samples.add lat ms;
    incr attempted;
    (match req.kind with
    | Revalidate _ ->
        incr conditional;
        if resp.Http_client.status = 304 then incr not_modified
    | _ -> Option.iter (Hashtbl.replace etags req.path) (Http_client.header resp "etag"));
    if not (check_once req ~status:resp.Http_client.status ~body:resp.Http_client.body) then incr failed
  in
  for _ = 1 to warmup do
    one ~timed:false
  done;
  let t0 = now () in
  let deadline = t0 +. seconds in
  while now () < deadline do
    one ~timed:true
  done;
  let elapsed = now () -. t0 in
  Http_client.close conn;
  {
    lat;
    ops = Samples.count lat;
    elapsed;
    attempted = !attempted;
    failed = !failed;
    conditional = !conditional;
    not_modified = !not_modified;
  }

(* ---------------------------- Traced passes ------------------------- *)

let raw_request req etag =
  Printf.sprintf "GET %s HTTP/1.1\r\nHost: crimson\r\n%s\r\n" req.path
    (match etag with Some e -> Printf.sprintf "If-None-Match: %s\r\n" e | None -> "")

(* Split a rendered response into status, headers and body. *)
let parse_response raw =
  let head_end =
    let rec find i = if String.sub raw i 4 = "\r\n\r\n" then i else find (i + 1) in
    find 0
  in
  let lines = String.split_on_char '\n' (String.sub raw 0 head_end) |> List.map String.trim in
  let status = Scanf.sscanf (List.hd lines) "HTTP/1.%d %d" (fun _ s -> s) in
  let headers =
    List.filter_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i ->
            Some
              ( String.lowercase_ascii (String.sub l 0 i),
                String.trim (String.sub l (i + 1) (String.length l - i - 1)) )
        | None -> None)
      (List.tl lines)
  in
  (status, headers, String.sub raw (head_end + 4) (String.length raw - head_end - 4))

type pass = {
  op : Samples.t;
  handle : Samples.t;
  decode : Samples.t;
  render : Samples.t;
  encode_total : float;
  bytes : int;
  bad : int;
  cond : int;
  not_mod : int;
  pool : int * int * int;
}

(* The gateway path in-process: HTTP decode, the worker core's
   handle_http (routing, dispatch, encoding and rendering inside it),
   then the renderer and the JSON encoder timed again on the same reply
   so their share can be read on its own. *)
let serve_pass ~dir input ~seed =
  let repo = Repo.open_dir dir in
  let core = Worker_core.create repo in
  let s = match Worker_core.open_session core with Ok s -> s | Error _ -> failwith "session refused" in
  Database.reset_pager_stats (Repo.database repo);
  let next = generator input (Prng.create ((seed * 1_000) + 7)) in
  let etags = Hashtbl.create 64 in
  let op = Samples.create () and handle = Samples.create () and decode = Samples.create () and render = Samples.create () in
  let encode_total = ref 0.0 and bytes = ref 0 and bad = ref 0 and cond = ref 0 and not_mod = ref 0 in
  for i = 1 to replay do
    let req = next () in
    let etag = match req.kind with Revalidate p -> Hashtbl.find_opt etags p | _ -> None in
    let status, body =
      Spans.op ~id:i "op.http" (fun () ->
          let t0 = now () in
          let decoded =
            Spans.span "gateway.decode" (fun () ->
                match Http.feed (Http.create_decoder ()) (raw_request req etag) with
                | Ok [ r ] -> r
                | _ -> failwith "request did not decode")
          in
          Samples.add decode (ms_since t0);
          let t1 = now () in
          let raw, _ = Spans.span "server.handle_http" (fun () -> Worker_core.handle_http core s decoded) in
          Samples.add handle (ms_since t1);
          bytes := !bytes + String.length raw;
          (* Splitting the response and decoding its body is the
             harness's own work, kept in a span of its own. *)
          let status, headers, body, json =
            Spans.span "harness.parse_reply" (fun () ->
                let status, headers, body = parse_response raw in
                (status, headers, body, if status = 200 then Some (Json.parse body) else None))
          in
          let t2 = now () in
          ignore
            (Spans.span "gateway.render" (fun () ->
                 Http.render ~status
                   ~extra:(List.filter (fun (k, _) -> k = "etag") headers)
                   ~keep_alive:true body));
          Samples.add render (ms_since t2);
          Option.iter
            (fun json ->
              let t3 = now () in
              ignore (Spans.span "obs.encode" (fun () -> Json.to_string json));
              encode_total := !encode_total +. ms_since t3;
              Option.iter (Hashtbl.replace etags req.path) (List.assoc_opt "etag" headers))
            json;
          Samples.add op (ms_since t0);
          (status, body))
    in
    (match req.kind with
    | Revalidate _ ->
        incr cond;
        if status = 304 then incr not_mod
    | _ -> ());
    if not (check input req ~status ~body) then incr bad
  done;
  let pool = pool_totals repo in
  Worker_core.close_session core s;
  let _, flush_ms = time_ms (fun () -> Repo.flush repo) in
  Repo.close repo;
  ( {
      op;
      handle;
      decode;
      render;
      encode_total = !encode_total;
      bytes = !bytes;
      bad = !bad;
      cond = !cond;
      not_mod = !not_mod;
      pool;
    },
    flush_ms )

(* The core and collection layers called directly on a fresh copy:
   the largest overview and the consensus, each a median of repeats. *)
let core_probe ~dir input =
  let repo = Repo.open_dir dir in
  let largest = Printf.sprintf "y%d" (List.fold_left max 0 sizes) in
  let stored = Stored_tree.open_name repo largest in
  let _, _, pages = Repo.measure repo (fun () -> Spans.span "core.overview" (fun () -> Summary.overview stored ~depth:1)) in
  let overview =
    List.init 30 (fun _ -> snd (time_ms (fun () -> Spans.span "core.overview" (fun () -> Summary.overview stored ~depth:1))))
  in
  let coll = Collection.open_name repo collection in
  let consensus =
    List.init 30 (fun _ ->
        let t, ms = time_ms (fun () -> Spans.span "collection.consensus" (fun () -> Collection.consensus coll)) in
        if not (Tree.equal_unordered ~weighted:false t input.consensus) then failwith "stored consensus differs";
        ms)
  in
  Repo.close repo;
  (median_of overview, pages, median_of consensus)

(* ------------------------------- Entry ------------------------------ *)

let run ~crimson ~work ~seed ~seconds ~trace =
  let input = make_input () in
  let nodes = List.fold_left (fun acc (_, t) -> acc + Tree.node_count t) 0 input.trees in
  note "http-browse: %d nodes in %d trees, %d replicates" nodes (List.length input.trees) replicates;
  let pristine = Filename.concat work "pristine" in
  let setup, build_counts =
    counter_delta Served.build_counters (fun () ->
        Served.setup_served ~crimson ~work ~reps:(if trace then 1 else 5) ~http:true
          ~extra:(ingest_collection input)
          ?pristine:(if trace then Some pristine else None)
          input.trees)
  in
  let loop = closed_loop input setup.server ~seed ~seconds in
  let stats = Served.scrape_stats setup.server in
  let rss = Served.stop setup.server in
  note "served: %d ops in %.2f s; %d/%d revalidations 304; server request_ms p50 %.4f p99 %.4f; gateway requests %d; summary hits %d"
    loop.ops loop.elapsed loop.not_modified loop.conditional
    (Served.stat_hist stats "server.request_ms" "p50")
    (Served.stat_hist stats "server.request_ms" "p99")
    (Served.stat_counter stats "gateway.requests")
    (Served.stat_counter stats "core.summary.hit");
  if not trace then
    (loop.attempted, loop.failed, Served.e2e_metrics setup ~ops:loop.ops ~elapsed:loop.elapsed ~lat:loop.lat ~rss)
  else begin
    let copy = Served.replica ~work ~pristine in
    let dir_w = copy "replay-warmup" and dir_a = copy "replay-untraced" in
    let dir_b = copy "replay-traced" and dir_c = copy "replay-core" in
    (* A first, discarded replay takes the process's own warm-up. *)
    let warm, _ = serve_pass ~dir:dir_w input ~seed in
    let untraced, _ = serve_pass ~dir:dir_a input ~seed in
    Spans.recording := true;
    let traced, flush_ms = serve_pass ~dir:dir_b input ~seed in
    let overview_ms, overview_pages, consensus_ms = core_probe ~dir:dir_c input in
    Spans.recording := false;
    let mean_us s = 1000.0 *. Samples.sum s /. float_of_int (Samples.count s) in
    Served.record_common_layers ~stats ~client_p50:(median (Samples.sorted loop.lat)) ~setup ~nodes
      ~build_counts ~untraced:untraced.op ~traced:traced.op;
    set_layer "server.handle_ms_p50" (median (Samples.sorted traced.handle));
    set_layer "gateway.decode_us" (mean_us traced.decode);
    set_layer "gateway.render_us" (mean_us traced.render);
    set_layer "gateway.etag_304_ratio" (ratio traced.not_mod traced.cond);
    set_layer "obs.encode_ms_per_op" (traced.encode_total /. float_of_int replay);
    set_layer "obs.reply_bytes_per_op" (float_of_int traced.bytes /. float_of_int replay);
    set_layer "core.overview_ms_l8000" overview_ms;
    set_layer "core.overview_pages_l8000" (float_of_int overview_pages);
    Label_probe.record (List.map snd input.trees);
    let hits, misses, reads = traced.pool in
    set_layer "storage.pool_hit_ratio" (ratio hits (hits + misses));
    set_layer "storage.pages_read_per_op" (float_of_int reads /. float_of_int replay);
    set_layer "storage.flush_ms" flush_ms;
    set_layer "collection.consensus_ms" consensus_ms;
    List.iter rm_rf [ dir_w; dir_a; dir_b; dir_c; pristine ];
    (loop.attempted + (3 * replay), loop.failed + warm.bad + untraced.bad + traced.bad, layer_metrics ())
  end
