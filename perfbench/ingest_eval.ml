(* ingest-eval: the Benchmark Manager loop in-library, no server, on a
   durable repository (write-ahead log plus fsync per commit — the
   configuration the crash tests guarantee).

   Each round loads a fresh 1,000-leaf Yule gold standard (normalized to
   height 1.2, with 500-site species sequences) through
   Loader.load_tree, runs Benchmark_manager.run with nj_jc (k = 20,
   3 replicates, history recorded), checkpoints, and deletes the oldest
   tree once [live] trees are loaded. This is the workload that writes
   pages, fsyncs and builds labels and summaries; its read side is
   small. Gold standards and their sequences are generated before the
   clock starts. *)

open Common
module Tree = Crimson_tree.Tree
module Ops = Crimson_tree.Ops
module Models = Crimson_sim.Models
module Seqevo = Crimson_sim.Seqevo
module Prng = Crimson_util.Prng
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Stored_tree = Crimson_core.Stored_tree
module Database = Crimson_storage.Database
module B = Crimson_benchmark.Benchmark_manager

let leaves = 1_000
let sites = 500
let golds = 6 (* distinct gold standards, loaded round-robin *)
let live = 3 (* trees kept loaded; the oldest goes once a round loads one more *)
let traced_rounds = 40
let setup_reps = 5

type gold = { tree : Tree.t; species : (string * string) list; nodes : int }

let make_golds seed =
  Array.init golds (fun g ->
      let rng = Prng.create ((seed * 16) + g) in
      let tree = Ops.normalize_height ~target:1.2 (Models.yule ~rng ~leaves ()) in
      let species = Seqevo.evolve ~rng ~model:Seqevo.JC69 ~length:sites tree in
      { tree; species; nodes = Tree.node_count tree })

(* The evaluation run of gold [g]: its seed depends only on [g], so every
   round over the same gold standard must produce identical outcomes. *)
let config g = { B.default_config with B.algorithms = [ B.nj_jc ]; sample_k = 20; replicates = 3; seed = 1_000 + g }

(* Everything of an outcome except its wall time. *)
let fingerprint outcomes =
  List.map (fun (o : B.outcome) -> (o.algorithm, o.replicate, o.taxa, o.rf, o.rf_normalized, o.triplet)) outcomes

type state = {
  repo : Repo.t;
  dir : string;
  loaded : (Stored_tree.t * int) Queue.t;  (** Live trees, oldest first, with node counts. *)
  mutable next : int;  (** Round counter; names the next tree. *)
  expected : (int, (string * int * int * int * float * float) list) Hashtbl.t;
  mutable failed : int;
  mutable attempted : int;
}

let load st g gold =
  let name = Printf.sprintf "r%d" st.next in
  st.next <- st.next + 1;
  let report, ms = time_ms (fun () -> Loader.load_tree ~f:8 ~species:gold.species st.repo ~name gold.tree) in
  let stored = report.Loader.tree in
  if
    report.Loader.node_rows <> gold.nodes
    || Stored_tree.node_count stored <> gold.nodes
    || Stored_tree.leaf_count stored <> leaves
    || report.Loader.species_rows < leaves
  then begin
    show_failure name
      (Printf.sprintf "gold %d: %d node rows, %d nodes, %d leaves, %d species rows" g report.Loader.node_rows
         (Stored_tree.node_count stored) (Stored_tree.leaf_count stored) report.Loader.species_rows);
    st.failed <- st.failed + 1
  end;
  Queue.push (stored, gold.nodes) st.loaded;
  (stored, ms)

let evaluate st g stored =
  let outcomes = B.run st.repo stored (config g) in
  let fp = fingerprint outcomes in
  (match Hashtbl.find_opt st.expected g with
  | None -> Hashtbl.add st.expected g fp
  | Some e when e = fp -> ()
  | Some _ ->
      show_failure (Stored_tree.name stored) (Printf.sprintf "gold %d: outcomes differ from an earlier round" g);
      st.failed <- st.failed + 1);
  if List.exists (fun (o : B.outcome) -> o.taxa <> 20 || o.rf_normalized < 0.0 || o.rf_normalized > 1.0) outcomes
  then begin
    show_failure (Stored_tree.name stored) "outcome out of range";
    st.failed <- st.failed + 1
  end;
  outcomes

let retire st =
  if Queue.length st.loaded > live then begin
    let stored, _ = Queue.pop st.loaded in
    Loader.delete_tree st.repo stored
  end

(* Fresh durable repository with the first [live] gold standards loaded:
   the state every run's first round starts from. *)
let set_up ~dir gold_set =
  fresh_dir dir;
  let st =
    {
      repo = Repo.open_dir ~durable:true dir;
      dir;
      loaded = Queue.create ();
      next = 0;
      expected = Hashtbl.create golds;
      failed = 0;
      attempted = 0;
    }
  in
  for g = 0 to live - 1 do
    ignore (load st g gold_set.(g))
  done;
  st

(* One set-up repetition in a child process, returning its seconds: the
   repetitions before the kept one must not leave their garbage in this
   process, whose peak RSS is a metric. *)
let set_up_in_child ~dir gold_set =
  flush stdout;
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let st, ms = time_ms (fun () -> set_up ~dir gold_set) in
      Repo.close st.repo;
      rm_rf dir;
      let oc = Unix.out_channel_of_descr w in
      Printf.fprintf oc "%.17g\n" (ms /. 1000.0);
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let line = In_channel.input_line ic in
      close_in ic;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith "set-up repetition failed");
      match Option.bind line float_of_string_opt with
      | Some s -> s
      | None -> failwith "set-up repetition reported no time"

let live_nodes st = Queue.fold (fun acc (_, n) -> acc + n) 0 st.loaded

type round = { total_ms : float; load_ms : float; bm_ms : float; infer_ms : float; flush_ms : float; nodes : int }

let round st gold_set =
  let g = st.next mod golds in
  st.attempted <- st.attempted + 1;
  let gold = gold_set.(g) in
  let t0 = now () in
  let stored, load_ms = Spans.span "core.load" (fun () -> load st g gold) in
  let outcomes, bm_ms = time_ms (fun () -> Spans.span "benchmark.run" (fun () -> evaluate st g stored)) in
  let (), flush_ms = time_ms (fun () -> Spans.span "storage.flush" (fun () -> Repo.flush st.repo)) in
  Spans.span "core.delete" (fun () -> retire st);
  let infer_ms = 1000.0 *. List.fold_left (fun acc (o : B.outcome) -> acc +. o.seconds) 0.0 outcomes in
  { total_ms = ms_since t0; load_ms; bm_ms; infer_ms; flush_ms; nodes = gold.nodes }

let run ~work ~seed ~seconds ~trace =
  let gold_set = make_golds seed in
  note "ingest-eval: %d gold standards of %d nodes, %d live" golds gold_set.(0).nodes live;
  if not trace then begin
    let child_setup_s =
      List.init (setup_reps - 1) (fun i ->
          set_up_in_child ~dir:(Filename.concat work (Printf.sprintf "repo%d" i)) gold_set)
    in
    let st, ms = time_ms (fun () -> set_up ~dir:(Filename.concat work "repo") gold_set) in
    let setups = child_setup_s @ [ ms /. 1000.0 ] in
    let disk_bytes_per_node = float_of_int (dir_bytes st.dir) /. float_of_int (live_nodes st) in
    note "setup: %s s" (String.concat ", " (List.map (Printf.sprintf "%.3f") setups));
    let lat = Samples.create () and load_rate = Samples.create () in
    let t0 = now () in
    let deadline = t0 +. seconds in
    while now () < deadline do
      let r = round st gold_set in
      Samples.add lat r.total_ms;
      Samples.add load_rate (float_of_int r.nodes /. (r.load_ms /. 1000.0))
    done;
    let elapsed = now () -. t0 in
    let rounds = Samples.count lat in
    note "timed: %d rounds in %.2f s; footprint after the run %d bytes for %d live nodes" rounds elapsed
      (dir_bytes st.dir) (live_nodes st);
    Repo.close st.repo;
    ( st.attempted,
      st.failed,
      [
        metric "setup_s" "s" (median_of setups);
        metric "ops_per_s" "op/s" (float_of_int rounds /. elapsed);
      ]
      @ op_latency ~tail_p:80.0 lat
      @ [
          metric "load_nodes_per_s" "nodes/s" (median (Samples.sorted load_rate));
          metric "disk_bytes_per_node" "B/node" disk_bytes_per_node;
          metric "peak_rss_mb" "MiB" (peak_rss_mb "self");
        ] )
  end
  else begin
    (* The same rounds untraced, then traced, each from a fresh set-up;
       storage counters come from the traced rounds alone. *)
    let replay name ~traced =
      let st = set_up ~dir:(Filename.concat work name) gold_set in
      Metrics.reset_all ();
      Database.reset_pager_stats (Repo.database st.repo);
      Spans.recording := traced;
      let rounds =
        List.init traced_rounds (fun i -> Spans.op ~id:i "op.round" (fun () -> round st gold_set))
      in
      Spans.recording := false;
      (st, rounds)
    in
    (* A first, discarded replay takes the process's own warm-up. *)
    let stw, _ = replay "replay-warmup" ~traced:false in
    Repo.close stw.repo;
    let st0, untraced = replay "replay-untraced" ~traced:false in
    Repo.close st0.repo;
    let st, rounds = replay "replay-traced" ~traced:true in
    let n = float_of_int traced_rounds in
    let nodes = List.fold_left (fun acc r -> acc + r.nodes) 0 rounds in
    let counter = Metrics.counter_value in
    let fsync_p50 =
      match Metrics.find "storage.wal.fsync_ms" with
      | Some (Metrics.Histogram h) -> Metrics.Histogram.percentile h 50.0
      | _ -> 0.0
    in
    let hits, misses, reads = pool_totals st.repo in
    let med f = median_of (List.map f rounds) in
    set_layer "core.load_ms_per_knode" (med (fun r -> r.load_ms /. (float_of_int r.nodes /. 1000.0)));
    Label_probe.record (Array.to_list (Array.map (fun g -> g.tree) gold_set));
    set_layer "storage.pool_hit_ratio" (ratio hits (hits + misses));
    set_layer "storage.pages_read_per_op" (float_of_int reads /. n);
    set_layer "storage.pages_written_per_node" (float_of_int (counter "storage.pager.write") /. float_of_int nodes);
    set_layer "storage.btree_node_writes_per_node"
      (float_of_int (counter "storage.btree.node_write") /. float_of_int nodes);
    set_layer "storage.fsyncs_per_round"
      (float_of_int (counter "storage.wal.fsync" + counter "storage.pager.fsync") /. n);
    set_layer "storage.fsync_ms_p50" fsync_p50;
    set_layer "storage.wal_pages_per_round" (float_of_int (counter "storage.wal.pages") /. n);
    set_layer "storage.flush_ms" (med (fun r -> r.flush_ms));
    set_layer "benchmark.data_ms" (med (fun r -> r.bm_ms -. r.infer_ms));
    set_layer "recon.infer_ms" (med (fun r -> r.infer_ms));
    let samples rs =
      let s = Samples.create () in
      List.iter (fun r -> Samples.add s r.total_ms) rs;
      s
    in
    record_overhead ~traced:(samples rounds) ~untraced:(samples untraced);
    Repo.close st.repo;
    (stw.attempted + st0.attempted + st.attempted, stw.failed + st0.failed + st.failed, layer_metrics ())
  end
