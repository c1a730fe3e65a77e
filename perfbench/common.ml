(* Shared plumbing for the benchmark harness: clocks, latency samples
   with sample-size honest percentiles, files and processes, the
   in-memory span recorder, and the result line run.py forwards. *)

module Json = Crimson_obs.Json
module Metrics = Crimson_obs.Metrics

let now = Unix.gettimeofday
let ms_since t0 = 1000.0 *. (now () -. t0)

let time_ms f =
  let t0 = now () in
  let r = f () in
  (r, ms_since t0)

let note fmt = Printf.ksprintf (fun s -> print_endline s) fmt

(* ------------------------------ Samples ----------------------------- *)

module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 1024 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.data then begin
      let bigger = Array.make (2 * t.n) 0.0 in
      Array.blit t.data 0 bigger 0 t.n;
      t.data <- bigger
    end;
    t.data.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n
  let sum t = Array.fold_left ( +. ) 0.0 (Array.sub t.data 0 t.n)

  let sorted t =
    let a = Array.sub t.data 0 t.n in
    Array.sort Float.compare a;
    a
end

(* Nearest-rank percentile of a sorted array, with the number of samples
   that lie beyond it. A percentile is only reported when at least ten
   samples lie beyond it: a tail with fewer is not a measurement. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then None
  else
    let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))) in
    let beyond = n - rank in
    if beyond < 10 then None else Some (sorted.(rank - 1), beyond)

let median sorted =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0

let median_of l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  median a

(* A request mix dealt in shuffled blocks: every block holds each kind
   exactly as often as the mix says, so the share of expensive requests
   cannot drift with the seed (a binomial draw moved a run's throughput
   by several percent). *)
module Mix = struct
  type 'a t = { block : 'a array; rng : Crimson_util.Prng.t; mutable pending : 'a list }

  let create rng block = { block; rng; pending = [] }

  let rec next t =
    match t.pending with
    | x :: rest ->
        t.pending <- rest;
        x
    | [] ->
        let b = Array.copy t.block in
        Crimson_util.Prng.shuffle t.rng b;
        t.pending <- Array.to_list b;
        next t
end

(* ------------------------------ Results ----------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* The end-to-end latency metrics of one sample set: the median and the
   tail at [tail_p], the highest percentile the workload's sample size
   supports. Every percentile line printed names its sample count and
   how many samples lie beyond it; one with fewer than ten beyond is not
   reported, and a missing tail fails the run. *)
let op_latency ~tail_p samples =
  let sorted = Samples.sorted samples in
  let n = Array.length sorted in
  let show p =
    match percentile sorted p with
    | Some (v, beyond) ->
        note "  op p%-5g %12.4f ms  (n=%d, %d beyond)" p v n beyond;
        Some v
    | None ->
        note "  op p%-5g not reported (n=%d: fewer than 10 samples beyond)" p n;
        None
  in
  let p50 = show 50.0 in
  let shown = List.map (fun p -> (p, show p)) [ 90.0; 99.0 ] in
  let tail =
    match List.assoc_opt tail_p shown with Some v -> v | None -> show tail_p
  in
  match (p50, tail) with
  | Some p50, Some tail -> [ metric "op_p50_ms" "ms" p50; metric "op_tail_ms" "ms" tail ]
  | _ -> failwith (Printf.sprintf "too few samples (%d) for the p%g tail" n tail_p)

let print_result ~correct ~attempted ~failed metrics =
  note "---- %d attempted, %d failed, correct=%b" attempted failed correct;
  List.iter (fun m -> note "  %-32s %14.6g %s" m.name m.value m.unit_) metrics;
  let line =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Num (float_of_int attempted));
        ("failed", Json.Num (float_of_int failed));
        ( "metrics",
          Json.Obj
            (List.map
               (fun m ->
                 (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
               metrics) );
      ]
  in
  print_endline (Json.to_string line)

(* A failed operation: counted by the caller, the first few shown. *)
let failures_shown = ref 0

let show_failure what detail =
  incr failures_shown;
  if !failures_shown <= 5 then
    note "FAILED %s: %s" what
      (if String.length detail > 300 then String.sub detail 0 300 ^ "..." else detail)

(* ------------------------- Files and processes ---------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let fresh_dir path =
  rm_rf path;
  mkdir_p path

(* Bytes of every regular file under a directory. *)
let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc e -> acc + dir_bytes (Filename.concat path e))
        0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
                Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                    float_of_int kb /. 1024.0)
            | _ -> scan ()
            | exception End_of_file -> 0.0
          in
          scan ())

(* ------------------------------- Spans ------------------------------ *)

(* The traced run records one span per layer call it makes, kept in
   memory and written out when the run ends. Spans of one operation
   share its op id; [parent] is the enclosing span (0 for an op root).
   With recording off, [span] is a plain call. *)
module Spans = struct
  type t = {
    id : int;
    parent : int;
    op : int;
    name : string;
    t0 : float;
    t1 : float;
  }

  let recording = ref false
  let recorded : t list ref = ref []
  let next_id = ref 1
  let current = ref 0
  let current_op = ref 0

  let span name f =
    if not !recording then f ()
    else begin
      let id = !next_id in
      incr next_id;
      let parent = !current in
      current := id;
      let t0 = now () in
      let finish () =
        let t1 = now () in
        current := parent;
        recorded := { id; parent; op = !current_op; name; t0; t1 } :: !recorded
      in
      match f () with
      | r ->
          finish ();
          r
      | exception e ->
          finish ();
          raise e
    end

  (* One operation: a root span named [name] with a fresh op id. *)
  let op ~id name f =
    current_op := id;
    span name f

  let write path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        List.iter
          (fun s ->
            output_string oc
              (Json.to_string
                 (Json.Obj
                    [
                      ("id", Json.Num (float_of_int s.id));
                      ("parent", Json.Num (float_of_int s.parent));
                      ("op", Json.Num (float_of_int s.op));
                      ("name", Json.Str s.name);
                      ("start", Json.Num s.t0);
                      ("end", Json.Num s.t1);
                    ]));
            output_char oc '\n')
          (List.rev !recorded))
end

let mean l = match l with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* ----------------------------- Per-layer ---------------------------- *)

(* Every per-layer metric, in the order BENCHMARK.json lists them. A
   traced run prints all of them; a layer call the workload never makes
   reads 0 and is marked as not exercised in the report. *)
let per_layer =
  [
    ("server.handle_ms_p50", "ms");
    ("server.request_ms_p99", "ms");
    ("server.residual_ms_p50", "ms");
    ("gateway.decode_us", "us");
    ("gateway.render_us", "us");
    ("gateway.etag_304_ratio", "ratio");
    ("obs.encode_ms_per_op", "ms");
    ("obs.reply_bytes_per_op", "B/op");
    ("core.lca_ms", "ms");
    ("core.distance_ms", "ms");
    ("core.clade_ms", "ms");
    ("core.project_ms", "ms");
    ("core.sample_ms", "ms");
    ("core.lca_pages", "pages");
    ("core.distance_pages", "pages");
    ("core.clade_pages", "pages");
    ("core.project_pages", "pages");
    ("core.sample_pages", "pages");
    ("core.node_cache_hit_ratio", "ratio");
    ("core.history_record_ms", "ms");
    ("core.overview_ms_l8000", "ms");
    ("core.overview_pages_l8000", "pages");
    ("core.load_ms_per_knode", "ms/knode");
    ("label.build_ms_per_knode", "ms/knode");
    ("label.bytes_per_node", "B/node");
    ("storage.pool_hit_ratio", "ratio");
    ("storage.pages_read_per_op", "pages/op");
    ("storage.pages_written_per_node", "pages/node");
    ("storage.btree_node_writes_per_node", "count/node");
    ("storage.fsyncs_per_round", "count/round");
    ("storage.fsync_ms_p50", "ms");
    ("storage.wal_pages_per_round", "pages/round");
    ("storage.flush_ms", "ms");
    ("collection.consensus_ms", "ms");
    ("benchmark.data_ms", "ms");
    ("recon.infer_ms", "ms");
    ("trace.overhead_pct", "%");
  ]

let layer_values : (string, float) Hashtbl.t = Hashtbl.create 64

let set_layer name v =
  if not (List.mem_assoc name per_layer) then invalid_arg ("unknown per-layer metric " ^ name);
  Hashtbl.replace layer_values name v

let layer_metrics () =
  List.map
    (fun (name, unit_) ->
      match Hashtbl.find_opt layer_values name with
      | Some v -> metric name unit_ v
      | None ->
          note "  %-32s not exercised on this workload" name;
          metric name unit_ 0.0)
    per_layer

(* Buffer-pool hits, misses and backend reads summed over a
   repository's files (Database.pager_stats). *)
let pool_totals repo =
  List.fold_left
    (fun (h, m, r) (_, (st : Crimson_storage.Pager.stats)) -> (h + st.hits, m + st.misses, r + st.reads))
    (0, 0, 0)
    (Crimson_storage.Database.pager_stats (Crimson_core.Repo.database repo))

(* Registry counter deltas around a region of this process. *)
let counter_delta names f =
  let before = List.map Metrics.counter_value names in
  let r = f () in
  (r, List.map2 (fun n b -> Metrics.counter_value n - b) names before)

(* Tracing overhead: the median operation of the traced replay against
   the same replay untraced. *)
let record_overhead ~traced ~untraced =
  let t = median (Samples.sorted traced) and u = median (Samples.sorted untraced) in
  let overhead = 100.0 *. (t -. u) /. u in
  note "tracing overhead: op p50 %.4f ms traced vs %.4f ms untraced (%+.2f%%)" t u overhead;
  set_layer "trace.overhead_pct" overhead
