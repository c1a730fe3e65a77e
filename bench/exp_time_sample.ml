(* E3 — Sampling with respect to evolutionary time (paper §2.2).

   The worked example (4 species at distance 1 on Figure 1) generalised:
   on stored trees, find the frontier of minimal nodes deeper than t and
   draw k species evenly below it. The frontier search is a preorder
   skip-scan over the tree's node rows: a per-handle index of block
   maxima (root distance, first leaf ordinal) lets it jump over id runs
   that cannot hold a frontier node, so latency tracks the rows near the
   frontier, not the cap above it. The caterpillar is the shape whose
   cap is the whole spine. The index is built by one streamed scan at
   the handle's first time query; that cost is reported on its own. *)

open Bench_common
module Tree = Crimson_tree.Tree
module Repo = Crimson_core.Repo
module Loader = Crimson_core.Loader
module Stored_tree = Crimson_core.Stored_tree
module Sampling = Crimson_core.Sampling
module Prng = Crimson_util.Prng

(* The in-memory definition, over stored (preorder) ids: the first node
   on each root path deeper than [time]. *)
let oracle_frontier tree ~time =
  let n = Tree.node_count tree in
  let rank = Tree.preorder_rank tree and rd = Tree.root_distance tree in
  let covered = Array.make n false and acc = ref [] in
  Array.iter
    (fun v ->
      let p = Tree.parent tree v in
      if p <> Tree.nil then covered.(v) <- covered.(p) || rd.(p) > time;
      if (not covered.(v)) && rd.(v) > time then acc := rank.(v) :: !acc)
    (Tree.preorder tree);
  List.rev !acc

let run () =
  section "E3" "sampling w.r.t. evolutionary time on stored trees";
  let table =
    T.create
      ~columns:
        [
          ("tree", T.Left);
          ("time", T.Right);
          ("frontier", T.Right);
          ("frontier ms", T.Right);
          ("pages/frontier", T.Right);
          ("sample k=32 ms", T.Right);
        ]
  in
  let fields = ref [] and mismatches = ref 0 in
  let field name v = fields := (name, Json.Num v) :: !fields in
  let bench name key tree =
    let repo = Repo.open_mem ~pool_size:512 () in
    let stored = (Loader.load_tree ~f:8 repo ~name tree).tree in
    let height = Array.fold_left Float.max 0.0 (Tree.root_distance tree) in
    (* A first query beyond the height reads no rows: its time is the
       index build. *)
    let (), build_ms =
      time_once (fun () -> ignore (Sampling.frontier_at stored ~time:(height +. 1.0)))
    in
    field (key ^ "_index_build_ms") build_ms;
    note "%s: index build %.2f ms over %d nodes" name build_ms (Stored_tree.node_count stored);
    List.iter
      (fun fraction ->
        let time = fraction *. height in
        let tag = Printf.sprintf "%s_t%02.0f" key (100.0 *. fraction) in
        let p0 = Repo.pages_touched repo in
        let frontier = Sampling.frontier_at stored ~time in
        let pages = Repo.pages_touched repo - p0 in
        if frontier <> oracle_frontier tree ~time then begin
          incr mismatches;
          note "WARNING: %s frontier at %.0f%% differs from the in-memory definition" name
            (100.0 *. fraction)
        end;
        let f_ms = time_mean ~reps:5 (fun () -> ignore (Sampling.frontier_at stored ~time)) in
        let sample_ms =
          let rng = Prng.create 5 in
          time_mean ~reps:5 (fun () ->
              try ignore (Sampling.with_time stored ~rng ~k:32 ~time)
              with Sampling.Invalid_sample _ -> ())
        in
        field (tag ^ "_frontier_ms") f_ms;
        field (tag ^ "_sample_ms") sample_ms;
        field (tag ^ "_frontier_pages") (float_of_int pages);
        field (tag ^ "_frontier_nodes") (float_of_int (List.length frontier));
        T.add_row table
          [
            name;
            Printf.sprintf "%.0f%% of height" (100.0 *. fraction);
            string_of_int (List.length frontier);
            Printf.sprintf "%.3f" f_ms;
            string_of_int pages;
            Printf.sprintf "%.2f" sample_ms;
          ])
      [ 0.1; 0.5; 0.9 ];
    Repo.close repo
  in
  bench "yule 50k" "yule50k" (yule 50_000);
  bench "coalescent 50k" "coalescent50k" (coalescent 50_000);
  bench "caterpillar 20k" "caterpillar20k" (caterpillar 20_000);
  T.print table;
  field "frontier_mismatches" (float_of_int !mismatches);
  emit_bench ~experiment:"E3" ~fields:(List.rev !fields) ();
  note
    "Frontier ms is a warm query (index resident). Early times cut the\n\
     tree near the root; late times approach the leaves, where the\n\
     frontier itself is large and the scan streams it row by row. On\n\
     the caterpillar the frontier stays a handful of nodes at any time\n\
     and the scan touches only the blocks around the cut. Sampling adds\n\
     the per-frontier-subtree ordinal draws on top of the frontier search."
