(* Tests for crimson_core: repositories, loader, disk-backed structure
   queries, sampling, projection, clade, pattern match, query history. *)

module Tree = Crimson_tree.Tree
module Ops = Crimson_tree.Ops
module Newick = Crimson_formats.Newick
module Nexus = Crimson_formats.Nexus
module Repo = Crimson_core.Repo
module Stored_tree = Crimson_core.Stored_tree
module Loader = Crimson_core.Loader
module Sampling = Crimson_core.Sampling
module Projection = Crimson_core.Projection
module Clade = Crimson_core.Clade
module Pattern = Crimson_core.Pattern
module Summary = Crimson_core.Summary
module Query_lang = Crimson_core.Query_lang
module Table = Crimson_storage.Table
module Record = Crimson_storage.Record
module Schema = Crimson_core.Schema
module Models = Crimson_sim.Models
module Deadline = Crimson_obs.Deadline
module Prng = Crimson_util.Prng

let check = Alcotest.check

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

let with_temp_dir f =
  let dir = Filename.temp_file "crimson" ".repo" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
          Unix.rmdir path
        end
        else Sys.remove path
      in
      rm dir)
    (fun () -> f dir)

let load_figure1 repo =
  let fx = Helpers.figure1 () in
  let report = Loader.load_tree ~f:2 repo ~name:"figure1" fx.tree in
  (fx, report.tree)

(* Figure 1 stored node ids are preorder ranks; the fixture is built in
   preorder so ids coincide. *)
let s_root = 0
and s_bha = 1
and s_u = 2
and s_x = 3
and s_lla = 4
and s_spy = 5
and s_syn = 6
and s_bsu = 7

(* ------------------------------ Loader ----------------------------- *)

let test_load_reports () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  check Alcotest.int "nodes" 8 (Stored_tree.node_count stored);
  check Alcotest.int "leaves" 5 (Stored_tree.leaf_count stored);
  check Alcotest.string "name" "figure1" (Stored_tree.name stored);
  check Alcotest.int "f" 2 (Stored_tree.f stored);
  check Alcotest.int "root" 0 (Stored_tree.root stored)

let test_load_duplicate_name () =
  let repo = Repo.open_mem () in
  let _ = load_figure1 repo in
  let fx = Helpers.figure1 () in
  match Loader.load_tree repo ~name:"figure1" fx.tree with
  | exception Loader.Load_error _ -> ()
  | _ -> Alcotest.fail "duplicate name accepted"

let test_fetch_roundtrip () =
  let repo = Repo.open_mem () in
  let fx, stored = load_figure1 repo in
  let back = Loader.fetch_tree stored in
  check Alcotest.bool "round trip" true (Tree.equal_ordered fx.tree back)

let test_fetch_roundtrip_random () =
  let repo = Repo.open_mem () in
  let rng = Prng.create 5 in
  for i = 0 to 4 do
    let t = Helpers.random_tree rng 60 in
    let report = Loader.load_tree ~f:3 repo ~name:(Printf.sprintf "r%d" i) t in
    let back = Loader.fetch_tree report.tree in
    (* Loader renumbers to preorder ids; ordered equality still holds
       because renumbering preserves child order. *)
    check Alcotest.bool "round trip" true (Tree.equal_ordered t back)
  done

let test_list_trees () =
  let repo = Repo.open_mem () in
  let _ = load_figure1 repo in
  let fx = Helpers.figure1 () in
  let _ = Loader.load_tree repo ~name:"second" fx.tree in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "listing" [ (0, "figure1"); (1, "second") ] (Stored_tree.list_all repo)

let test_open_by_name_and_id () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let by_name = Stored_tree.open_name repo "figure1" in
  check Alcotest.int "same id" (Stored_tree.id stored) (Stored_tree.id by_name);
  (match Stored_tree.open_name repo "nope" with
  | exception Stored_tree.Unknown_tree _ -> ()
  | _ -> Alcotest.fail "unknown name accepted");
  match Stored_tree.open_id repo 99 with
  | exception Stored_tree.Unknown_tree _ -> ()
  | _ -> Alcotest.fail "unknown id accepted"

let test_delete_tree () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  Loader.delete_tree repo stored;
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string)) "gone" []
    (Stored_tree.list_all repo)

(* ------------------------- Stored accessors ------------------------ *)

let test_stored_accessors () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  check Alcotest.int "parent of Lla" s_x (Stored_tree.parent stored s_lla);
  check Alcotest.int "parent of root" (-1) (Stored_tree.parent stored s_root);
  check (Alcotest.option Alcotest.string) "name" (Some "Syn")
    (Stored_tree.node_name stored s_syn);
  check (Alcotest.option Alcotest.string) "unnamed becomes None" (Some "u")
    (Stored_tree.node_name stored s_u);
  check (Alcotest.float 1e-9) "branch length" 2.5 (Stored_tree.branch_length stored s_syn);
  check (Alcotest.float 1e-9) "root distance x" 1.25
    (Stored_tree.root_distance stored s_x);
  check (Alcotest.list Alcotest.int) "children of root" [ s_bha; s_u; s_bsu ]
    (Stored_tree.children stored s_root);
  check (Alcotest.list Alcotest.int) "children of x" [ s_lla; s_spy ]
    (Stored_tree.children stored s_x);
  check Alcotest.bool "leaf" true (Stored_tree.is_leaf stored s_spy);
  check Alcotest.bool "internal" false (Stored_tree.is_leaf stored s_u);
  check Alcotest.int "edge index of Bsu" 3 (Stored_tree.edge_index stored s_bsu);
  check Alcotest.int "depth of Lla" 3 (Stored_tree.depth stored s_lla)

let test_stored_unknown_node () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  match Stored_tree.parent stored 42 with
  | exception Stored_tree.Unknown_node 42 -> ()
  | _ -> Alcotest.fail "expected Unknown_node"

let test_leaf_ordinals () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  (* Leaves in preorder: Bha, Lla, Spy, Syn, Bsu -> ordinals 0..4. *)
  check Alcotest.int "ord 0" s_bha (Stored_tree.leaf_by_ordinal stored 0);
  check Alcotest.int "ord 2" s_spy (Stored_tree.leaf_by_ordinal stored 2);
  check Alcotest.int "ord 4" s_bsu (Stored_tree.leaf_by_ordinal stored 4);
  check (Alcotest.pair Alcotest.int Alcotest.int) "interval of u" (1, 4)
    (Stored_tree.leaf_interval stored s_u);
  check (Alcotest.pair Alcotest.int Alcotest.int) "interval of root" (0, 5)
    (Stored_tree.leaf_interval stored s_root)

let test_node_by_name () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  check (Alcotest.option Alcotest.int) "Syn" (Some s_syn)
    (Stored_tree.node_by_name stored "Syn");
  check (Alcotest.option Alcotest.int) "missing" None
    (Stored_tree.node_by_name stored "Zzz");
  match Stored_tree.leaf_ids_by_names stored [ "Bha"; "Lla" ] with
  | Ok ids -> check (Alcotest.list Alcotest.int) "resolve" [ s_bha; s_lla ] ids
  | Error e -> Alcotest.failf "unexpected error %s" e

(* ----------------------- Structure queries ------------------------- *)

let test_stored_lca_paper () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  check Alcotest.int "LCA(Lla,Spy)=x" s_x (Stored_tree.lca stored s_lla s_spy);
  check Alcotest.int "LCA(Syn,Lla)=u" s_u (Stored_tree.lca stored s_syn s_lla);
  check Alcotest.int "LCA(Lla,Bsu)=root" s_root (Stored_tree.lca stored s_lla s_bsu);
  check Alcotest.int "LCA set" s_u
    (Stored_tree.lca_set stored [ s_lla; s_spy; s_syn ]);
  check Alcotest.bool "ancestor" true
    (Stored_tree.is_ancestor_or_self stored ~ancestor:s_u s_spy);
  check Alcotest.bool "not ancestor" false
    (Stored_tree.is_ancestor_or_self stored ~ancestor:s_bha s_spy)

let test_stored_queries_match_memory () =
  (* Cross-check disk-backed LCA / compare / depth against the in-memory
     implementations on random trees. *)
  let repo = Repo.open_mem () in
  let rng = Prng.create 11 in
  for i = 0 to 2 do
    let t0 = Helpers.random_tree rng 120 in
    let t, _ = Ops.copy_with_mapping t0 in
    let report = Loader.load_tree ~f:3 repo ~name:(Printf.sprintf "x%d" i) t in
    let stored = report.tree in
    let rank = Tree.preorder_rank t in
    (* Stored ids are preorder ranks of t's ids. *)
    let sid v = rank.(v) in
    let depths = Tree.depths t in
    for _ = 1 to 150 do
      let a = Prng.int rng (Tree.node_count t) in
      let b = Prng.int rng (Tree.node_count t) in
      let expected = sid (Ops.naive_lca t a b) in
      let got = Stored_tree.lca stored (sid a) (sid b) in
      if got <> expected then Alcotest.failf "lca mismatch %d %d" a b;
      let cmp_mem = compare rank.(a) rank.(b) in
      let cmp_disk = Stored_tree.compare_preorder stored (sid a) (sid b) in
      if Int.compare cmp_disk 0 <> Int.compare cmp_mem 0 then
        Alcotest.failf "compare mismatch %d %d" a b;
      if Stored_tree.depth stored (sid a) <> depths.(a) then
        Alcotest.failf "depth mismatch %d" a
    done
  done

(* ---------------------------- Node cache --------------------------- *)

module Node_view = Crimson_core.Node_view

(* Ground truth: decode straight off the nodes table, no cache. *)
let direct_view repo stored node =
  match
    Crimson_storage.Table.find (Repo.nodes repo) ~index:"by_node"
      ~key:(Crimson_core.Schema.Nodes.key_node ~tree:(Stored_tree.id stored) node)
  with
  | Some (_, row) -> Node_view.of_row row
  | None -> Alcotest.failf "node %d missing from the nodes table" node

let check_views_agree repo stored =
  for v = 0 to Stored_tree.node_count stored - 1 do
    if Stored_tree.view stored v <> direct_view repo stored v then
      Alcotest.failf "cached view differs from the table at node %d" v
  done

let test_node_cache_matches_table () =
  let repo = Repo.open_mem () in
  let rng = Prng.create 23 in
  let t = Helpers.random_tree rng 300 in
  let report = Loader.load_tree ~f:4 repo ~name:"cached" t in
  let stored = report.tree in
  (* Sequential sweep, then random access: both must agree with direct
     table reads under the default capacity (everything stays resident). *)
  check_views_agree repo stored;
  for _ = 1 to 500 do
    let v = Prng.int rng (Stored_tree.node_count stored) in
    if Stored_tree.view stored v <> direct_view repo stored v then
      Alcotest.failf "random access mismatch at node %d" v
  done;
  let cs = Stored_tree.cache_stats stored in
  check Alcotest.int "no evictions at default capacity" 0 cs.Node_view.evictions;
  check Alcotest.bool "hits dominate on re-reads" true
    (cs.Node_view.hits > cs.Node_view.misses)

let test_node_cache_tiny_capacity () =
  (* A capacity-4 cache evicts on nearly every access; correctness must
     not depend on residency. *)
  let repo = Repo.open_mem () in
  let rng = Prng.create 31 in
  let t = Helpers.random_tree rng 200 in
  let report = Loader.load_tree ~f:4 repo ~name:"thrash" t in
  let tiny =
    Stored_tree.open_id ~cache_capacity:4 ~prefetch:2 repo
      (Stored_tree.id report.tree)
  in
  check_views_agree repo tiny;
  for _ = 1 to 500 do
    let v = Prng.int rng (Stored_tree.node_count tiny) in
    if Stored_tree.view tiny v <> direct_view repo tiny v then
      Alcotest.failf "tiny-cache mismatch at node %d" v
  done;
  let cs = Stored_tree.cache_stats tiny in
  check Alcotest.bool "evictions occurred" true (cs.Node_view.evictions > 0);
  check Alcotest.bool "bounded residency" true (cs.Node_view.resident <= 4);
  (* Same answers as a default-capacity handle on structure queries. *)
  let big = Stored_tree.open_id repo (Stored_tree.id report.tree) in
  for _ = 1 to 100 do
    let a = Prng.int rng (Stored_tree.node_count tiny) in
    let b = Prng.int rng (Stored_tree.node_count tiny) in
    check Alcotest.int "lca agrees" (Stored_tree.lca big a b)
      (Stored_tree.lca tiny a b);
    check Alcotest.int "depth agrees" (Stored_tree.depth big a)
      (Stored_tree.depth tiny a)
  done;
  Stored_tree.invalidate_cache tiny;
  check Alcotest.int "invalidate empties the cache" 0
    (Stored_tree.cache_stats tiny).Node_view.resident

let test_node_cache_after_reopen () =
  (* Views served through the cache must match the table after a close
     and reopen from disk, including on a tree with layers > 1. *)
  with_temp_dir (fun dir ->
      let rng = Prng.create 41 in
      let depth = 60 in
      let t = Helpers.caterpillar depth in
      (let repo = Repo.open_dir dir in
       ignore (Loader.load_tree ~f:3 repo ~name:"layered" t);
       Repo.close repo);
      let repo = Repo.open_dir dir in
      let stored = Stored_tree.open_name repo "layered" in
      check Alcotest.bool "multi-layer fixture" true
        (Stored_tree.layer_count stored > 1);
      check_views_agree repo stored;
      (* Cross-check layered LCA and depth against the in-memory tree. *)
      let rank = Tree.preorder_rank t in
      for _ = 1 to 200 do
        let a = Prng.int rng (Tree.node_count t) in
        let b = Prng.int rng (Tree.node_count t) in
        check Alcotest.int "lca after reopen" rank.(Ops.naive_lca t a b)
          (Stored_tree.lca stored rank.(a) rank.(b));
        check Alcotest.int "depth after reopen" (Tree.depths t).(a)
          (Stored_tree.depth stored rank.(a))
      done;
      Repo.close repo)

let test_is_leaf_unary_chain () =
  (* A unary node above a single leaf shares the leaf's one-element
     ordinal interval; leafness must still come out false. *)
  let b = Tree.Builder.create () in
  let root = Tree.Builder.add_root ~name:"root" b in
  let mid = Tree.Builder.add_child ~branch_length:1.0 b ~parent:root in
  let unary = Tree.Builder.add_child ~branch_length:1.0 b ~parent:mid in
  let _leaf = Tree.Builder.add_child ~name:"only" ~branch_length:1.0 b ~parent:unary in
  let _other = Tree.Builder.add_child ~name:"sib" ~branch_length:2.0 b ~parent:root in
  let t = Tree.Builder.finish b in
  let repo = Repo.open_mem () in
  let report = Loader.load_tree ~f:2 repo ~name:"unary" t in
  let stored = report.tree in
  let rank = Tree.preorder_rank t in
  check Alcotest.bool "root is internal" false (Stored_tree.is_leaf stored rank.(root));
  check Alcotest.bool "unary node is internal" false
    (Stored_tree.is_leaf stored rank.(unary));
  check Alcotest.bool "chain top is internal" false
    (Stored_tree.is_leaf stored rank.(mid));
  check Alcotest.bool "leaf below the chain" true
    (Stored_tree.is_leaf stored rank.(_leaf));
  (* Last node in preorder exercises the node_count boundary branch. *)
  check Alcotest.bool "last node is a leaf" true
    (Stored_tree.is_leaf stored (Stored_tree.node_count stored - 1))

let test_next_query_id_cold_start () =
  (* Fresh repositories start at id 0; reopened ones continue after the
     largest recorded id without scanning history. *)
  with_temp_dir (fun dir ->
      (let repo = Repo.open_dir dir in
       check Alcotest.int "first id" 0 (Repo.record_query repo ~text:"a" ~result:"r");
       check Alcotest.int "second id" 1 (Repo.record_query repo ~text:"b" ~result:"r");
       check Alcotest.int "third id" 2 (Repo.record_query repo ~text:"c" ~result:"r");
       Repo.close repo);
      let repo = Repo.open_dir dir in
      check Alcotest.int "id continues across reopen" 3
        (Repo.record_query repo ~text:"d" ~result:"r");
      Repo.close repo)

(* ----------------------------- Sampling ---------------------------- *)

let test_frontier_paper_example () =
  (* §2.2: sampling at evolutionary distance 1 finds exactly
     {Bha, x, Syn, Bsu}. *)
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  check (Alcotest.list Alcotest.int) "frontier" [ s_bha; s_x; s_syn; s_bsu ]
    (Sampling.frontier_at stored ~time:1.0)

let test_with_time_paper_example () =
  (* The paper's result: {Bha, Lla, Syn, Bsu} or {Bha, Spy, Syn, Bsu}. *)
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let seen_lla = ref false and seen_spy = ref false in
  for seed = 0 to 30 do
    let rng = Prng.create seed in
    let sample = Sampling.with_time stored ~rng ~k:4 ~time:1.0 in
    let names =
      List.sort String.compare
        (List.map (fun n -> Option.get (Stored_tree.node_name stored n)) sample)
    in
    (match names with
    | [ "Bha"; "Bsu"; "Lla"; "Syn" ] -> seen_lla := true
    | [ "Bha"; "Bsu"; "Spy"; "Syn" ] -> seen_spy := true
    | _ -> Alcotest.failf "unexpected sample {%s}" (String.concat "," names))
  done;
  check Alcotest.bool "both variants occur" true (!seen_lla && !seen_spy)

let test_uniform_sampling () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let rng = Prng.create 3 in
  let sample = Sampling.uniform stored ~rng ~k:3 in
  check Alcotest.int "size" 3 (List.length sample);
  List.iter
    (fun n -> check Alcotest.bool "is leaf" true (Stored_tree.is_leaf stored n))
    sample;
  check Alcotest.int "distinct" 3 (List.length (List.sort_uniq compare sample))

let test_uniform_all () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let rng = Prng.create 3 in
  let sample = Sampling.uniform stored ~rng ~k:5 in
  check Alcotest.int "all leaves" 5 (List.length (List.sort_uniq compare sample))

let test_sampling_errors () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let rng = Prng.create 3 in
  (match Sampling.uniform stored ~rng ~k:0 with
  | exception Sampling.Invalid_sample _ -> ()
  | _ -> Alcotest.fail "k=0 accepted");
  (match Sampling.uniform stored ~rng ~k:6 with
  | exception Sampling.Invalid_sample _ -> ()
  | _ -> Alcotest.fail "k>leaves accepted");
  (match Sampling.with_time stored ~rng ~k:2 ~time:(-1.0) with
  | exception Sampling.Invalid_sample _ -> ()
  | _ -> Alcotest.fail "negative time accepted");
  (* Time beyond every species: frontier empty. *)
  match Sampling.with_time stored ~rng ~k:1 ~time:100.0 with
  | exception Sampling.Invalid_sample _ -> ()
  | _ -> Alcotest.fail "empty frontier accepted"

let test_with_time_quota_spill () =
  (* Frontier subtree smaller than its quota: excess spills. At time 1,
     frontier = {Bha(1), x(2), Syn(1), Bsu(1)}: capacity 5. k=5 must pick
     everything. *)
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let rng = Prng.create 17 in
  let sample = Sampling.with_time stored ~rng ~k:5 ~time:1.0 in
  check Alcotest.int "all five" 5 (List.length (List.sort_uniq compare sample))

let test_with_time_deep_tree () =
  let repo = Repo.open_mem () in
  let t = Helpers.caterpillar ~branch_length:0.5 200 in
  let report = Loader.load_tree ~f:4 repo ~name:"cat" t in
  let stored = report.tree in
  let rng = Prng.create 23 in
  let sample = Sampling.with_time stored ~rng ~k:10 ~time:30.0 in
  check Alcotest.int "k" 10 (List.length sample);
  (* All sampled species must lie strictly beyond time 30 or be leaves of
     frontier subtrees (here every leaf under a frontier node is deeper
     than the frontier node itself minus its own edge). *)
  List.iter
    (fun n -> check Alcotest.bool "leaf" true (Stored_tree.is_leaf stored n))
    sample

let test_sampling_non_finite () =
  (* The query lexer reads nan and inf as numbers; they must be refused
     before any node row is read. *)
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let rng = Prng.create 3 in
  List.iter
    (fun time ->
      (match Sampling.frontier_at stored ~time with
      | exception Sampling.Invalid_sample _ -> ()
      | _ -> Alcotest.failf "frontier at %g accepted" time);
      match Sampling.with_time stored ~rng ~k:2 ~time with
      | exception Sampling.Invalid_sample _ -> ()
      | _ -> Alcotest.failf "sample at %g accepted" time)
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  List.iter
    (fun q ->
      match Query_lang.run ~record:false repo stored q with
      | Error msg ->
          check Alcotest.bool (q ^ ": names finiteness") true
            (contains "finite" msg)
      | Ok _ -> Alcotest.failf "%s accepted" q)
    [ "sample(2, inf)"; "sample(2, -inf)"; "sample(2, nan)"; "frontier(inf)" ];
  check Alcotest.bool "no index built" false (Stored_tree.time_index_resident stored)

(* Pins the RNG consumption of [with_time]: the leaf ids two
   consecutive draws return for fixed seeds. *)
let test_with_time_golden () =
  let repo = Repo.open_mem () in
  let trees =
    [
      ("yule", Models.yule ~rng:(Prng.create 41) ~leaves:300 ());
      ("poly", Models.random_attachment ~rng:(Prng.create 43) ~leaves:200 ());
      ("cat", Models.caterpillar ~rng:(Prng.create 47) ~leaves:80 ());
    ]
  in
  let golden =
    [
      ( "yule", 1, 7, 0.3,
        [ 44; 117; 168; 337; 367; 533; 598 ],
        [ 27; 69; 224; 303; 436; 490; 598 ] );
      ( "yule", 2, 12, 0.7,
        [ 81; 166; 171; 213; 217; 232; 278; 287; 359; 418; 480; 569 ],
        [ 15; 82; 168; 199; 217; 276; 297; 315; 403; 425; 522; 595 ] );
      ( "yule", 3, 5, 0.5,
        [ 42; 106; 351; 381; 449 ],
        [ 283; 357; 368; 468; 506 ] );
      ( "yule", 4, 9, 0.1,
        [ 103; 90; 12; 167; 259; 468; 350; 580; 579 ],
        [ 88; 24; 165; 259; 455; 304; 513; 559; 568 ] );
      ( "poly", 1, 7, 0.3,
        [ 147; 159; 193; 257; 308; 348; 363 ],
        [ 187; 219; 324; 355; 368; 369; 392 ] );
      ( "poly", 2, 12, 0.7,
        [ 32; 49; 50; 55; 68; 84; 95; 98; 165; 168; 169; 176 ],
        [ 32; 47; 49; 50; 51; 55; 70; 84; 94; 165; 169; 176 ] );
      ( "poly", 3, 5, 0.5,
        [ 74; 191; 270; 318; 361 ],
        [ 107; 111; 230; 232; 273 ] );
      ( "poly", 4, 9, 0.1,
        [ 5; 3; 7; 14; 10; 18; 86; 400; 401 ],
        [ 7; 3; 10; 14; 12; 18; 193; 400; 401 ] );
      ( "cat", 1, 7, 0.3,
        [ 47; 89; 61; 95; 119; 135; 55 ],
        [ 47; 59; 119; 91; 83; 93; 123 ] );
      ( "cat", 2, 12, 0.7,
        [ 111; 125; 155; 153; 141; 119; 158; 121; 157; 135; 123; 147 ],
        [ 111; 149; 133; 157; 129; 137; 135; 158; 131; 147; 115; 121 ] );
      ( "cat", 3, 5, 0.5,
        [ 79; 125; 87; 139; 81 ],
        [ 79; 121; 103; 141; 107 ] );
      ( "cat", 4, 9, 0.1,
        [ 17; 63; 129; 79; 31; 149; 119; 113; 89 ],
        [ 17; 81; 39; 139; 25; 51; 158; 121; 113 ] );
    ]
  in
  let stored =
    List.map
      (fun (name, t) ->
        let height = Array.fold_left Float.max 0.0 (Tree.root_distance t) in
        (name, ((Loader.load_tree ~f:4 repo ~name t).tree, height)))
      trees
  in
  List.iter
    (fun (name, seed, k, fraction, first, second) ->
      let tree, height = List.assoc name stored in
      let rng = Prng.create seed in
      let time = fraction *. height in
      let label i = Printf.sprintf "%s seed %d draw %d" name seed i in
      check (Alcotest.list Alcotest.int) (label 1) first (Sampling.with_time tree ~rng ~k ~time);
      check (Alcotest.list Alcotest.int) (label 2) second (Sampling.with_time tree ~rng ~k ~time))
    golden

(* ------------------- Frontier: differential suite ------------------ *)

(* The definition the skip-scan must reproduce: the first node on each
   root path whose root distance exceeds [time], in preorder. Arrays are
   indexed by stored (preorder) id, so parents come first. *)
let oracle_frontier ~parent ~rd ~time =
  let n = Array.length rd in
  let covered = Array.make n false in
  let acc = ref [] in
  for v = 0 to n - 1 do
    let p = parent.(v) in
    if p >= 0 then covered.(v) <- covered.(p) || rd.(p) > time;
    if (not covered.(v)) && rd.(v) > time then acc := v :: !acc
  done;
  List.rev !acc

(* [t]'s parent and root-distance arrays indexed by stored id. *)
let stored_arrays t =
  let n = Tree.node_count t in
  let rank = Tree.preorder_rank t and rd0 = Tree.root_distance t in
  let parent = Array.make n (-1) and rd = Array.make n 0.0 in
  for v = 0 to n - 1 do
    if v <> Tree.root t then parent.(rank.(v)) <- rank.(Tree.parent t v);
    rd.(rank.(v)) <- rd0.(v)
  done;
  (parent, rd)

type shape = Caterpillar | Yule | Polytomy | Unary | Straddle
type edges = As_built | Zero_and_ties | Negative

let shape_name = function
  | Caterpillar -> "caterpillar"
  | Yule -> "yule"
  | Polytomy -> "polytomy"
  | Unary -> "unary chains"
  | Straddle -> "block straddle"

let edges_name = function
  | As_built -> "as built"
  | Zero_and_ties -> "zero-length and tied"
  | Negative -> "negative"

(* Wide polytomies: a root with dozens of children, some of them
   polytomies again. *)
let polytomy rng =
  let b = Tree.Builder.create () in
  let root = Tree.Builder.add_root b in
  for _ = 1 to 16 + Prng.int rng 100 do
    let c = Tree.Builder.add_child ~branch_length:(Prng.float rng 2.0) b ~parent:root in
    if Prng.int rng 3 = 0 then
      for _ = 1 to 2 + Prng.int rng 20 do
        ignore (Tree.Builder.add_child ~branch_length:(Prng.float rng 2.0) b ~parent:c)
      done
  done;
  Tree.Builder.finish b

(* Random attachment where half the new nodes hang below a chain of one
   to four unary nodes; chain nodes never take a second child. *)
let unary_chains rng =
  let b = Tree.Builder.create () in
  let attachable = Crimson_util.Vec.create () in
  Crimson_util.Vec.push attachable (Tree.Builder.add_root b);
  for _ = 1 to 20 + Prng.int rng 150 do
    let parent =
      Crimson_util.Vec.get attachable (Prng.int rng (Crimson_util.Vec.length attachable))
    in
    let parent =
      if Prng.bool rng then begin
        let p = ref parent in
        for _ = 1 to 1 + Prng.int rng 4 do
          p := Tree.Builder.add_child ~branch_length:(Prng.float rng 1.0) b ~parent:!p
        done;
        !p
      end
      else parent
    in
    Crimson_util.Vec.push attachable
      (Tree.Builder.add_child ~branch_length:(Prng.float rng 1.0) b ~parent)
  done;
  Tree.Builder.finish b

let make_shape rng = function
  | Caterpillar -> Models.caterpillar ~rng ~leaves:(40 + Prng.int rng 120) ()
  | Yule -> Models.yule ~rng ~leaves:(2 + Prng.int rng 200) ()
  | Polytomy -> polytomy rng
  | Unary -> unary_chains rng
  | Straddle ->
      let sizes = [| 1; 2; 15; 16; 17; 31; 32; 33; 255; 256; 257; 271; 272; 273 |] in
      Helpers.random_tree rng sizes.(Prng.int rng (Array.length sizes))

(* Load [t], then give it the edge lengths of [edges] by rewriting the
   stored root distances: the loader's trees only have positive edges.
   Returns the handle with the stored parent and root-distance arrays. *)
let load_with_edges repo rng ~f t edges =
  ignore (Loader.load_tree ~f repo ~name:"shape" t);
  let parent, rd = stored_arrays t in
  let draw () =
    match edges with
    | As_built -> assert false
    | Zero_and_ties -> float_of_int (Prng.int rng 3)
    | Negative ->
        if Prng.bool rng then float_of_int (Prng.int rng 5 - 2) else Prng.float rng 4.0 -. 2.0
  in
  if edges <> As_built then begin
    for v = 1 to Array.length rd - 1 do
      rd.(v) <- rd.(parent.(v)) +. draw ()
    done;
    let rows = ref [] in
    Table.scan (Repo.nodes repo) (fun rid row -> rows := (rid, row) :: !rows);
    List.iter
      (fun (rid, row) ->
        let row = Array.copy row in
        row.(Schema.Nodes.c_root_dist) <- Record.VFloat rd.(Record.get_int row Schema.Nodes.c_node);
        ignore (Table.update (Repo.nodes repo) rid row))
      !rows
  end;
  (Stored_tree.open_name repo "shape", parent, rd)

let shape_gen =
  QCheck.Gen.(
    triple (int_bound 1_000_000)
      (oneofl [ Caterpillar; Yule; Polytomy; Unary; Straddle ])
      (oneofl [ As_built; Zero_and_ties; Negative ]))

let prop_frontier_matches_oracle =
  QCheck.Test.make ~name:"skip-scan frontier = first node beyond t on each path"
    ~count:100
    (QCheck.make shape_gen ~print:(fun (seed, shape, edges) ->
         Printf.sprintf "seed %d, %s, %s edges" seed (shape_name shape) (edges_name edges)))
  @@ fun (seed, shape, edges) ->
  let rng = Prng.create seed in
  let repo = Repo.open_mem () in
  (* f = 2 takes the caterpillars to three or more label layers. *)
  let f = if shape = Caterpillar then 2 else 8 in
  let stored, parent, rd = load_with_edges repo rng ~f (make_shape rng shape) edges in
  if shape = Caterpillar && Stored_tree.layer_count stored < 3 then
    QCheck.Test.fail_reportf "caterpillar has only %d label layers"
      (Stored_tree.layer_count stored);
  let n = Array.length rd in
  let height = Array.fold_left Float.max 0.0 rd in
  let exact = List.init 8 (fun _ -> rd.(Prng.int rng n)) in
  let uniform = List.init 4 (fun _ -> Prng.float rng height) in
  List.iter
    (fun time ->
      let expected = oracle_frontier ~parent ~rd ~time in
      let got = Sampling.frontier_at stored ~time in
      if got <> expected then
        QCheck.Test.fail_reportf "t=%h (n=%d): got [%s], expected [%s]" time n
          (String.concat ";" (List.map string_of_int got))
          (String.concat ";" (List.map string_of_int expected)))
    (List.filter (fun t -> t >= 0.0) ((0.0 :: (height +. 1.0) :: exact) @ uniform));
  true

let test_frontier_three_levels () =
  (* Above 16^3 ids the index has three levels; the property's trees
     have at most two. *)
  let repo = Repo.open_mem () in
  let rng = Prng.create 13 in
  List.iter
    (fun (name, t) ->
      let stored = (Loader.load_tree repo ~name t).tree in
      let parent, rd = stored_arrays t in
      for _ = 1 to 40 do
        let time = rd.(Prng.int rng (Array.length rd)) in
        check (Alcotest.list Alcotest.int)
          (Printf.sprintf "%s at %g" name time)
          (oracle_frontier ~parent ~rd ~time)
          (Sampling.frontier_at stored ~time)
      done)
    [
      ("caterpillar", Models.caterpillar ~rng ~leaves:2500 ());
      ("yule", Models.yule ~rng ~leaves:2500 ());
    ]

let test_frontier_index_lifetime () =
  (* Built once per handle, dropped with the view cache, rebuilt on the
     next time query. *)
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  check Alcotest.bool "cold" false (Stored_tree.time_index_resident stored);
  let first = Sampling.frontier_at stored ~time:1.0 in
  check Alcotest.bool "built" true (Stored_tree.time_index_resident stored);
  Stored_tree.invalidate_cache stored;
  check Alcotest.bool "dropped" false (Stored_tree.time_index_resident stored);
  check (Alcotest.list Alcotest.int) "same frontier" first
    (Sampling.frontier_at stored ~time:1.0)

let test_frontier_build_deadline () =
  (* A deadline that expires during the index build aborts the query and
     publishes nothing; the next query builds again and answers. *)
  let repo = Repo.open_mem () in
  let t = Models.yule ~rng:(Prng.create 5) ~leaves:3000 () in
  let stored = (Loader.load_tree repo ~name:"y" t).tree in
  (match Deadline.with_timeout 1e-6 (fun () -> Sampling.frontier_at stored ~time:1.0) with
  | Error `Timeout -> ()
  | Ok _ -> Alcotest.fail "the build outran a 1 us deadline");
  check Alcotest.bool "nothing published" false (Stored_tree.time_index_resident stored);
  let parent, rd = stored_arrays t in
  check (Alcotest.list Alcotest.int) "retry answers"
    (oracle_frontier ~parent ~rd ~time:1.0)
    (Sampling.frontier_at stored ~time:1.0);
  check Alcotest.bool "published" true (Stored_tree.time_index_resident stored)

(* ---------------------------- Projection --------------------------- *)

let test_projection_figure2 () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let proj = Projection.project_names stored [ "Bha"; "Lla"; "Syn" ] in
  check Alcotest.int "nodes" 5 (Tree.node_count proj);
  let lla = Option.get (Tree.leaf_by_name proj "Lla") in
  check (Alcotest.float 1e-9) "merged weight 0.75+1" 1.75 (Tree.branch_length proj lla);
  (* Must agree with the in-memory reference implementation. *)
  let fx = Helpers.figure1 () in
  let reference = Ops.induced_subtree fx.tree [ fx.bha; fx.lla; fx.syn ] in
  check Alcotest.bool "matches reference" true (Tree.equal_unordered reference proj)

let test_projection_matches_reference_random () =
  let repo = Repo.open_mem () in
  let rng = Prng.create 29 in
  for i = 0 to 3 do
    let t0 = Helpers.random_tree rng 150 in
    let t, _ = Ops.copy_with_mapping t0 in
    let report = Loader.load_tree ~f:4 repo ~name:(Printf.sprintf "p%d" i) t in
    let stored = report.tree in
    let leaves = Tree.leaves t in
    let rank = Tree.preorder_rank t in
    for _ = 1 to 10 do
      let k = 1 + Prng.int rng (Array.length leaves) in
      let pick = Prng.sample_without_replacement rng ~k ~n:(Array.length leaves) in
      let subset = Array.to_list (Array.map (fun i -> leaves.(i)) pick) in
      let reference = Ops.induced_subtree t subset in
      let proj = Projection.project stored (List.map (fun v -> rank.(v)) subset) in
      if not (Tree.equal_unordered ~tolerance:1e-6 reference proj) then
        Alcotest.failf "projection mismatch (tree %d, k=%d)" i k
    done
  done

let test_projection_single_leaf () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let proj = Projection.project stored [ s_syn ] in
  check Alcotest.int "single node" 1 (Tree.node_count proj);
  check (Alcotest.option Alcotest.string) "named" (Some "Syn")
    (Tree.name proj (Tree.root proj))

let test_projection_errors () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  (match Projection.project stored [] with
  | exception Projection.Projection_error _ -> ()
  | _ -> Alcotest.fail "empty set");
  (match Projection.project stored [ s_u ] with
  | exception Projection.Projection_error _ -> ()
  | _ -> Alcotest.fail "internal node");
  (match Projection.project stored [ s_syn; s_syn ] with
  | exception Projection.Projection_error _ -> ()
  | _ -> Alcotest.fail "duplicates");
  match Projection.project_names stored [ "Bha"; "Nope" ] with
  | exception Projection.Projection_error _ -> ()
  | _ -> Alcotest.fail "unknown name"

(* ------------------------------ Clade ------------------------------ *)

let test_clade_paper () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  check Alcotest.int "root of clade" s_x (Clade.root_of stored [ s_lla; s_spy ]);
  check Alcotest.int "leaf count" 2 (Clade.size stored [ s_lla; s_spy ]);
  check (Alcotest.list Alcotest.int) "leaves" [ s_lla; s_spy ]
    (Clade.leaf_ids stored [ s_lla; s_spy ]);
  check (Alcotest.list Alcotest.int) "nodes" [ s_x; s_lla; s_spy ]
    (Clade.nodes stored [ s_lla; s_spy ]);
  check Alcotest.bool "member" true (Clade.member stored ~clade_of:[ s_lla; s_spy ] s_x);
  check Alcotest.bool "not member" false
    (Clade.member stored ~clade_of:[ s_lla; s_spy ] s_syn);
  (* Clade of Lla+Syn spans u's subtree: 3 leaves. *)
  check Alcotest.int "bigger clade" 3 (Clade.size stored [ s_lla; s_syn ])

let test_clade_limit () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  check Alcotest.int "limited" 2
    (List.length (Clade.leaf_ids ~limit:2 stored [ s_lla; s_syn ]))

(* -------------------------- Pattern match -------------------------- *)

let test_pattern_paper_match () =
  (* Figure 2's pattern matches Figure 1's tree... *)
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let pattern = Newick.parse "(Bha:1.25,(Lla:1.75,Syn:2.5):0.5);" in
  let r = Pattern.match_pattern stored pattern in
  check Alcotest.bool "matched" true r.matched;
  check Alcotest.bool "weighted too" true r.weighted_match;
  check Alcotest.int "rf 0" 0 r.rf_distance

let test_pattern_paper_mismatch () =
  (* … but swapping Bha and Lla breaks it (paper §2.2). *)
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let swapped = Newick.parse "(Lla:1.25,(Bha:1.75,Syn:2.5):0.5);" in
  let r = Pattern.match_pattern stored swapped in
  check Alcotest.bool "mismatch" false r.matched;
  check Alcotest.bool "rf positive" true (r.rf_distance > 0)

let test_pattern_weights_differ () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let wrong_weights = Newick.parse "(Bha:9,(Lla:9,Syn:9):9);" in
  let r = Pattern.match_pattern stored wrong_weights in
  check Alcotest.bool "topology matches" true r.matched;
  check Alcotest.bool "weights do not" false r.weighted_match

let test_pattern_errors () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  (match Pattern.match_pattern stored (Newick.parse "(Bha,Bha);") with
  | exception Pattern.Pattern_error _ -> ()
  | _ -> Alcotest.fail "duplicate leaves accepted");
  match Pattern.match_pattern stored (Newick.parse "(Bha,Nope);") with
  | exception Pattern.Pattern_error _ -> ()
  | _ -> Alcotest.fail "unknown leaf accepted"

(* --------------------------- Species data -------------------------- *)

let test_species_roundtrip () =
  let repo = Repo.open_mem () in
  let fx = Helpers.figure1 () in
  let seqs = [ ("Bha", "ACGT"); ("Lla", String.make 5000 'A') ] in
  let report = Loader.load_tree repo ~name:"fig" ~species:seqs fx.tree in
  check Alcotest.bool "chunked rows" true (report.species_rows >= 4);
  check (Alcotest.option Alcotest.string) "short" (Some "ACGT")
    (Loader.species_sequence repo report.tree "Bha");
  check (Alcotest.option Alcotest.string) "long survives chunking"
    (Some (String.make 5000 'A'))
    (Loader.species_sequence repo report.tree "Lla");
  check (Alcotest.option Alcotest.string) "absent" None
    (Loader.species_sequence repo report.tree "Syn");
  check (Alcotest.list Alcotest.string) "names" [ "Bha"; "Lla" ]
    (Loader.species_names repo report.tree)

let test_append_species () =
  let repo = Repo.open_mem () in
  let _, stored = load_figure1 repo in
  let n = Loader.append_species repo stored [ ("Syn", "GGCC") ] in
  check Alcotest.int "rows" 1 n;
  check (Alcotest.option Alcotest.string) "appended" (Some "GGCC")
    (Loader.species_sequence repo stored "Syn");
  (match Loader.append_species repo stored [ ("Syn", "AAAA") ] with
  | exception Loader.Load_error _ -> ()
  | _ -> Alcotest.fail "duplicate species accepted");
  (match Loader.append_species repo stored [ ("u", "AAAA") ] with
  | exception Loader.Load_error _ -> ()
  | _ -> Alcotest.fail "internal node accepted");
  match Loader.append_species repo stored [ ("Martian", "AAAA") ] with
  | exception Loader.Load_error _ -> ()
  | _ -> Alcotest.fail "unknown species accepted"

let test_load_nexus () =
  let repo = Repo.open_mem () in
  let doc =
    Nexus.parse
      {|#NEXUS
BEGIN DATA;
  MATRIX
    A ACGT
    B TTAA
  ;
END;
BEGIN TREES;
  TREE gold = ((A:1,B:1):1,C:2);
END;
|}
  in
  match Loader.load_nexus repo doc with
  | [ report ] ->
      check Alcotest.int "leaves" 3 (Stored_tree.leaf_count report.tree);
      check (Alcotest.option Alcotest.string) "species attached" (Some "ACGT")
        (Loader.species_sequence repo report.tree "A")
  | _ -> Alcotest.fail "expected one report"

(* -------------------------- Query history -------------------------- *)

let test_query_history () =
  let repo = Repo.open_mem () in
  let id1 =
    Repo.record_query repo ~elapsed_ms:1.25 ~pages:7 ~text:"sample k=4 t=1"
      ~result:"Bha,Lla,Syn,Bsu"
  in
  let id2 = Repo.record_query repo ~text:"project {Bha,Lla,Syn}" ~result:"ok" in
  check Alcotest.bool "ids increase" true (id2 > id1);
  (match Repo.history repo with
  | [ q1; q2 ] ->
      check Alcotest.int "first id" id1 q1.Repo.id;
      check Alcotest.string "first text" "sample k=4 t=1" q1.Repo.text;
      check (Alcotest.float 1e-9) "first elapsed" 1.25 q1.Repo.elapsed_ms;
      check Alcotest.int "first pages" 7 q1.Repo.pages;
      check Alcotest.int "second id" id2 q2.Repo.id;
      check Alcotest.string "second text" "project {Bha,Lla,Syn}" q2.Repo.text;
      check (Alcotest.float 1e-9) "unmeasured elapsed defaults to 0" 0.0 q2.Repo.elapsed_ms;
      check Alcotest.int "unmeasured pages default to 0" 0 q2.Repo.pages
  | _ -> Alcotest.fail "expected two entries");
  match Repo.history_entry repo id1 with
  | Some q ->
      check Alcotest.string "text" "sample k=4 t=1" q.Repo.text;
      check Alcotest.string "result" "Bha,Lla,Syn,Bsu" q.Repo.result;
      check (Alcotest.float 1e-9) "entry elapsed" 1.25 q.Repo.elapsed_ms;
      check Alcotest.int "entry pages" 7 q.Repo.pages
  | None -> Alcotest.fail "entry missing"

(* A repository written before the telemetry columns existed must open
   cleanly, its old rows reading as zero-cost, and keep accepting new
   measured rows. *)
let test_query_history_legacy_migration () =
  with_temp_dir (fun dir ->
      (let db = Crimson_storage.Database.open_dir dir in
       let legacy =
         Crimson_storage.Database.table db ~name:"queries"
           ~schema:Crimson_core.Schema.Queries.legacy_schema
           ~indexes:Crimson_core.Schema.Queries.indexes
       in
       ignore
         (Crimson_storage.Table.insert legacy
            [|
              Crimson_storage.Record.VInt 0;
              Crimson_storage.Record.VFloat 123.5;
              Crimson_storage.Record.VText "lca Bha,Lla";
              Crimson_storage.Record.VText "x";
            |]);
       Crimson_storage.Database.close db);
      let repo = Repo.open_dir dir in
      (match Repo.history repo with
      | [ ({ id = 0; _ } as q) ] ->
          check (Alcotest.float 1e-9) "timestamp preserved" 123.5 q.Repo.time;
          check Alcotest.string "text preserved" "lca Bha,Lla" q.Repo.text;
          check Alcotest.string "result preserved" "x" q.Repo.result;
          check (Alcotest.float 1e-9) "old rows read zero elapsed" 0.0 q.Repo.elapsed_ms;
          check Alcotest.int "old rows read zero pages" 0 q.Repo.pages
      | _ -> Alcotest.fail "expected the migrated legacy row");
      let id = Repo.record_query repo ~elapsed_ms:2.0 ~pages:3 ~text:"new" ~result:"y" in
      check Alcotest.int "ids continue after migration" 1 id;
      Repo.close repo;
      (* Reopen: the migrated table now carries the new schema. *)
      let repo = Repo.open_dir dir in
      (match Repo.history_entry repo id with
      | Some q ->
          check Alcotest.string "new row text" "new" q.Repo.text;
          check (Alcotest.float 1e-9) "new row elapsed" 2.0 q.Repo.elapsed_ms;
          check Alcotest.int "new row pages" 3 q.Repo.pages
      | None -> Alcotest.fail "new row missing after reopen");
      Repo.close repo)

(* The first telemetry generation (elapsed_ms/pages but no cost column)
   must also migrate: old rows read with an empty cost, new rows carry
   the profiler's cost JSON across a reopen. *)
let test_query_history_v1_migration () =
  with_temp_dir (fun dir ->
      (let db = Crimson_storage.Database.open_dir dir in
       let v1 =
         Crimson_storage.Database.table db ~name:"queries"
           ~schema:Crimson_core.Schema.Queries.legacy_schema_v1
           ~indexes:Crimson_core.Schema.Queries.indexes
       in
       ignore
         (Crimson_storage.Table.insert v1
            [|
              Crimson_storage.Record.VInt 0;
              Crimson_storage.Record.VFloat 50.25;
              Crimson_storage.Record.VText "lca a,b";
              Crimson_storage.Record.VText "x";
              Crimson_storage.Record.VFloat 1.5;
              Crimson_storage.Record.VInt 4;
            |]);
       Crimson_storage.Database.close db);
      let repo = Repo.open_dir dir in
      (match Repo.history repo with
      | [ q ] ->
          check Alcotest.string "text preserved" "lca a,b" q.Repo.text;
          check (Alcotest.float 1e-9) "elapsed preserved" 1.5 q.Repo.elapsed_ms;
          check Alcotest.int "pages preserved" 4 q.Repo.pages;
          check Alcotest.string "old rows read empty cost" "" q.Repo.cost
      | _ -> Alcotest.fail "expected the migrated v1 row");
      let cost = {|{"pages_read":2,"cursor_steps":9}|} in
      let id =
        Repo.record_query repo ~elapsed_ms:2.0 ~pages:3 ~cost ~text:"new" ~result:"y"
      in
      check Alcotest.int "ids continue after migration" 1 id;
      Repo.close repo;
      let repo = Repo.open_dir dir in
      (match Repo.history_entry repo id with
      | Some q -> check Alcotest.string "cost survives reopen" cost q.Repo.cost
      | None -> Alcotest.fail "new row missing after reopen");
      Repo.close repo)

(* --------------------------- Persistence --------------------------- *)

let test_persistence_across_reopen () =
  with_temp_dir (fun dir ->
      let fx = Helpers.figure1 () in
      (let repo = Repo.open_dir dir in
       let _ =
         Loader.load_tree ~f:2 repo ~name:"figure1" ~species:[ ("Bha", "ACGT") ]
           fx.tree
       in
       ignore (Repo.record_query repo ~text:"q" ~result:"r");
       Repo.close repo);
      let repo = Repo.open_dir dir in
      let stored = Stored_tree.open_name repo "figure1" in
      check Alcotest.int "nodes" 8 (Stored_tree.node_count stored);
      check Alcotest.int "LCA survives reopen" s_x (Stored_tree.lca stored s_lla s_spy);
      let proj = Projection.project_names stored [ "Bha"; "Lla"; "Syn" ] in
      check Alcotest.int "projection works" 5 (Tree.node_count proj);
      check (Alcotest.option Alcotest.string) "species survive" (Some "ACGT")
        (Loader.species_sequence repo stored "Bha");
      check Alcotest.int "history survives" 1 (List.length (Repo.history repo));
      Repo.close repo)

let test_small_pool_queries () =
  (* Queries must work when the buffer pool is tiny (the paper's core
     storage claim): pool of 8 pages, tree of several thousand nodes. *)
  let repo = Repo.open_mem ~pool_size:8 () in
  let rng = Prng.create 77 in
  let t0 = Helpers.random_tree rng 3000 in
  let t, _ = Ops.copy_with_mapping t0 in
  let report = Loader.load_tree ~f:8 repo ~name:"big" t in
  let stored = report.tree in
  let rank = Tree.preorder_rank t in
  for _ = 1 to 30 do
    let a = Prng.int rng (Tree.node_count t) in
    let b = Prng.int rng (Tree.node_count t) in
    let expected = rank.(Ops.naive_lca t a b) in
    check Alcotest.int "lca under tiny pool" expected
      (Stored_tree.lca stored rank.(a) rank.(b))
  done

(* ------------------------------ Summary ----------------------------- *)

(* Brute-force rollup of the full clade under [v]: (nodes, leaves,
   height, total branch length of the edges inside the clade). *)
let brute_rollup t v =
  let rec go v =
    if Tree.is_leaf t v then (1, 1, 0, 0.0)
    else
      List.fold_left
        (fun (n, l, h, b) c ->
          let cn, cl, ch, cb = go c in
          (n + cn, l + cl, max h (ch + 1), b +. cb +. Tree.branch_length t c))
        (1, 0, 0, 0.0) (Tree.children t v)
  in
  go v

let test_summary_matches_brute () =
  let repo = Repo.open_mem () in
  let rng = Prng.create 11 in
  let t0 = Helpers.random_tree rng 400 in
  let t, _ = Ops.copy_with_mapping t0 in
  let stored = (Loader.load_tree ~f:3 repo ~name:"s" t).Loader.tree in
  let pre = Tree.preorder t in
  let layers = Stored_tree.layer_count stored in
  for depth = 0 to layers + 1 do
    let layer, entries = Summary.overview stored ~depth in
    check Alcotest.int
      (Printf.sprintf "layer for depth %d" depth)
      (Summary.layer_for ~layer_count:layers ~depth)
      layer;
    check Alcotest.bool
      (Printf.sprintf "depth %d has clusters" depth)
      true
      (entries <> []);
    List.iter
      (fun (e : Summary.entry) ->
        let v = pre.(e.Summary.root) in
        let n, l, h, b = brute_rollup t v in
        check Alcotest.int "nodes" n e.Summary.nodes;
        check Alcotest.int "leaves" l e.Summary.leaves;
        check Alcotest.int "height" h e.Summary.height;
        check (Alcotest.float 1e-6) "blen" b e.Summary.blen;
        check (Alcotest.option Alcotest.string) "name"
          (Tree.name t v)
          (if e.Summary.name = "" then None else Some e.Summary.name))
      entries
  done;
  (* The coarsest overview is the single top cluster covering the whole
     tree. *)
  let _, top = Summary.overview stored ~depth:0 in
  match top with
  | [ e ] ->
      check Alcotest.int "top covers all nodes" (Tree.node_count t)
        e.Summary.nodes;
      check Alcotest.int "top covers all leaves" (Tree.leaf_count t)
        e.Summary.leaves
  | _ -> Alcotest.failf "expected one top cluster, got %d" (List.length top)

let test_summary_fallback_scan () =
  (* A tree whose summary rows are gone (loaded before the table
     existed) still answers overview — recomputed from the node table —
     with identical clusters, and the miss metric counts it. *)
  let repo = Repo.open_mem () in
  let rng = Prng.create 23 in
  let t0 = Helpers.random_tree rng 120 in
  let t, _ = Ops.copy_with_mapping t0 in
  let stored = (Loader.load_tree ~f:3 repo ~name:"old" t).Loader.tree in
  let served = Summary.overview stored ~depth:1 in
  let table = Repo.summaries repo in
  let doomed = ref [] in
  Table.scan table (fun rid _ -> doomed := rid :: !doomed);
  check Alcotest.bool "summary rows existed" true (!doomed <> []);
  List.iter (fun rid -> ignore (Table.delete table rid)) !doomed;
  let misses_before =
    Crimson_obs.Metrics.counter_value "core.summary.miss"
  in
  let recomputed = Summary.overview stored ~depth:1 in
  check Alcotest.int "same layer" (fst served) (fst recomputed);
  check Alcotest.int "same cluster count"
    (List.length (snd served))
    (List.length (snd recomputed));
  List.iter2
    (fun (a : Summary.entry) (b : Summary.entry) ->
      check Alcotest.int "sub" a.Summary.sub b.Summary.sub;
      check Alcotest.int "root" a.Summary.root b.Summary.root;
      check Alcotest.int "parent_sub" a.Summary.parent_sub b.Summary.parent_sub;
      check Alcotest.string "name" a.Summary.name b.Summary.name;
      check Alcotest.int "nodes" a.Summary.nodes b.Summary.nodes;
      check Alcotest.int "leaves" a.Summary.leaves b.Summary.leaves;
      check Alcotest.int "height" a.Summary.height b.Summary.height;
      (* The scan sums branch lengths in a different order; allow for
         float re-association. *)
      check (Alcotest.float 1e-6) "blen" a.Summary.blen b.Summary.blen)
    (snd served) (snd recomputed);
  check Alcotest.int "miss counted" (misses_before + 1)
    (Crimson_obs.Metrics.counter_value "core.summary.miss")

let test_overview_pages_sublinear () =
  (* The acceptance claim: an overview touches only the top of the
     summary table, not o(tree size) pages. PROFILE a small and a large
     tree; page touches must stay flat while the tree grows 16x, and the
     precomputed path must beat the fallback scan on the same tree. *)
  let pages_of (report : Crimson_obs.Profile.report) =
    report.Crimson_obs.Profile.total.Crimson_obs.Profile.cost
      .Crimson_obs.Profile.pager_hits
    + report.Crimson_obs.Profile.total.Crimson_obs.Profile.cost
        .Crimson_obs.Profile.pager_misses
  in
  let overview_pages repo stored =
    match Query_lang.profile ~record:false repo stored "overview(1)" with
    | Ok (_, report) -> pages_of report
    | Error e -> Alcotest.failf "overview profile failed: %s" e
  in
  let load n name =
    let repo = Repo.open_mem () in
    let rng = Prng.create (1000 + n) in
    let t0 = Helpers.random_tree rng n in
    let t, _ = Ops.copy_with_mapping t0 in
    (repo, (Loader.load_tree ~f:4 repo ~name t).Loader.tree)
  in
  let small_repo, small = load 250 "small" in
  let big_repo, big = load 4000 "big" in
  let p_small = overview_pages small_repo small in
  let p_big = overview_pages big_repo big in
  check Alcotest.bool
    (Printf.sprintf "pages flat under 16x growth (small %d, big %d)"
       p_small p_big)
    true
    (p_big <= (4 * p_small) + 8);
  (* Same tree, summary rows dropped: the node-scan fallback must cost
     strictly more page touches than the precomputed path. *)
  let table = Repo.summaries big_repo in
  let doomed = ref [] in
  Table.scan table (fun rid _ -> doomed := rid :: !doomed);
  List.iter (fun rid -> ignore (Table.delete table rid)) !doomed;
  let p_fallback = overview_pages big_repo big in
  check Alcotest.bool
    (Printf.sprintf "precomputed (%d pages) beats fallback (%d pages)"
       p_big p_fallback)
    true
    (p_big < p_fallback)

let () =
  Alcotest.run "crimson_core"
    [
      ( "loader",
        [
          Alcotest.test_case "load figure 1" `Quick test_load_reports;
          Alcotest.test_case "duplicate name" `Quick test_load_duplicate_name;
          Alcotest.test_case "fetch round trip" `Quick test_fetch_roundtrip;
          Alcotest.test_case "fetch round trip (random)" `Quick
            test_fetch_roundtrip_random;
          Alcotest.test_case "list trees" `Quick test_list_trees;
          Alcotest.test_case "open by name/id" `Quick test_open_by_name_and_id;
          Alcotest.test_case "delete tree" `Quick test_delete_tree;
        ] );
      ( "stored_tree",
        [
          Alcotest.test_case "accessors" `Quick test_stored_accessors;
          Alcotest.test_case "unknown node" `Quick test_stored_unknown_node;
          Alcotest.test_case "leaf ordinals" `Quick test_leaf_ordinals;
          Alcotest.test_case "node by name" `Quick test_node_by_name;
          Alcotest.test_case "LCA (paper walkthrough)" `Quick test_stored_lca_paper;
          Alcotest.test_case "disk queries = memory queries" `Slow
            test_stored_queries_match_memory;
        ] );
      ( "node_cache",
        [
          Alcotest.test_case "matches direct table reads" `Quick
            test_node_cache_matches_table;
          Alcotest.test_case "tiny capacity still correct" `Quick
            test_node_cache_tiny_capacity;
          Alcotest.test_case "reopen and layers" `Quick test_node_cache_after_reopen;
          Alcotest.test_case "is_leaf on a unary chain" `Quick
            test_is_leaf_unary_chain;
          Alcotest.test_case "query id cold start" `Quick
            test_next_query_id_cold_start;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "frontier (paper example)" `Quick
            test_frontier_paper_example;
          Alcotest.test_case "time sampling (paper example)" `Quick
            test_with_time_paper_example;
          Alcotest.test_case "uniform" `Quick test_uniform_sampling;
          Alcotest.test_case "uniform k=all" `Quick test_uniform_all;
          Alcotest.test_case "invalid inputs" `Quick test_sampling_errors;
          Alcotest.test_case "quota spill" `Quick test_with_time_quota_spill;
          Alcotest.test_case "deep tree" `Quick test_with_time_deep_tree;
          Alcotest.test_case "non-finite times" `Quick test_sampling_non_finite;
          Alcotest.test_case "with_time golden draws" `Quick test_with_time_golden;
          Alcotest.test_case "three-level index" `Quick test_frontier_three_levels;
          Alcotest.test_case "index lifetime" `Quick test_frontier_index_lifetime;
          Alcotest.test_case "deadline during index build" `Quick
            test_frontier_build_deadline;
          QCheck_alcotest.to_alcotest prop_frontier_matches_oracle;
        ] );
      ( "projection",
        [
          Alcotest.test_case "figure 2" `Quick test_projection_figure2;
          Alcotest.test_case "matches reference (random)" `Slow
            test_projection_matches_reference_random;
          Alcotest.test_case "single leaf" `Quick test_projection_single_leaf;
          Alcotest.test_case "errors" `Quick test_projection_errors;
        ] );
      ( "clade",
        [
          Alcotest.test_case "paper semantics" `Quick test_clade_paper;
          Alcotest.test_case "limit" `Quick test_clade_limit;
        ] );
      ( "pattern",
        [
          Alcotest.test_case "figure 2 matches (paper)" `Quick test_pattern_paper_match;
          Alcotest.test_case "swapped leaves mismatch (paper)" `Quick
            test_pattern_paper_mismatch;
          Alcotest.test_case "weights differ" `Quick test_pattern_weights_differ;
          Alcotest.test_case "errors" `Quick test_pattern_errors;
        ] );
      ( "species",
        [
          Alcotest.test_case "round trip with chunking" `Quick test_species_roundtrip;
          Alcotest.test_case "append" `Quick test_append_species;
          Alcotest.test_case "nexus load" `Quick test_load_nexus;
        ] );
      ( "history",
        [
          Alcotest.test_case "record and recall" `Quick test_query_history;
          Alcotest.test_case "legacy schema migration" `Quick
            test_query_history_legacy_migration;
          Alcotest.test_case "v1 schema migration (no cost column)" `Quick
            test_query_history_v1_migration;
        ] );
      ( "summary",
        [
          Alcotest.test_case "rollups match brute force" `Quick
            test_summary_matches_brute;
          Alcotest.test_case "fallback scan for legacy trees" `Quick
            test_summary_fallback_scan;
          Alcotest.test_case "overview pages stay flat" `Slow
            test_overview_pages_sublinear;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "reopen" `Quick test_persistence_across_reopen;
          Alcotest.test_case "tiny buffer pool" `Slow test_small_pool_queries;
        ] );
    ]
