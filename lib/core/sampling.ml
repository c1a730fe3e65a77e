module Prng = Crimson_util.Prng
module Table = Crimson_storage.Table
module Record = Crimson_storage.Record
module Key = Crimson_storage.Key
module Deadline = Crimson_obs.Deadline
module Metrics = Crimson_obs.Metrics
module Span = Crimson_obs.Span
module Json = Crimson_obs.Json

exception Invalid_sample of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid_sample s)) fmt
let fattr key v = Span.attr key (Json.Num (float_of_int v))

let uniform tree ~rng ~k =
  let n = Stored_tree.leaf_count tree in
  if k <= 0 then invalid "sample size %d must be positive" k;
  if k > n then invalid "sample size %d exceeds leaf count %d" k n;
  let ords = Prng.sample_without_replacement rng ~k ~n in
  Array.to_list (Array.map (fun ord -> Stored_tree.leaf_by_ordinal tree ord) ords)

(* ----------------------- Time-frontier search ----------------------- *)
(* The frontier is the first node on each root path whose root distance
   exceeds [time]. Node ids are dense preorder and every node row carries
   its leaf interval, so one pass in id order finds the same nodes in the
   same order: keep each node deeper than [time] whose [leaf_lo] is at
   least the [leaf_hi] of the node kept last. A node inside a kept
   subtree starts below that subtree's [leaf_hi]; a node with no kept
   ancestor starts after every subtree kept before it. The argument never
   assumes root distances grow along a path, so zero-length and negative
   edges need no special case.

   The pass skips runs of ids that cannot be kept. The handle's
   [Stored_tree.time_index] holds the largest root distance and
   [leaf_lo] of every [block] consecutive ids, with [block]-ary maxima
   above; a block whose maxima fail either test holds no frontier node,
   so the pass streams rows off one cursor and reseeks only past such
   runs. The index costs one streamed scan of the tree's node rows at the
   handle's first time query. *)

let block = 16
let h_build = Metrics.histogram "core.sampling.skip_build_ms"

(* Node rows of [tree] in id order from [first], off one index descent. *)
let rows_from tree first =
  let id = Stored_tree.id tree in
  Table.cursor
    (Repo.nodes (Stored_tree.repo tree))
    ~index:"by_node" ~prefix:(Key.int id)
    ~start:(Schema.Nodes.key_node ~tree:id first)

(* NaN-ignoring max: a NaN root distance is never deeper than [time], so
   it must not hide the real maximum of its block. *)
let fmax m x = if x > m then x else m

let rec levels rd lo =
  let m = Array.length lo in
  if m <= block then ([ rd ], [ lo ])
  else begin
    let up = (m + block - 1) / block in
    let rd' = Float.Array.make up Float.neg_infinity and lo' = Array.make up min_int in
    for i = 0 to m - 1 do
      let j = i / block in
      Float.Array.set rd' j (fmax (Float.Array.get rd' j) (Float.Array.get rd i));
      lo'.(j) <- max lo'.(j) lo.(i)
    done;
    let rds, los = levels rd' lo' in
    (rd :: rds, lo :: los)
  end

let build tree =
  Span.record_traced h_build
    ~attrs:(fun () -> [ ("tree", Json.Num (float_of_int (Stored_tree.id tree))) ])
    (fun () ->
      let blocks = (Stored_tree.node_count tree + block - 1) / block in
      let rd = Float.Array.make blocks Float.neg_infinity
      and lo = Array.make blocks min_int in
      let cur = rows_from tree 0 in
      let rec fill () =
        match Table.Cursor.next cur with
        | None -> ()
        | Some (_, row) ->
            Deadline.check ();
            let b = Record.get_int row Schema.Nodes.c_node / block in
            Float.Array.set rd b
              (fmax (Float.Array.get rd b) (Record.get_float row Schema.Nodes.c_root_dist));
            lo.(b) <- max lo.(b) (Record.get_int row Schema.Nodes.c_leaf_lo);
            fill ()
      in
      fill ();
      let rds, los = levels rd lo in
      { Stored_tree.rd_max = Array.of_list rds; lo_max = Array.of_list los })

(* The first block at or after [from] that may hold a node deeper than
   [time] with [leaf_lo >= hi]. An entry's two maxima can come from
   different nodes, so a live entry may cover only dead blocks; the
   search then moves on to the entry's next sibling. *)
let next_block (ix : Stored_tree.time_index) ~time ~hi from =
  let live level i =
    Float.Array.get ix.rd_max.(level) i > time && ix.lo_max.(level).(i) >= hi
  in
  (* [span]: level-0 blocks under one entry of [level]. *)
  let rec within level i span =
    if not (live level i) then None
    else if level = 0 then Some i
    else
      let span = span / block in
      entries (level - 1)
        (max (i * block) (from / span))
        (min ((i + 1) * block) (Array.length ix.lo_max.(level - 1)))
        span
  and entries level i stop span =
    if i >= stop then None
    else
      match within level i span with
      | Some _ as found -> found
      | None -> entries level (i + 1) stop span
  in
  let top = Array.length ix.lo_max - 1 in
  let span = ref 1 in
  for _ = 1 to top do
    span := !span * block
  done;
  entries top (from / !span) (Array.length ix.lo_max.(top)) !span

(* Frontier nodes with their leaf intervals, as [(node, leaf_lo, leaf_hi)]
   in preorder. *)
let frontier tree ~time =
  if not (Float.is_finite time) then invalid "time %g must be finite" time;
  if time < 0.0 then invalid "time %g must be non-negative" time;
  Span.with_ ~name:"core.sampling.frontier" (fun () ->
      fattr "tree" (Stored_tree.id tree);
      Span.attr "time" (Json.Num time);
      let ix = Stored_tree.time_index tree ~build in
      let n = Stored_tree.node_count tree in
      let acc = ref [] and hi = ref 0 in
      let rows = ref 0 and seeks = ref 0 in
      (* The open cursor and the block it yields next. *)
      let cur = ref None in
      let rec read c k =
        if k > 0 then
          match Table.Cursor.next c with
          | None -> ()
          | Some (_, row) ->
              Deadline.check ();
              incr rows;
              let lo = Record.get_int row Schema.Nodes.c_leaf_lo in
              if Record.get_float row Schema.Nodes.c_root_dist > time && lo >= !hi then begin
                let leaf_hi = Record.get_int row Schema.Nodes.c_leaf_hi in
                acc := (Record.get_int row Schema.Nodes.c_node, lo, leaf_hi) :: !acc;
                hi := leaf_hi
              end;
              read c (k - 1)
      in
      let rec scan from =
        match next_block ix ~time ~hi:!hi from with
        | None -> ()
        | Some b ->
            let c =
              match !cur with
              | Some (c, next) when next = b -> c
              | _ ->
                  incr seeks;
                  rows_from tree (b * block)
            in
            read c (min block (n - (b * block)));
            cur := Some (c, b + 1);
            scan (b + 1)
      in
      scan 0;
      let found = List.rev !acc in
      fattr "frontier" (List.length found);
      fattr "rows" !rows;
      fattr "reseeks" (max 0 (!seeks - 1));
      found)

let frontier_at tree ~time = List.map (fun (node, _, _) -> node) (frontier tree ~time)

let with_time tree ~rng ~k ~time =
  let n = Stored_tree.leaf_count tree in
  if k <= 0 then invalid "sample size %d must be positive" k;
  if k > n then invalid "sample size %d exceeds leaf count %d" k n;
  let frontier = frontier tree ~time in
  if frontier = [] then
    invalid "no species lies deeper than evolutionary time %g" time;
  let capacity = List.fold_left (fun acc (_, lo, hi) -> acc + (hi - lo)) 0 frontier in
  if k > capacity then
    invalid "sample size %d exceeds the %d species below the time-%g frontier" k
      capacity time;
  (* Even quotas, the paper's k/|F| rule; remainders go to random
     subtrees, and quota overflow (subtree smaller than its quota) spills
     over round-robin. *)
  let m = List.length frontier in
  let sizes = Array.of_list (List.map (fun (_, lo, hi) -> hi - lo) frontier) in
  let quotas = Array.make m (k / m) in
  (* Spread the remainder over distinct random subtrees. *)
  let rem = k mod m in
  let order = Prng.sample_without_replacement rng ~k:m ~n:m in
  for i = 0 to rem - 1 do
    quotas.(order.(i)) <- quotas.(order.(i)) + 1
  done;
  (* Spill: cap quotas at subtree sizes, pushing excess to others. *)
  let excess = ref 0 in
  for i = 0 to m - 1 do
    if quotas.(i) > sizes.(i) then begin
      excess := !excess + (quotas.(i) - sizes.(i));
      quotas.(i) <- sizes.(i)
    end
  done;
  let guard = ref 0 in
  while !excess > 0 do
    incr guard;
    if !guard > m + k then invalid "internal quota distribution failed";
    for i = 0 to m - 1 do
      if !excess > 0 && quotas.(i) < sizes.(i) then begin
        quotas.(i) <- quotas.(i) + 1;
        decr excess
      end
    done
  done;
  let samples = ref [] in
  List.iteri
    (fun i (_, lo, hi) ->
      let size = hi - lo in
      let quota = quotas.(i) in
      if quota > 0 then begin
        let picks = Prng.sample_without_replacement rng ~k:quota ~n:size in
        Array.iter
          (fun p -> samples := Stored_tree.leaf_by_ordinal tree (lo + p) :: !samples)
          picks
      end)
    frontier;
  List.rev !samples

(* ---------------------------- Telemetry ---------------------------- *)

let uniform tree ~rng ~k =
  Span.with_ ~name:"core.sampling.uniform" (fun () ->
      fattr "tree" (Stored_tree.id tree);
      fattr "k" k;
      let sampled = uniform tree ~rng ~k in
      fattr "sampled" (List.length sampled);
      sampled)

let with_time tree ~rng ~k ~time =
  Span.with_ ~name:"core.sampling.with_time" (fun () ->
      fattr "tree" (Stored_tree.id tree);
      fattr "k" k;
      Span.attr "time" (Json.Num time);
      with_time tree ~rng ~k ~time)
