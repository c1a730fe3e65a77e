(* In-memory reference answers for the stored queries, computed from the
   lib/tree structures the workload was generated as. The repository
   renumbers nodes to dense preorder ids at load time, so the oracle
   works on the preorder-dense copy and its node ids are the stored ids:
   an unnamed internal node prints as "#<id>" in both. *)

module Tree = Crimson_tree.Tree
module Ops = Crimson_tree.Ops
module Newick = Crimson_formats.Newick

type t = {
  tree : Tree.t;
  depth : int array;
  rd : float array;
  size : int array;
  leaves_under : int array;
  up : int array array;  (** [up.(k).(v)] is v's 2^k-th ancestor (root maps to itself). *)
  by_name : (string, int) Hashtbl.t;
  leaves : int array;  (** Leaf ids in preorder. *)
  leaf_rd_sorted : float array;
}

let build original =
  let tree = Ops.copy original in
  let n = Tree.node_count tree in
  let depth = Tree.depths tree in
  let rd = Tree.root_distance tree in
  let size = Tree.subtree_sizes tree in
  let leaves_under = Array.make n 0 in
  Array.iter
    (fun v ->
      if Tree.is_leaf tree v then leaves_under.(v) <- 1;
      let p = Tree.parent tree v in
      if p <> Tree.nil then leaves_under.(p) <- leaves_under.(p) + leaves_under.(v))
    (Tree.postorder tree);
  let max_depth = Array.fold_left max 0 depth in
  let levels =
    let rec go k = if 1 lsl k > max_depth then k + 1 else go (k + 1) in
    go 0
  in
  let root = Tree.root tree in
  let up = Array.make levels [||] in
  up.(0) <-
    Array.init n (fun v ->
        let p = Tree.parent tree v in
        if p = Tree.nil then root else p);
  for k = 1 to levels - 1 do
    let prev = up.(k - 1) in
    up.(k) <- Array.init n (fun v -> prev.(prev.(v)))
  done;
  let by_name = Hashtbl.create n in
  for v = n - 1 downto 0 do
    match Tree.name tree v with Some s -> Hashtbl.replace by_name s v | None -> ()
  done;
  let leaves = Tree.leaves tree in
  let leaf_rd_sorted = Array.map (fun l -> rd.(l)) leaves in
  Array.sort Float.compare leaf_rd_sorted;
  { tree; depth; rd; size; leaves_under; up; by_name; leaves; leaf_rd_sorted }

let node_count o = Tree.node_count o.tree
let leaf_count o = Array.length o.leaves
let leaf_name o i = Option.get (Tree.name o.tree o.leaves.(i))
let id_of o name = Hashtbl.find_opt o.by_name name

let label o v =
  match Tree.name o.tree v with Some s when s <> "" -> s | _ -> Printf.sprintf "#%d" v

let is_ancestor_or_self o a b = a <= b && b < a + o.size.(a)

let lift o v d =
  let v = ref v in
  Array.iteri (fun k row -> if (d lsr k) land 1 = 1 then v := row.(!v)) o.up;
  !v

let lca o a b =
  if is_ancestor_or_self o a b then a
  else if is_ancestor_or_self o b a then b
  else begin
    let da = o.depth.(a) and db = o.depth.(b) in
    let m = min da db in
    let a = ref (lift o a (da - m)) and b = ref (lift o b (db - m)) in
    for k = Array.length o.up - 1 downto 0 do
      let row = o.up.(k) in
      if row.(!a) <> row.(!b) then begin
        a := row.(!a);
        b := row.(!b)
      end
    done;
    o.up.(0).(!a)
  end

let lca_set o = function
  | [] -> invalid_arg "Oracle.lca_set"
  | x :: rest -> List.fold_left (lca o) x rest

(* %g in the query replies keeps six significant digits. *)
let close expected got =
  Float.abs (expected -. got) <= 1e-5 *. Float.max 1.0 (Float.abs expected)

let ids o names = List.map (fun s -> Option.get (id_of o s)) names

(* ----------------------------- Checks ------------------------------- *)

(* Each check takes the request's species names and the reply's result
   text, and says whether the answer is right. *)

let check_lca o names result =
  let l = lca_set o (ids o names) in
  match Scanf.sscanf result "%s@ (depth %d, distance from root %f)%!" (fun a b c -> (a, b, c)) with
  | lbl, d, r -> lbl = label o l && d = o.depth.(l) && close o.rd.(l) r
  | exception _ -> false

let check_distance o names result =
  match (ids o names, float_of_string_opt result) with
  | [ a; b ], Some got ->
      let l = lca o a b in
      close (o.rd.(a) +. o.rd.(b) -. (2.0 *. o.rd.(l))) got
  | _ -> false

let leaves_in_clade o root =
  let acc = ref [] in
  for v = root + o.size.(root) - 1 downto root do
    if Tree.is_leaf o.tree v then acc := label o v :: !acc
  done;
  !acc

let check_clade o names result =
  let root = lca_set o (ids o names) in
  let n = o.leaves_under.(root) in
  let expected =
    if n <= 20 then
      Printf.sprintf "root %s, %d species: %s" (label o root) n
        (String.concat ", " (leaves_in_clade o root))
    else Printf.sprintf "root %s, %d species" (label o root) n
  in
  result = expected

(* Clade (sorted leaf names) -> incoming edge length, for comparing two
   small trees whose branch lengths went through decimal printing. *)
let clade_lengths t =
  let tbl = Hashtbl.create 16 in
  let rec go v =
    let names =
      if Tree.is_leaf t v then [ Option.value ~default:"" (Tree.name t v) ]
      else List.sort compare (List.concat_map go (Tree.children t v))
    in
    Hashtbl.replace tbl (String.concat "," names) (Tree.branch_length t v);
    names
  in
  ignore (go (Tree.root t));
  tbl

let check_project o names result =
  match Newick.parse result with
  | got ->
      let expected = clade_lengths (Ops.induced_subtree o.tree (ids o names)) in
      let got = clade_lengths got in
      Hashtbl.length got = Hashtbl.length expected
      && Hashtbl.fold
           (fun clade len ok ->
             ok
             &&
             match Hashtbl.find_opt got clade with
             | Some l -> Float.abs (l -. len) <= 1e-9 *. Float.max 1.0 (Float.abs len)
             | None -> false)
           expected true
  | exception _ -> false

(* A time-frontier sample: [k] distinct leaves, every one strictly
   beyond [time] from the root. *)
let check_sample o ~k ~time result =
  let names = String.split_on_char ',' result |> List.map String.trim in
  let seen = Hashtbl.create k in
  List.length names = k
  && List.for_all
       (fun s ->
         match id_of o s with
         | Some v when Tree.is_leaf o.tree v && o.rd.(v) > time && not (Hashtbl.mem seen v) ->
             Hashtbl.add seen v ();
             true
         | _ -> false)
       names

(* Sample times for which at least [k] leaves lie strictly beyond:
   uniform over [0, t_k) where t_k is the k-th largest leaf distance. *)
let sample_time_bound o ~k = o.leaf_rd_sorted.(Array.length o.leaf_rd_sorted - k)
