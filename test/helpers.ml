(* Shared fixtures and generators for the Crimson test suites. *)

module Tree = Crimson_tree.Tree
module Prng = Crimson_util.Prng

(* The paper's Figure 1 tree, reconstructed to satisfy every worked
   example in the text:
   - Dewey labels: Lla = 2.1.1, Spy = 2.1.2, LCA(Lla,Spy) = 2.1 (§2.1);
   - edge-weight multiset {0.75, 1, 1, 0.5, 1.5, 2.5, 1.25} (Figure 1);
   - sampling at evolutionary distance 1 yields exactly the frontier
     {Bha, x, Syn, Bsu} where x is the parent of Lla and Spy (§2.2).

   root ── Bha:1.25          (child 1)
       ├── u:0.5             (child 2)
       │    ├── x:0.75       (2.1)
       │    │    ├── Lla:1.0 (2.1.1)
       │    │    └── Spy:1.0 (2.1.2)
       │    └── Syn:2.5      (2.2)
       └── Bsu:1.5           (child 3) *)
type figure1 = {
  tree : Tree.t;
  root : Tree.node;
  bha : Tree.node;
  u : Tree.node;
  x : Tree.node;
  lla : Tree.node;
  spy : Tree.node;
  syn : Tree.node;
  bsu : Tree.node;
}

let figure1 () =
  let b = Tree.Builder.create () in
  let root = Tree.Builder.add_root ~name:"root" b in
  let bha = Tree.Builder.add_child ~name:"Bha" ~branch_length:1.25 b ~parent:root in
  let u = Tree.Builder.add_child ~name:"u" ~branch_length:0.5 b ~parent:root in
  let x = Tree.Builder.add_child ~name:"x" ~branch_length:0.75 b ~parent:u in
  let lla = Tree.Builder.add_child ~name:"Lla" ~branch_length:1.0 b ~parent:x in
  let spy = Tree.Builder.add_child ~name:"Spy" ~branch_length:1.0 b ~parent:x in
  let syn = Tree.Builder.add_child ~name:"Syn" ~branch_length:2.5 b ~parent:u in
  let bsu = Tree.Builder.add_child ~name:"Bsu" ~branch_length:1.5 b ~parent:root in
  { tree = Tree.Builder.finish b; root; bha; u; x; lla; spy; syn; bsu }

(* Random tree with [n] nodes: node i attaches to a uniform earlier node,
   giving a broad mix of shapes. Leaves are named L<i>. *)
let random_tree rng n =
  assert (n >= 1);
  let b = Tree.Builder.create ~capacity:n () in
  let _root = Tree.Builder.add_root ~name:"root" b in
  for i = 1 to n - 1 do
    let parent = Prng.int rng i in
    let branch_length = 0.1 +. Prng.float rng 2.0 in
    ignore (Tree.Builder.add_child ~name:(Printf.sprintf "N%d" i) ~branch_length b ~parent)
  done;
  Tree.Builder.finish b

(* Caterpillar: a path of [depth] internal nodes, each with one leaf
   hanging off — the deep-tree regime the paper stresses. *)
let caterpillar ?(branch_length = 1.0) depth =
  assert (depth >= 1);
  let b = Tree.Builder.create ~capacity:(2 * depth) () in
  let spine = ref (Tree.Builder.add_root ~name:"root" b) in
  for i = 1 to depth do
    ignore
      (Tree.Builder.add_child ~name:(Printf.sprintf "L%d" i) ~branch_length b
         ~parent:!spine);
    spine :=
      Tree.Builder.add_child ~name:(Printf.sprintf "S%d" i) ~branch_length b
        ~parent:!spine
  done;
  Tree.Builder.finish b

(* Complete binary tree of the given height, leaves named. *)
let balanced_binary height =
  let b = Tree.Builder.create () in
  let root = Tree.Builder.add_root ~name:"root" b in
  let counter = ref 0 in
  let rec grow parent level =
    if level = 0 then ()
    else
      for _ = 1 to 2 do
        let name =
          if level = 1 then begin
            incr counter;
            Some (Printf.sprintf "L%d" !counter)
          end
          else None
        in
        let c = Tree.Builder.add_child ?name ~branch_length:1.0 b ~parent in
        grow c (level - 1)
      done
  in
  grow root height;
  Tree.Builder.finish b

let tree_testable =
  Alcotest.testable
    (fun ppf t -> Format.fprintf ppf "<tree %d nodes>" (Tree.node_count t))
    (fun a b -> Tree.equal_unordered a b)

(* ------------------------- Incremental decoders --------------------- *)

(* Feed [chunks] in order to a decoder made by [create], stopping at
   the first error: the items delivered before it, then the error. *)
let decode_chunks ~create ~feed chunks =
  let d = create () in
  let rec go acc = function
    | [] -> (List.rev acc, None)
    | chunk :: rest -> (
        match feed d chunk with
        | Ok items -> go (List.rev_append items acc) rest
        | Error e -> (List.rev acc, Some e))
  in
  go [] chunks

(* [s] cut at the given offsets (any order, duplicates allowed). *)
let split_at cuts s =
  let n = String.length s in
  let cuts = List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts) in
  let rec go from = function
    | [] -> [ String.sub s from (n - from) ]
    | c :: rest -> String.sub s from (c - from) :: go c rest
  in
  go 0 cuts

(* The chunking contract of an incremental decoder: however [input] is
   split, it reports the same error as when fed whole, and the same
   items when there is none. An error drops the items completed in the
   same call, so with an error a split may deliver fewer items than
   one byte per call does, never other ones. *)
let chunking_agrees ~create ~feed ~equal input cuts =
  let run = decode_chunks ~create ~feed in
  let whole = run [ input ] in
  let bytewise = run (List.init (String.length input) (fun i -> String.make 1 input.[i])) in
  let split = run (split_at cuts input) in
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a, y :: b -> equal x y && is_prefix a b
    | _ :: _, [] -> false
  in
  let same a b = List.length a = List.length b && is_prefix a b in
  match (snd whole, snd bytewise, snd split) with
  | None, None, None -> same (fst whole) (fst bytewise) && same (fst whole) (fst split)
  | Some e, Some e', Some e'' ->
      e = e' && e = e'' && is_prefix (fst split) (fst bytewise)
  | _ -> false

(* A max-size frame fed one byte per call must cost no more than
   linear time: [feed] over every byte of [input], wall-clock ms. *)
let bytewise_ms ~feed input =
  let t0 = Unix.gettimeofday () in
  String.iter (fun c -> feed (String.make 1 c)) input;
  (Unix.gettimeofday () -. t0) *. 1000.0
