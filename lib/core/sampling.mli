(** Sampling queries over the gold-standard tree (paper §2.2).

    The Benchmark Manager samples species subsets because reconstruction
    algorithms cannot handle the full simulation tree. Two methods from
    the paper plus explicit user input:

    - {!uniform}: k distinct leaves, uniformly at random;
    - {!with_time}: "sampling a set of species with respect to a given
      time" — find the frontier of minimal nodes whose evolutionary
      distance from the root exceeds [time], then draw the k species as
      evenly as possible across the frontier subtrees;
    - user input is just {!Stored_tree.leaf_ids_by_names}. *)

exception Invalid_sample of string

val uniform : Stored_tree.t -> rng:Crimson_util.Prng.t -> k:int -> int list
(** [k] distinct leaf node ids. Raises {!Invalid_sample} when [k <= 0] or
    [k] exceeds the leaf count. *)

val frontier_at : Stored_tree.t -> time:float -> int list
(** Minimal (closest-to-root) nodes whose root distance strictly exceeds
    [time], in preorder — the paper's example yields [{Bha, x, Syn, Bsu}]
    at time 1 on Figure 1. Raises {!Invalid_sample} on a negative or
    non-finite [time], before reading any node row.

    Runs as a preorder skip-scan over the node rows. The handle's
    {!Stored_tree.time_index} is built on the first call (one streamed
    scan of the tree, polling the request deadline per row) and reused
    until {!Stored_tree.invalidate_cache}. *)

val with_time :
  Stored_tree.t -> rng:Crimson_util.Prng.t -> k:int -> time:float -> int list
(** Distribute [k] across the frontier subtrees as evenly as possible
    (paper: "for each node, we randomly select k/|F| leaves from the
    subtree rooted by the node"), sampling without replacement inside
    each subtree via leaf-ordinal intervals. Subtrees smaller than their
    quota contribute all their leaves; leftover demand spills to the
    other subtrees. Raises {!Invalid_sample} when [k] is not positive,
    exceeds the leaf count, exceeds the leaves below the frontier, or the
    frontier is empty, and when [time] is rejected by {!frontier_at}. *)
