(** Handle to a tree persisted in the Tree Repository.

    Node ids are the dense preorder ids assigned at load time. Every
    accessor resolves through the handle's {!Node_view} cache: a node's
    row is fetched (and its neighbourhood prefetched) once, then further
    field reads are in-memory record accesses — no full mirror of the
    tree is kept, per the paper's design point that simulation trees
    exceed main memory while individual queries touch few pages.

    Structure queries (LCA, ancestor tests, preorder comparison) run the
    {!Crimson_label.Layered.Engine} algorithms over the stored layered
    labels. *)

type t

exception Unknown_tree of string
exception Unknown_node of int

val open_id : ?cache_capacity:int -> ?prefetch:int -> Repo.t -> int -> t
(** Raises {!Unknown_tree}. [cache_capacity] bounds the handle's
    resident node views, [prefetch] the rows pulled per cache miss
    (defaults: {!Node_view.default_capacity},
    {!Node_view.default_prefetch}). *)

val open_name : ?cache_capacity:int -> ?prefetch:int -> Repo.t -> string -> t
(** Raises {!Unknown_tree}. *)

val list_all : Repo.t -> (int * string) list
(** (id, name) of every stored tree. *)

(** {1 Metadata} *)

val repo : t -> Repo.t
val id : t -> int
val name : t -> string
val f : t -> int
val layer_count : t -> int
val node_count : t -> int
val leaf_count : t -> int
val root : t -> int
(** Always node 0 (preorder ids). *)

(** {1 Node accessors (disk-backed, view-cached)} *)

val view : t -> int -> Node_view.t
(** The node's decoded view — the one fetch the other accessors are
    sugar over. Use it directly when reading several fields of the same
    node. Raises {!Unknown_node}. *)

val cache_stats : t -> Node_view.stats
(** This handle's view-cache counters. *)

val invalidate_cache : t -> unit
(** Drop the handle's cached views (see {!Node_view.invalidate}) and its
    {!time_index}. *)

(** {1 Time-frontier skip index}

    A resident summary of the node rows in preorder-id order, built once
    per handle by {!Sampling} and kept here so it lives as long as the
    handle's view cache. Level 0 holds, for each block of consecutive
    node ids, the largest [root_dist] and the largest [leaf_lo] in the
    block; each higher level holds the maxima of a fixed-size group of
    entries of the level below. *)

type time_index = { rd_max : Float.Array.t array; lo_max : int array array }

val time_index : t -> build:(t -> time_index) -> time_index
(** The handle's index, calling [build] on first use. If [build] raises
    (a request deadline, say), nothing is kept and the next call builds
    again. *)

val time_index_resident : t -> bool
(** Whether the index has been built and not dropped since. *)

val parent : t -> int -> int
(** [-1] for the root. Raises {!Unknown_node}. *)

val edge_index : t -> int -> int
val node_name : t -> int -> string option
val branch_length : t -> int -> float
val root_distance : t -> int -> float
val children : t -> int -> int list
(** In edge order, via the [by_parent] index. *)

val is_leaf : t -> int -> bool
val leaf_interval : t -> int -> int * int
(** [(lo, hi)]: the half-open interval of leaf ordinals under the node. *)

val leaf_by_ordinal : t -> int -> int
(** Node id of the leaf with the given preorder ordinal. Raises
    {!Unknown_node} when out of range. *)

val leaves_between : t -> lo:int -> hi:int -> limit:int -> int list
(** Leaf node ids with ordinals in [\[lo, min hi (lo + limit))], in
    preorder, streamed off one index cursor instead of per-ordinal
    lookups. *)

val node_by_name : t -> string -> int option
(** First node carrying the name (index lookup, not a scan). *)

val leaf_ids_by_names : t -> string list -> (int list, string) result
(** Resolve leaf names; [Error name] on the first unknown or non-leaf
    name. *)

(** {1 Structure queries (the paper's §2.1 index)} *)

val lca : t -> int -> int -> int
val lca_set : t -> int list -> int
(** Raises [Invalid_argument] on the empty list. *)

val is_ancestor_or_self : t -> ancestor:int -> int -> bool
val compare_preorder : t -> int -> int -> int
val depth : t -> int -> int

val path_distance : t -> int -> int -> float
(** Evolutionary distance between two nodes: sum of branch lengths along
    the path through their LCA, computed from stored cumulative root
    distances in one LCA query. *)

val path_nodes : t -> int -> int -> int list
(** The nodes on the path from the first node to the second (inclusive),
    through their LCA. Costs O(path length) row fetches. *)
