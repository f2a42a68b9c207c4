(** Directed graphs with weighted arcs, frozen when built.

    Nodes are the integers [0 .. n-1]; arcs carry an integer weight
    (used by the profiler as a traversal count). A graph is an
    immutable value made once by {!of_arcs}: parallel arcs add their
    weights, and a weight may be zero (static call-graph arcs are
    recorded with count 0). To remove arcs, build the graph again from
    the arcs to keep.

    The representation is two sorted slices per node. Node [u]'s
    successors are the positions [succ_off.(u)] to
    [succ_off.(u + 1) - 1] of [succ_dst] (ascending) and [succ_count];
    its predecessors are the positions [pred_off.(u)] to
    [pred_off.(u + 1) - 1] of [pred_src] (ascending) and [pred_count].
    Each distinct (src, dst) pair appears once in each. Readers walk
    the slices in place; the arrays must not be written. *)

type t = private {
  n : int;
  succ_off : int array;  (** [n + 1] offsets into [succ_dst] *)
  succ_dst : int array;  (** callee of each arc, ascending per node *)
  succ_count : int array;  (** weight beside [succ_dst] *)
  pred_off : int array;  (** [n + 1] offsets into [pred_src] *)
  pred_src : int array;  (** caller of each arc, ascending per node *)
  pred_count : int array;  (** weight beside [pred_src] *)
}

val of_arcs : n:int -> (int * int * int) list -> t
(** [of_arcs ~n arcs] is the graph on nodes [0..n-1] with the arcs
    [(src, dst, count)]; parallel arcs add their counts and self-arcs
    are allowed. Linear in [n] plus the number of arcs.
    @raise Invalid_argument if [n < 0], a node is out of range or a
    count is negative. *)

val n_nodes : t -> int

val n_arcs : t -> int
(** Number of distinct (src, dst) pairs present. *)

val arc_index : t -> src:int -> dst:int -> int option
(** The arc's position in [succ_dst]/[succ_count], if present. *)

val mem_arc : t -> src:int -> dst:int -> bool

val arc_count : t -> src:int -> dst:int -> int
(** Weight of the arc, or 0 if absent. *)

val succs : t -> int -> (int * int) list
(** [(dst, count)] pairs, sorted by [dst]. *)

val preds : t -> int -> (int * int) list
(** [(src, count)] pairs, sorted by [src]. *)

val out_degree : t -> int -> int

val in_degree : t -> int -> int

val iter_arcs : (src:int -> dst:int -> count:int -> unit) -> t -> unit
(** Iterate all arcs in ascending (src, dst) order. *)

val fold_arcs : ('a -> src:int -> dst:int -> count:int -> 'a) -> 'a -> t -> 'a

val arcs : t -> (int * int * int) list
(** All arcs as [(src, dst, count)], ascending (src, dst). *)

val reverse : t -> t
(** Graph with every arc flipped, weights preserved. *)

val equal : t -> t -> bool
(** Same node count and same weighted arc set. *)
