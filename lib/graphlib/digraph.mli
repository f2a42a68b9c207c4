(** Directed graphs with weighted arcs.

    Nodes are the integers [0 .. n-1]; arcs carry an integer weight
    (used by the profiler as a traversal count). Parallel arc
    insertions accumulate their weights; a weight may be zero (static
    call-graph arcs are recorded with count 0). *)

type t

val create : int -> t
(** [create n] is the graph with nodes [0..n-1] and no arcs. *)

val n_nodes : t -> int

val n_arcs : t -> int
(** Number of distinct (src, dst) pairs present. *)

val copy : t -> t

val add_arc : t -> src:int -> dst:int -> count:int -> unit
(** Accumulates [count] onto the arc [src -> dst], creating it if
    absent. Self-arcs are allowed. @raise Invalid_argument if a node is
    out of range or [count < 0]. *)

val remove_arc : t -> src:int -> dst:int -> unit
(** Remove the arc if present; no-op otherwise. *)

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

val of_arcs : n:int -> (int * int * int) list -> t

val reverse : t -> t
(** Graph with every arc flipped, weights preserved. *)

val equal : t -> t -> bool
(** Same node count and same weighted arc set. *)
