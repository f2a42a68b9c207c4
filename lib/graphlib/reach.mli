(** Reachability queries and subgraph filtering.

    These back the retrospective's filtering features: "show only hot
    functions, or only parts of the graph containing certain
    methods". *)

val forward : Digraph.t -> int list -> bool array
(** [forward g roots] marks every node reachable from [roots]
    (inclusive). *)

val forward_with : Digraph.t -> extra:int list array -> int list -> bool array
(** {!forward} over [g]'s arcs plus an arc from each node [v] to each
    of [extra.(v)], without building the union graph; [extra] has one
    entry per node. *)

val backward : Digraph.t -> int list -> bool array
(** Marks every node that can reach one of the given nodes
    (inclusive). *)

val between : Digraph.t -> int list -> bool array
(** [between g vs] marks nodes on some path through a node of [vs]:
    the union of ancestors and descendants of [vs] — the subgraph
    "containing certain methods". *)

val restrict : Digraph.t -> keep:bool array -> Digraph.t
(** Graph on the same node set with only the arcs whose both endpoints
    are kept. Nodes are not renumbered, so external id maps stay
    valid. *)
