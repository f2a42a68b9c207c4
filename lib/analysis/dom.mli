(** Dominator trees and natural loops.

    Immediate dominators via the Cooper–Harvey–Kennedy iterative
    algorithm ("A Simple, Fast Dominance Algorithm"): reverse-postorder
    sweeps with the two-finger intersection, no Lengauer–Tarjan link-eval
    machinery — at Mini function sizes the simple algorithm is also the
    fast one. On top: back edges ([src -> header] where the header
    dominates the source), the natural loop of each header, nesting
    depth per block, and an irreducibility verdict (a DFS retreating
    edge whose target does {e not} dominate its source — a loop with
    more than one entry, which natural-loop analysis cannot
    represent).

    {!compute} publishes [analysis.dom.*] counters (functions, loops,
    irreducible) to {!Obs.Metrics.default}. *)

type loop = {
  l_header : int;  (** block index of the single entry *)
  l_body : int list;  (** blocks of the loop, ascending, includes header *)
  l_depth : int;  (** 1 = outermost *)
  l_parent : int option;  (** index in [d_loops] of the enclosing loop *)
}

type t = {
  d_idom : int array;
      (** immediate dominator per block; the entry maps to itself,
          unreachable blocks to [-1] *)
  d_loops : loop array;
      (** one natural loop per header (multiple back edges into one
          header merge), ordered by header index *)
  d_depth : int array;
      (** loop-nesting depth per block; 0 = not inside any loop *)
  d_irreducible : bool;
      (** some retreating edge is not a back edge: the loop structure
          has a multi-entry region and [d_loops] under-approximates *)
}

val of_graph : Dataflow.graph -> t

val compute : Cfg.func -> t
(** [of_graph] over the function's [fn_graph], with metrics. The
    function must have at least one block. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b]: every path from the entry to [b] passes through
    [a]. Reflexive; [false] when [b] is unreachable. *)
