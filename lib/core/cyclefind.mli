(** Cycle discovery over the function-level call graph.

    Wraps {!Graphlib.Condense} with gprof's vocabulary: a "cycle" is a
    strongly-connected component with two or more members. A
    self-recursive routine (a self-arc only) is {e not} a cycle here —
    it keeps its own entry with the [called+self] notation, exactly as
    the paper's EXAMPLE does. Cycles are numbered 1..n in
    leaves-first topological order of the condensation. *)

type t = {
  cond : Graphlib.Condense.t;
  cycle_no : int array;  (** per function id; 0 = not in a cycle *)
  n_cycles : int;
  members : int list array;  (** index = cycle number - 1; ascending ids *)
}

val find : Graphlib.Digraph.t -> t

val comp_of : t -> int -> int
(** Condensation component of a function. *)
