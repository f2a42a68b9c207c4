(** Cycle discovery over the function-level call graph.

    Runs {!Graphlib.Tarjan.scc} and names its components in gprof's
    vocabulary: a "cycle" is a strongly-connected component with two or
    more members. A self-recursive routine (a self-arc only) is {e not}
    a cycle here — it keeps its own entry with the [called+self]
    notation, exactly as the paper's EXAMPLE does. Cycles are numbered
    1..n in leaves-first topological order of the components. *)

type t = {
  scc : Graphlib.Tarjan.result;
      (** every component, numbered leaves-first *)
  cycle_no : int array;  (** per function id; 0 = not in a cycle *)
  n_cycles : int;
  members : int list array;  (** index = cycle number - 1; ascending ids *)
}

val find : Graphlib.Digraph.t -> t
