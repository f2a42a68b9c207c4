(** Building the dynamic call graph from arc records.

    Arc records arrive as (call-site pc, callee entry pc, count). The
    call site is resolved to its containing routine to give a
    function-level graph; sites that resolve to no routine (the
    monitor's spontaneous pseudo-site among them) become
    "spontaneous" parents of their callee. Arcs into addresses that
    are not function entries are counted as [dropped] (they cannot
    occur with our monitor but may in corrupted data files).

    Static arcs from {!Objcode.Scan} are merged with count 0 — "thus
    they are never responsible for any time propagation. However,
    they may affect the structure of the graph" by completing
    strongly-connected components. *)

type t = {
  graph : Graphlib.Digraph.t;
      (** nodes are function ids; weights are traversal counts *)
  spontaneous : (int * int) list;
      (** (callee function id, count), sorted by callee *)
  dynamic_arcs : (int * int) list;
      (** the (src, dst) pairs that came from the profile (count > 0
          or an explicit dynamic record); static-only arcs are the
          rest *)
  dropped : int;  (** arc records that could not be resolved *)
  folded : int;
      (** arc records whose callee resolved to no routine and were
          redirected into the synthetic [<unknown>] node (lenient
          analyses only; strict ones count them as [dropped]) *)
}

val build :
  ?static:(int * int) list -> ?unknown:int -> Symtab.t -> Gmon.arc list -> t
(** Resolves the records, then builds the graph once with
    {!Graphlib.Digraph.of_arcs}. [static] lists (caller id, callee id)
    pairs that go in with count 0, which adds an arc only where the
    profile has none; pairs out of range are ignored. [unknown], when
    given, is the synthetic function id that absorbs arc records whose
    callee is no routine entry, instead of dropping them. *)

val remove_arcs :
  t -> (int * int) list -> t
(** Remove the given (caller id, callee id) arcs — the analysis-side
    arc deletion option — by building the graph again from the arcs
    that remain. Spontaneous records are unaffected. Removing no arcs
    returns the input itself. *)
