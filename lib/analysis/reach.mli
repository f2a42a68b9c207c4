(** Reachability and dead-code reporting over the static graphs.

    Three questions, all answered from {!Cfg} plus the static call graph:
    which functions can execute at all (reachability from the entry
    point over {!Objcode.Scan.static_arcs} ∪ {!Indirect}'s arcs),
    which blocks inside a function can execute (intra-procedural
    reachability from its entry block), and — the cross-check the
    profile linter leans on — whether the {e dynamic} profile
    contradicts the static verdict. A "dead" function with nonzero
    ticks is a finding, not noise: either the binary and the profile
    do not match, or the static graph is missing an arc the paper
    would have had to declare "spontaneous" (§2). *)

type t = {
  r_unreachable : string list;
      (** names of functions unreachable from the entry point, in
          address order *)
  r_dead_profiled : string list;
      (** the subset of [r_unreachable] compiled with the monitoring
          prologue: instrumented code that can never execute *)
  r_dead_blocks : (string * int * int) list;
      (** (function, block start, block length) of intra-procedurally
          unreachable blocks, in address order — e.g. the compiler's
          fall-off-the-end epilogue after a body that always returns *)
  r_graph : Graphlib.Digraph.t;
      (** the static call graph the verdicts were computed over:
          {!Objcode.Scan.static_arcs} ∪ {!Indirect}'s [i_arcs], every
          arc with count 0 *)
}

val analyze : indirect:Indirect.t -> Cfg.t -> t
(** Publishes [analysis.reach.*] counters to {!Obs.Metrics.default}. *)

type contradiction = {
  c_func : string;
  c_ticks : int;  (** histogram ticks landing inside the function *)
  c_calls : int;  (** dynamic arc traversals into its entry *)
}

val calls_into : Objcode.Objfile.t -> Gmon.t -> int array
(** Per function id, the summed count of the profile's arcs into its
    entry ({!Gmon.arc_count_into} of every routine at once), in one
    pass over the arcs. *)

val crosscheck : t -> Objcode.Objfile.t -> Gmon.t -> contradiction list
(** Functions the dynamic profile saw executing that {e neither} view
    can explain, in address order. A profile accounts for its own
    activity through spontaneous roots and recorded arcs (the paper
    "declares them spontaneous"), so the check reaches from
    entry ∪ spontaneous-arc targets over static ∪ dynamic arcs;
    activity outside that closure means the binary and the profile do
    not match. Empty when the views agree. *)
