(** Control-flow graphs decoded from the text segment.

    The paper's static crawl (§2) walks the executable "looking for
    calls to routines"; this pass decodes the control structure
    inside each routine: basic blocks, their intra-procedural edges,
    and the call sites each block holds. The call graph between
    routines is {!Objcode.Scan.static_arcs} with {!Indirect}'s arcs;
    the block structure is what the reachability pass ({!Reach}), the
    dataflow passes ({!Dom}, {!Facts}), the profile linter
    ({!Proflint}) and {!Cost} stand on. {!build} is the one place a
    function's block graph is derived: each of them reads
    [fn_graph] and [fn_reachable] rather than deriving its own. *)

type block = {
  bb_start : int;  (** address of the first instruction *)
  bb_len : int;  (** number of instructions, >= 1 *)
  bb_calls : int list;
      (** addresses of [Call]/[Calli] instructions inside the block,
          ascending *)
}

type func = {
  fn_symbol : Objcode.Objfile.symbol;
  fn_blocks : block array;
      (** ascending by [bb_start]; the first block starts at the
          function entry *)
  fn_graph : Dataflow.graph;
      (** the intra-procedural edges over indices into [fn_blocks],
          entry 0: a block's successors are its fall-through, its jump
          target, or both arms of a conditional; return/halt blocks
          have none. Successors and predecessors ascend. *)
  fn_reachable : bool array;
      (** per block: reachable from the entry block over [fn_graph] *)
}

type t = {
  cfg_obj : Objcode.Objfile.t;
  cfg_funcs : func array;  (** same order as [cfg_obj.symbols] *)
}

val build : Objcode.Objfile.t -> t
(** Decode every function. Leaders are the function entry, every
    in-function jump target, and every instruction following a jump,
    conditional jump, return, or halt. Jumps whose target lies outside
    the function (invalid images) contribute no edge. Publishes
    [analysis.cfg.*] counters to {!Obs.Metrics.default}. *)

val block_index : func -> int -> int option
(** The index into [fn_blocks] of the block whose address range
    contains the given address — the block numbering [fn_graph],
    {!Dom} and {!Facts} all share. Binary search. *)

val n_blocks : t -> int
(** Total basic blocks over all functions. *)

val n_edges : t -> int
(** Total intra-procedural edges over all functions. *)
