(** The two stock instantiations of {!Dataflow} over Mini bytecode:
    liveness and conditional constant propagation — the per-block
    facts {!Proflint}'s dataflow rules consume. Both solve over the
    function's {!Cfg.func} [fn_graph].

    Both work on local slots: parameters occupy slots
    [0..arity-1] (filled from the operand stack at call time), the
    remaining slots are zero-initialized by [Enter]. Arity is not
    recorded in the object file, so {!arities} reconstructs it from
    call sites; analyses needing it degrade gracefully when it cannot
    be inferred.

    The operand stack is abstracted {e within} a block only, each
    instruction popping and pushing what {!Objcode.Instr.pops_pushes}
    says: Mini's codegen can carry a value across a label
    (short-circuit [&&]/[||]), so at block entry the stack is unknown
    and popping past the known prefix yields "unknown" — imprecise,
    never unsound. *)

val arities : indirect:Indirect.t -> Cfg.t -> int option array
(** Per function id: the argument count, when every call site that can
    reach the function (direct calls and resolved indirect sites)
    agrees on it; the entry function takes no arguments by the Mini
    contract. [None] = uncalled or inconsistent. *)

(** {1 Liveness} *)

type live = {
  lv_nslots : int;
  lv_in : Dataflow.Bits.t array;  (** slots live at block entry *)
  lv_out : Dataflow.Bits.t array;  (** slots live at block exit *)
  lv_dead_stores : (int * int) list;
      (** [(pc, slot)] of stores no path ever reads, ascending by pc;
          empty when the fixpoint did not converge (never report on a
          degraded result) *)
  lv_stats : Dataflow.stats;
}

val liveness : ?nslots:int -> Objcode.Objfile.t -> Cfg.func -> live
(** Backward may-analysis over slots. [nslots] widens the slot universe
    (pass the arity so an unread parameter has a bit to be dead in). *)

val dead_params : live -> arity:int -> int list
(** Parameter slots not live at function entry: their caller-supplied
    value is never read on any path. Ascending. *)

(** {1 Conditional constant propagation} *)

type cvalue = Cunknown | Cconst of int

type cp = {
  cp_executable : bool array;
      (** per block: reachable along executable edges from the entry,
          with constant branches taking only their decided side *)
  cp_dead_blocks : int list;
      (** blocks the plain CFG reaches but constant propagation
          proves dead — strictly beyond {!Reach}'s verdict *)
  cp_const_branches : (int * int) list;
      (** [(pc, cond)] for each executable [Jumpz] with two distinct
          successors whose condition converged to the constant [cond]
          — the branch folds *)
  cp_stats : Dataflow.stats;
}

val constprop : ?arity:int -> Objcode.Objfile.t -> Cfg.func -> cp
(** SCCP-style block-granularity conditional constant propagation:
    slot-wise constant lattice with executable-edge tracking. With a
    known [arity], slots beyond it start as [Enter]'s zero; parameters
    (and everything, when arity is unknown) start unknown. On a
    non-converged fixpoint everything degrades to executable /
    non-constant. *)
