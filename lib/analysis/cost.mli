(** Static cost bounds per function, to sit next to the measured
    profile.

    The estimate is deliberately a {e shape}, not a prediction: each
    reachable block contributes its summed {!Objcode.Instr.cost},
    weighted by [c_loop_weight]{^ depth} for its {!Dom} loop-nesting
    depth; call sites add the callee's own bound (the {e maximum} over
    an indirect site's {!Indirect} target set — fan-out resolves to the
    worst case), weighted the same way. Any function on a call-graph
    cycle — and anything that can reach one — has no finite descendant
    bound and reports [None], exactly the situation where the paper
    falls back from static reasoning to measured arcs. Comparing the
    two columns is the point: a routine whose measured share dwarfs
    its static bound is being {e called} too much, not {e doing} too
    much, and vice versa. *)

type fn = {
  c_id : int;  (** function id (symbol index) *)
  c_name : string;
  c_blocks : int;  (** intra-procedurally reachable blocks *)
  c_loops : int;
  c_depth : int;  (** maximum loop-nesting depth *)
  c_irreducible : bool;
  c_self : int;  (** loop-weighted cost bound of the body itself *)
  c_total : int option;
      (** body plus (weighted, worst-case) callees; [None] when a
          call-graph cycle makes any static bound infinite *)
}

type t = { c_funcs : fn array; c_loop_weight : int }

val static_estimate : indirect:Indirect.t -> Cfg.t -> t
(** [c_loop_weight] is 8, the assumed iterations per loop level. *)

val listing : ?measured:(string -> (float * float) option) -> t -> string
(** A table of the estimate, descending by self bound. [measured]
    supplies (self seconds, self+descendants seconds) per function
    name — when given, the measured columns are rendered beside the
    static ones. *)
