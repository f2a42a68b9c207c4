(** The generic monotone dataflow framework.

    Everything a classic bit-vector or constant-propagation pass needs,
    abstracted once: a lattice (bottom, join, equality), a direction,
    a per-block transfer function, and an optional per-edge refinement
    — and a worklist fixpoint that is {e fuel-bounded} so a broken
    transfer function (or an adversarial binary) degrades to a
    reported non-convergence instead of a hung tool. The two
    instantiations living in {!Facts} (liveness, conditional constant
    propagation) go through {!Make.solve}; {!Dom} shares the {!graph}
    view.

    Solving publishes [analysis.dataflow.*] counters (passes,
    iterations, fuel exhaustions) to {!Obs.Metrics.default}. *)

(** {1 Bit sets}

    Immutable fixed-width bit sets — the carrier of the may/must
    bit-vector lattices. Width is fixed at creation; all operands of a
    binary operation must share it. *)

module Bits : sig
  type t

  val empty : int -> t
  (** [empty w] is the empty set of width [w]. *)

  val add : t -> int -> t
  val remove : t -> int -> t
  val mem : t -> int -> bool
  val union : t -> t -> t
  val diff : t -> t -> t
  val equal : t -> t -> bool
end

(** {1 Graphs}

    The solver's view of a function: blocks as integers [0..n-1] with
    successor/predecessor adjacency. {!Cfg.build} derives one per
    function ([fn_graph]); tests build arbitrary graphs directly. *)

type graph = {
  g_entry : int;
  g_succs : int array array;
  g_preds : int array array;
}

val graph_of_succs : entry:int -> int list array -> graph
(** Build a graph from successor lists; predecessors are derived.
    @raise Invalid_argument on an out-of-range entry or successor. *)

val reachable : graph -> bool array
(** Forward reachability from [g_entry]. *)

(** {1 The framework} *)

type direction = Forward | Backward

type stats = {
  st_iterations : int;  (** transfer-function applications performed *)
  st_converged : bool;  (** [false] when the fuel bound was hit *)
}

module type LATTICE = sig
  type t

  val bottom : t
  (** The least element — "no information / unreachable". The solver
      seeds every block with it; [join bottom x = x] must hold. *)

  val equal : t -> t -> bool

  val join : t -> t -> t
  (** Least upper bound; with {!equal} this decides convergence.
      A may-analysis joins with union, a must-analysis with
      intersection (over a full-set bottom). *)
end

module Make (L : LATTICE) : sig
  type spec = {
    direction : direction;
    boundary : L.t;
        (** the fact entering the CFG: joined into the entry block's
            input (forward) or into every exit block's input
            (backward) *)
    transfer : int -> L.t -> L.t;
        (** [transfer b fact] pushes [fact] through block [b]; must be
            monotone in [fact] for the fixpoint to be the least one *)
    edge : (int -> int -> L.t -> L.t option) option;
        (** [edge src dst fact] refines the fact flowing along CFG
            edge [src -> dst] ([None] = the edge cannot execute —
            conditional constant propagation kills the untaken side of
            a constant branch this way). Defaults to [Some fact].
            Edges are always given in CFG orientation, also under
            [Backward]. *)
  }

  type result = { r_in : L.t array; r_out : L.t array; r_stats : stats }
  (** [r_in]/[r_out] are block {e input} and {e output} facts in the
      direction of flow: for a backward analysis [r_in.(b)] holds at
      the {e end} of [b] and [r_out.(b)] at its start. *)

  val solve : ?fuel:int -> graph -> spec -> result
  (** Run the worklist to a fixpoint or until [fuel] transfer
      applications have been spent (default [max 1024 (64 * n)]
      for [n] blocks). On exhaustion the partial facts are returned
      with [st_converged = false]; callers must degrade to their
      sound default (everything live, nothing constant). *)

  val is_fixpoint : graph -> spec -> result -> bool
  (** Re-apply every equation once: [true] iff nothing changes, i.e.
      the result really is a fixpoint. A converged {!solve} satisfies
      this by construction (the QCheck suite leans on it). *)
end
