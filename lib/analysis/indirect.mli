(** Indirect-call resolution: flow-insensitive function-value
    propagation.

    The paper concedes that its static crawl misses "calls to routines
    passed as parameters" — functional variables (§2). This pass
    shrinks that blind spot: it propagates [Funref] values through
    local slots, globals, arrays, call arguments, and return values
    with a flow-insensitive fixpoint over the whole program, and
    attributes to every [Calli] site the set of function entries that
    can reach it.

    {b The fixpoint} is a worklist over routines. A value is [Top]
    (unknown origin) or a bitset over the address-taken list, of as
    many words as the list needs, so joins need no sorting. Each
    routine keeps dense local cells up to the highest slot it loads.
    The first visit of each routine is a full pass; after it, a
    routine is visited again only when a cell it reads grows: one of
    its own slots, a global or array it loads, or the return value of
    a routine it can call. Each [Calli] site is read on its routine's
    last visit. The operand stack is modelled as a known top prefix,
    abandoned at each jump target inside the routine.

    {b Soundness contract}: the resolution is a sound
    {e over-approximation} under one documented assumption — function
    values originate from [Funref] instructions and flow only through
    moves (loads, stores, argument passing, returns). Arithmetic that
    manufactures a function address from constants is invisible to the
    pass (and to the paper's crawl); a site whose abstract operand is
    unknown falls back to {e every} address-taken function, never to a
    smaller set. Resolved arcs therefore enter the call graph with
    count 0, exactly like the paper's statically discovered arcs:
    "they are never responsible for any time propagation". *)

type resolution =
  | Resolved of int list
      (** possible target entry addresses, ascending; may be empty
          (the site can only receive non-function values) *)
  | Unresolved
      (** the operand's origin is unknown; the sound fallback is the
          whole address-taken set *)

type t = {
  i_sites : (int * resolution) list;
      (** every [Calli] site, ascending by address *)
  i_by_pc : (int, resolution) Hashtbl.t;
      (** [i_sites] keyed by address, for {!resolution} *)
  i_address_taken : int list;
      (** entry addresses of functions whose address is taken with
          [Funref], ascending *)
  i_arcs : (int * int) list;
      (** the over-approximate (caller, callee) symbol-id pairs
          contributed by the resolved sites, deduplicated, in site
          order. With {!Objcode.Scan.static_arcs} they make the static
          call graph: the count-0 arcs {!Gprof_core.Report} merges
          when [use_static_arcs] is on, and {!Reach}'s graph. *)
}

val analyze : Objcode.Objfile.t -> t
(** Run the fixpoint on an image {!Objcode.Objfile.validate} accepts.
    Publishes [analysis.indirect.*] counters (sites, resolved,
    unresolved, arcs) to {!Obs.Metrics.default}. *)

val resolution : t -> site:int -> resolution option

val callees : Objcode.Objfile.t -> t -> pc:int -> int list
(** The symbol ids the call at [pc] can enter, ascending for a [Calli]:
    a [Call]'s target when it is a function entry; a [Calli]'s
    resolved targets, or the whole address-taken set when it is
    [Unresolved]. Empty for any other instruction. *)
