(** Static call-graph discovery by crawling the executable.

    The paper: "One can examine the instructions in the object
    program, looking for calls to routines, and note which routines
    can be called. … Statically discovered arcs that do not exist in
    the dynamic call graph are added to the graph with a traversal
    count of zero." Only direct calls are statically visible —
    indirect calls through functional variables are exactly the arcs
    the static graph may omit (§2 of the paper); {!Analysis.Indirect}
    narrows that blind spot. Arcs name routines by symbol id, the
    index into [o.symbols], so two routines that share a name stay
    two routines. *)

type anomaly_kind =
  | Mid_function of string
      (** the target lands inside the named routine, not at its entry *)
  | Outside_table  (** the target is covered by no symbol at all *)

type anomaly = {
  an_addr : int;  (** address of the offending instruction *)
  an_caller : string option;
      (** routine containing the instruction, if any covers it *)
  an_target : int;  (** the bad target address *)
  an_kind : anomaly_kind;
  an_instr : [ `Call | `Funref ];
}

val anomalies : Objfile.t -> anomaly list
(** Calls and funrefs whose target is not a symbol entry address, in
    text order: mid-function targets, targets outside the symbol
    table, and call instructions sitting in a symbol-table gap. They
    are not silently dropped from the crawl, but they give no arc.
    Well-formed assembler output produces none; hand-built or
    corrupted images may. *)

val anomaly_to_string : anomaly -> string
(** One-line rendering, e.g.
    ["call at 12 (in main) targets 7, mid-leaf"]. *)

val static_arcs : Objfile.t -> (int * int) list
(** The direct calls as (caller, callee) symbol ids, deduplicated, in
    first-occurrence order: the count-0 arcs of the static call
    graph. Anomalous calls give none. One walk of each symbol's own
    range, so on a table {!Objfile.validate} refuses for overlap a
    call gives an arc from every routine whose range covers it. *)

val referenced_functions : Objfile.t -> string list
(** Functions whose entry address is taken with [Funref] — potential
    targets of indirect calls. These are NOT added as arcs by this
    scanner (it cannot know the call site); {!Analysis.Indirect}
    propagates them to the [Calli] sites they can reach, and the
    listing tools report them. *)
