(** The top of the post-processor: options, analysis, listings.

    [analyze] is what the [gprofx] command runs: executable + profile
    data in, complete profile out. The options cover the features the
    paper and retrospective describe:
    - static-arc augmentation from the executable (on by default);
    - removal of a user-specified set of arcs, by routine names;
    - the bounded heuristic that picks cycle-breaking arcs
      automatically (minimum-feedback-arc-set is NP-complete, so the
      search is capped);
    - filtering the display to the subgraph containing named routines,
      or to entries above a time threshold. *)

type options = {
  use_static_arcs : bool;
  removed_arcs : (string * string) list;
      (** arcs (caller, callee) to delete before analysis. Here and in
          [focus] and [exclude] a name stands for every routine of
          that name. *)
  auto_break_cycles : int option;
      (** remove up to this many heuristically-chosen cycle arcs *)
  focus : string list;
      (** show only the parts of the graph containing these routines *)
  exclude : string list;
      (** drop these routines' own entries from the listings (their
          times still propagate; gprof's -e) *)
  min_percent : float;
      (** hide entries below this share of total time (0 = show all) *)
  lenient : bool;
      (** degrade instead of failing on damaged profile data: sampled
          PCs and arc endpoints that resolve to no routine fold into a
          synthetic [<unknown>] entry rather than being dropped, and a
          histogram whose pc range disagrees with the executable's
          text is analyzed anyway (the mismatch lands in
          [<unknown>]) *)
}

val default_options : options
(** Strict ([lenient = false]). *)

type t = {
  profile : Profile.t;
  removed : (int * int) list;
      (** function-id arcs actually removed (explicit + heuristic) *)
  dropped_records : int;
  folded_records : int;
      (** arc records folded into [<unknown>] by a lenient analysis *)
  options : options;
}

val analyze :
  ?options:options ->
  ?indirect:Analysis.Indirect.t ->
  Objcode.Objfile.t ->
  Gmon.t ->
  (t, string) result
(** [Error] on unknown routine names in [removed_arcs]/[focus], or on
    an invalid profile. [indirect] defaults to
    {!Analysis.Indirect.analyze} of the same executable, run only when
    [use_static_arcs] is on; pass it to share one resolution between
    the passes that read the same binary. *)

val degraded : t -> bool
(** True when a lenient analysis had to fold unresolvable records or
    time into [<unknown>]. *)

val removed_arc_names : t -> (string * string) list

val flat_listing : ?verbose:bool -> t -> string

val graph_listing : ?verbose:bool -> t -> string

val index_listing : t -> string

val dot_graph : t -> string
(** Graphviz rendering of the analyzed graph ({!Dotprof}). *)

val full_listing : ?verbose:bool -> t -> string
(** Graph profile, flat profile, and index, with a preamble noting
    removed arcs and dropped records; [~verbose:true] adds the field
    explanations before each listing. *)
