(** Profile-guided optimization: the loop from a gmon profile back
    into the Mini compiler.

    The paper's closing argument is that a call-graph profile exists
    to direct optimization effort ("a profiler must aid the user in
    interpreting the profile so the program can be improved"); this
    subsystem closes that loop mechanically. Given a Mini program and
    a profile gathered from an instrumented build of the {e same}
    program, {!optimize} drives three transformations:

    - {b profile-driven inlining}: hot, small, non-recursive
      single-return callees (the {!Compile.Transform.inlinable} set)
      are selected by arc count x callee size under a growth budget
      and expanded via {!Compile.Transform.inline_expansion} — the
      paper's "expanded inline … the overhead of a function call and
      return can be saved for each datum", now chosen by measurement
      instead of a hand-written [--inline] list.
    - {b basic-block reordering}: within each sampled function, the
      layout is rebuilt so the hottest successor chain falls through
      (histogram ticks projected through the source-line markers onto
      the basic blocks of the assembly it emits, which it finds by the
      CFG pass's leader rules; ties broken by {!Analysis.Dom} loop
      depth), cold blocks sink to the end, and jump fixups keep the
      control flow identical: a trailing jump to the next-placed block
      is cut, a displaced fall-through gets an explicit jump.
      Conditions are never inverted — on this VM a [Jumpz] costs the
      same taken or not, so polarity fixups are pure churn.
    - {b hot/cold function splitting}: functions are laid out in the
      object file by descending inclusive (self + descendants) time,
      so hot code is contiguous; callees that were inlined away sink
      to the cold end regardless of their (now stale) profile time.

    Every decision — taken or refused, with the numbers that decided
    it — lands in the {!report}, and {!report_listing} renders it
    deterministically: byte-identical across runs on equal inputs. *)

type inline_decision = {
  i_callee : string;
  i_calls : int;  (** dynamic calls observed into the callee *)
  i_sites : int;  (** distinct call sites among the profile's arcs *)
  i_size : int;  (** callee size in the reference binary, instructions *)
  i_taken : bool;
  i_why : string;  (** deterministic one-line reason *)
}

type reorder_decision = {
  r_func : string;
  r_blocks : int;
  r_layout : int list;  (** original block indices in final order *)
  r_cold : int;  (** blocks with no projected ticks, sunk *)
  r_jumps_cut : int;  (** trailing jumps dropped (target falls through) *)
  r_jumps_added : int;  (** explicit jumps added for displaced fall-throughs *)
}

type report = {
  p_source : string;
  p_ticks : int;  (** histogram ticks in the profile *)
  p_runs : int;
  p_arc_records : int;
  p_hot_calls : int;  (** the computed hot-call threshold *)
  p_max_size : int;
  p_budget : int;
  p_inline : inline_decision list;  (** every observed callee, hottest first *)
  p_inline_names : string list;  (** the names actually passed to expansion *)
  p_reorder : reorder_decision list;  (** functions whose layout changed *)
  p_reorder_skipped : int;  (** functions left alone: trivial or unsampled *)
  p_order : (string * float) list;
      (** final object-file function order with inclusive seconds *)
}

val optimize :
  ?options:Compile.Codegen.options ->
  ?source_name:string ->
  Mini.Ast.program ->
  Gmon.t ->
  (Objcode.Objfile.t * report, string) result
(** Compile the program with profile feedback. The profile must come
    from a build of the same program with the same [options] modulo
    inlining (the baseline [minic --pg] build); a reference build is
    recompiled internally and the pairing is verified with
    {!Analysis.Proflint.lint} — error-severity findings (wrong
    binary, impossible arcs) refuse the profile rather than quietly
    mis-optimizing. The inliner expands callees of at most 24
    instructions within 256 instructions of estimated expansion
    ([p_max_size], [p_budget]). Forced [options.inline] names are
    honoured and marked as such in the report. *)

val report_listing : report -> string
(** The decision log: profile summary, one line per inline decision
    with the numbers behind it, per-function layout changes, and the
    final function order. Deterministic; byte-identical across runs on
    equal inputs. *)
