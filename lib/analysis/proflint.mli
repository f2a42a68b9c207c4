(** The profile-vs-binary consistency linter.

    A gmon file is a bag of raw addresses; nothing in the paper's
    pipeline checks that those addresses make sense for the binary
    being analyzed — feed gprof the wrong [gmon.out] and it happily
    garbles. This pass verifies every claim the profile makes against
    the executable: call sites must hold call instructions, arc
    endpoints must be function entries, histogram buckets must map
    into the text segment, and every non-spontaneous dynamic arc must
    be {e feasible} in the static graph (direct calls to that callee,
    or an indirect site whose resolved target set admits it).

    {b Rule catalogue} (ids are stable; see docs/static-analysis.md):
    - [binary-invalid] (error): the executable fails
      {!Objcode.Objfile.validate}.
    - [hist-geometry] (error): histogram bounds or a bucket fall
      outside the text segment [0, len).
    - [hist-gap-ticks] (warning): a nonzero bucket covered by no
      routine.
    - [arc-from-non-call] (error): an arc's call site holds no
      [Call]/[Calli] instruction.
    - [arc-into-non-entry] (error): an arc's callee is mid-function or
      outside the symbol table.
    - [arc-into-unprofiled] (warning): an arc lands on a routine built
      without the monitoring prologue — the monitor cannot have
      produced it.
    - [arc-infeasible] (error): a non-spontaneous arc contradicts the
      static graph: a direct-call site targeting a different routine,
      or an indirect site whose resolved target set excludes the
      callee.
    - [arc-spontaneous] (info): an arc from outside the text segment —
      the monitor's pseudo-site for roots; the paper "declares them
      spontaneous".
    - [call-anomaly] (warning): the {e binary} has direct calls or
      funrefs whose target is no function entry
      ({!Objcode.Scan.anomalies}).
    - [dead-code-ticks] (warning): a statically-unreachable function
      observed with ticks or incoming calls ({!Reach.crosscheck}).
    - [profiled-unreachable] (info): an instrumented function the
      entry point can never reach.
    - [dead-blocks] (info): intra-procedurally unreachable blocks.

    {b Dataflow rules} (over {!Dataflow}/{!Dom}/{!Facts}; binary-side
    unless noted):
    - [dead-store] (warning): a store to a local slot no path ever
      reads (liveness).
    - [dead-param] (warning): a parameter never read, for functions
      whose arity every call site agrees on.
    - [const-branch] (warning): a two-way branch whose condition
      constant propagation decides — it folds. A nonzero constant
      heading a loop (the target of a backward [Jump], as a [while]/
      [for] condition is) is the deliberate infinite loop and is not
      reported.
    - [const-dead-block] (info): a block the plain CFG reaches but
      constant propagation proves dead — beyond {!Reach}'s verdict.
    - [irreducible-loop] (warning): a multi-entry loop; natural-loop
      analysis is partial there.
    - [calli-no-callee] (warning): a [Calli] site whose {!Indirect}
      resolution is [Resolved []]: no function value ever reaches its
      callee operand, so the call can only fault.
    - [loop-call-unobserved] (warning, profile): a call site at loop
      depth >= 1 whose every feasible target is an instrumented entry,
      whose own block was sampled ticking (so the call provably
      fired), with no dynamic arc.
    - [loop-no-ticks] (warning, profile): a loop none of whose
      fully-contained buckets ticked although its function crossed the
      hot threshold.
    - [dead-block-ticks] (error, profile): ticks inside a
      statically-dead block — a symbol-map/profile mismatch no
      merge of views can explain.

    {b PGO pairing rules} ({!lint_pgo}, baseline binary vs. its
    profile-guided rebuild):
    - [pgo-symbol-missing] (error): a baseline routine is absent from
      the optimized binary.
    - [pgo-entry-mismatch] (error): the two binaries start in
      different routines.
    - [pgo-profiled-dropped] (warning): a routine lost its monitoring
      prologue across the rebuild — fresh profiles will silently miss
      it.
    - [pgo-inlined-away] (info): every direct call to a routine was
      inlined; baseline profiles attribute its time to the routine,
      fresh profiles to its callers — the granularity loss the paper
      warns inlining causes.

    Severities follow the PR 2 exit-code convention: 0 clean, 2 when
    findings at or above the failing threshold exist, 1 for
    operational failures (unreadable inputs). [--strict] fails on
    warnings and errors (default); [--lenient] fails only on
    errors. *)

type severity = Error | Warning | Info

val severity_to_string : severity -> string

type finding = {
  f_rule : string;
  f_severity : severity;
  f_addr : int option;  (** the offending address, when one exists *)
  f_func : string option;  (** the enclosing function, when one exists *)
  f_msg : string;
}

type t = {
  l_findings : finding list;  (** errors first, then by rule/address *)
  l_arcs_checked : int;
  l_buckets_checked : int;
}

val rules : (string * severity * string) list
(** The catalogue: (id, severity, one-line description). *)

type statics = {
  s_cfg : Cfg.t;
  s_indirect : Indirect.t;
  s_arities : int option array;  (** per function id, {!Facts.arities} *)
  s_doms : Dom.t option array;  (** [None] for empty functions *)
  s_live : Facts.live option array;
  s_cp : Facts.cp option array;
}
(** Every static analysis the linter consumes, bundled so N profiles
    against one executable pay for it once. *)

val prepare : Objcode.Objfile.t -> statics
(** Build the CFG, resolve the indirect calls, and run {!Dom},
    liveness and constant propagation on every non-empty function,
    each over the function's one [fn_graph]. *)

val lint : ?statics:statics -> Objcode.Objfile.t -> Gmon.t -> t
(** Lint one profile against one executable. [statics] defaults to
    {!prepare} of the executable; pass it to amortize over many
    profiles. An executable that
    fails {!Objcode.Objfile.validate} gets only its [binary-invalid]
    and [call-anomaly] findings: no static pass runs on it, and
    [statics] is unused.
    Publishes [analysis.lint.*] counters (including per-rule
    [analysis.lint.fired.*]) to {!Obs.Metrics.default}. *)

val lint_binary : ?statics:statics -> Objcode.Objfile.t -> t
(** The binary-only rules ([binary-invalid], [call-anomaly],
    [profiled-unreachable], [dead-blocks], and the dataflow rules
    [dead-store]/[dead-param]/[const-branch]/[const-dead-block]/
    [irreducible-loop]/[calli-no-callee]) — what can be checked with
    no profile at hand. Like {!lint}, only [binary-invalid] and [call-anomaly] for
    an executable that fails validation. *)

val lint_pgo : baseline:Objcode.Objfile.t -> Objcode.Objfile.t -> t
(** The PGO pairing rules: check a profile-guided rebuild against the
    baseline binary its profile came from ([pgo-symbol-missing],
    [pgo-entry-mismatch], [pgo-profiled-dropped], [pgo-inlined-away]).
    Purely binary-vs-binary; no profile required. *)

val static_warnings : statics -> finding list
(** Just the warning-severity dataflow findings over a binary's
    statics ([dead-store], [dead-param], [const-branch],
    [irreducible-loop], [calli-no-callee]) — what [minic] prints and
    [--werror] promotes, so the compiler and the linter agree by
    construction. *)

val arity_warnings : params:(string * int) list -> statics -> string list
(** The [Calli n] sites with candidates ({!Indirect.callees}) none of
    which declares [n] parameters by [params], each function's
    parameter count in the source. [minic] prints these after
    {!static_warnings}; they are no lint rule, because the object
    records no declared arity and {!Facts.arities} infers one from the
    call sites. *)

val worst : t -> severity option
(** The highest severity present, [None] for a clean result. *)

val failed : strict:bool -> t -> bool
(** Whether the findings cross the failing threshold: errors always;
    warnings only when [strict]. *)

val exit_code : strict:bool -> t -> int
(** [0] clean (below threshold), [2] findings at or above it —
    matching the degraded-data convention of the ingestion layer. *)

val render : t -> string
(** Human listing: one line per finding
    ([severity \[rule\] message (addr N)]) and a summary count line.
    Stable order. *)

(** {1 Aggregation and machine-readable output} *)

type aggregate = { a_finding : finding; a_profiles : int }
(** One distinct finding and how many of the linted profiles produced
    it. Binary-side findings appear once per profile result they were
    part of, so against N profiles they count N. *)

val aggregate : t list -> aggregate list
(** Deduplicate findings by (rule, function, address, message) across
    the per-profile results, in {!render} order. *)

val render_aggregate : nprofiles:int -> t list -> string
(** The multi-profile human listing: each distinct finding once, with
    a [(k/N profiles)] tag, and one combined summary line. *)

val json_schema : string
(** ["gprof-repro.lint/1"] — see docs/json-report.md. *)

val to_json : binary:string -> profiles:string list -> t list -> string
(** The machine-readable report: schema tag, inputs, a summary block,
    and the aggregated findings sorted by (rule, function, pc,
    message) — deterministic, byte-identical across runs on equal
    inputs. *)
