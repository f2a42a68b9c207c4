(** The Mini compiler: AST to executable object code.

    Profiling instrumentation follows the paper's model exactly. With
    [~options.profile] the compiler inserts an [Mcount] instruction at
    the head of each routine ("augmented routine prologues"); with
    [~options.count] it inserts a [Pcount] per-routine counter — the
    cheaper instrumentation the original prof(1) used. The two are
    independent: gprof needs [profile], prof needs [count], and an
    uninstrumented build has neither and runs at full speed.

    A [profiled] predicate that refuses some names lets callers
    instrument a subset of routines, reproducing the paper's "one need
    not profile all the routines in a program". *)

type options = {
  profile : bool;  (** insert [Mcount] prologues (gprof) *)
  count : bool;  (** insert [Pcount] counters (prof) *)
  profiled : string -> bool;
      (** which functions get instrumented when [profile]/[count] is
          on; defaults to every function *)
  inline : string list;
      (** expand calls to these functions at their call sites
          ({!Transform.inline_expansion}); default none *)
  fold : bool;  (** run {!Transform.constant_fold}; default off *)
}

val default_options : options
(** No instrumentation; every function selected should
    instrumentation be switched on. *)

val profiling_options : options
(** [profile] on, [count] off, all functions. *)

val compile_program :
  ?options:options ->
  ?source_name:string ->
  Mini.Ast.program ->
  (Objcode.Objfile.t, string) result
(** Check (with {!Builtins.arities} ambient and a required [main]) and
    compile. The first error is reported with its location. *)

val compile_source :
  ?options:options ->
  ?source_name:string ->
  string ->
  (Objcode.Objfile.t, string) result
(** Parse, check, and compile Mini source text. *)

val to_asm :
  ?options:options -> ?source_name:string -> Mini.Ast.program -> Objcode.Asm.aprog
(** The symbolic assembly before layout; exposed for tests and
    listings. Assumes a checked program — unbound names raise
    [Invalid_argument]. *)
