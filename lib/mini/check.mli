(** Static checking for Mini programs.

    Mini is untyped at the machine level (every value is a word), so
    "checking" means scope and shape validation: bound names, no
    duplicate definitions, arrays used only as arrays, direct calls
    with the right arity. Function names used as plain values become
    function references (the "functional variables" of the paper).
    An indirect call through such a value is not checked here. The VM
    passes its arguments by position: a call with too few faults when
    the callee reads a parameter slot its frame lacks, and a call with
    too many leaves the extra arguments in the callee's first local
    slots, where [Enter] does not zero them. [minic] warns about both
    from the object code and [Analysis.Indirect]. *)

type error = { msg : string; loc : Ast.loc }

val pp_error : Format.formatter -> error -> unit

val check : ?builtins:(string * int) list -> Ast.program -> error list
(** [check p] returns all diagnosed errors, in source order (empty
    means the program is well-formed). [builtins] declares ambient
    functions with their arities (e.g. [("print", 1)]); they may be
    called directly but not used as values (a builtin is a system
    call, not an addressable routine) and may not be redefined. *)

val check_entry : Ast.program -> error list
(** Errors about the program entry point: [main] must exist and take
    no parameters. *)
