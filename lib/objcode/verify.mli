(** Load-time verification: what the VM proves once instead of
    checking on every instruction.

    After {!Objfile.validate}, one linear pass per function walks every
    pc reachable from the function's entry and computes the operand
    stack height and the [enter] total there, the way a JVM bytecode
    verifier does. It refuses code where two paths reach a pc with
    different heights or totals, the operand stack underflows, a [ret]
    finds no value to return, or control leaves the function (falling
    through its last word, or a jump). Local slots are checked for the
    frames whose arity is known: those entered by a direct [call]
    (against the fewest arguments any call site passes) and the entry
    function's (no arguments). Frames entered through [calli] are
    checked at run time when they receive fewer arguments than
    [min_args].

    Errors name the function, the offset, and the pc:
    ["main+2 (pc 2): operand stack underflow"]. *)

type t = {
  max_stack : int;
      (** the deepest operand stack any function builds above its
          frame's base *)
  min_args : int array;
      (** per symbol id: the fewest arguments that keep every local
          slot access of the function in range *)
}

val check : Objfile.t -> (t, string list) result
(** {!Objfile.validate}'s errors when it fails, else the first frame
    error found, else the facts the VM relies on. *)

val load : string -> (Objfile.t, string list) result
(** {!Objfile.load}, then {!check}: what a tool that runs an object
    file reads it with, so refused code fails before the VM starts. *)
