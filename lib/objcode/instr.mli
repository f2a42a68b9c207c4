(** The instruction set of the simulated machine.

    A simple stack machine: expression operands live on an operand
    stack, locals and parameters in the current frame, scalars and
    arrays in a global data segment. Each instruction has a cycle
    cost ({!cost}); the VM's simulated clock is driven by these costs,
    and the program-counter histogram is sampled against them — this
    is the stand-in for the paper's hardware clock.

    [Mcount] is the hook for the paper's monitoring routine: the
    compiler places one at the head of each profiled function's body,
    exactly as the Berkeley compilers "insert calls to a monitoring
    routine in the prologue for each routine". Its cost is dynamic
    (hash probe dependent) and accounted by the VM monitor, not by
    {!cost}. *)

type alu = Add | Sub | Mul | Div | Mod | Lt | Le | Gt | Ge | Eq | Ne

type unop = Neg | Not

type syscall =
  | Sys_print  (** pop a word, write it as a decimal line *)
  | Sys_putc   (** pop a word, write it as one character *)
  | Sys_rand   (** pop a bound, push a deterministic pseudo-random
                   value in [\[0, bound)] *)
  | Sys_cycles (** push the current cycle counter *)

type t =
  | Nop
  | Const of int   (** push a constant *)
  | Load of int    (** push local slot *)
  | Store of int   (** pop into local slot *)
  | Gload of int   (** push global scalar *)
  | Gstore of int  (** pop into global scalar *)
  | Aload of int   (** pop index, push element of array [id] *)
  | Astore of int  (** pop value, pop index, store into array [id] *)
  | Alu of alu     (** pop right, pop left, push result *)
  | Unop of unop
  | Jump of int    (** absolute text address *)
  | Jumpz of int   (** pop; branch when zero *)
  | Call of int * int   (** direct call: entry address, argument count *)
  | Calli of int        (** indirect call: entry address popped; arg count *)
  | Funref of int       (** push a function's entry address *)
  | Enter of int        (** prologue: allocate [n] locals beyond parameters *)
  | Mcount              (** invoke the call-graph monitoring routine *)
  | Pcount of int       (** prof-style per-function counter increment *)
  | Ret                 (** pop return value, pop frame, push value *)
  | Pop                 (** discard top of stack *)
  | Syscall of syscall
  | Halt

val cost : t -> int
(** Cycle cost of one execution of the instruction. [Mcount]'s entry
    here is only its fixed decode cost; the monitor adds its dynamic
    cost. Multiplication and division are slower than addition, calls
    and returns slower than jumps, and syscalls slowest — coarse but
    shaped like the VAX of the paper. *)

val pops_pushes : t -> int * int
(** The operands an instruction pops, then pushes: the one definition
    of the operand stack's shape. {!Verify} checks stack heights with
    it, and the abstract interpreters of [lib/analysis] move their
    abstract values with it. A call pushes the callee's return value;
    a [Calli] also pops the callee's address. *)

val n_groups : int
(** Number of coarse dispatch groups. *)

val group : t -> int
(** Coarse dispatch group of an instruction, in [\[0, n_groups)]:
    stack/local/global/array traffic, ALU, branches, the call family,
    frame management, instrumentation, syscalls. Drives the VM's
    execution-mix metrics. *)

val group_name : int -> string
(** Short name of a dispatch group.
    @raise Invalid_argument when out of range. *)

val alu_name : alu -> string

val syscall_name : syscall -> string

val to_string : t -> string
(** One-line textual form, parseable by {!of_string}. *)

val of_string : string -> (t, string) result

val equal : t -> t -> bool
