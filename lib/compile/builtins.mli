(** The ambient routines every Mini program may call.

    Builtins compile to [Syscall] instructions, not to calls: they are
    the VM's "operating system services" and never appear in the call
    graph — the analogue of work done inside the kernel on the
    program's behalf. Programs that want I/O to show up in their
    profile wrap these in ordinary Mini functions (as the paper's
    example wraps the WRITE system call). *)

val arities : (string * int) list
(** Name and argument count of each builtin; feed to
    {!Mini.Check.check}. *)

val syscall_of_name : string -> Objcode.Instr.syscall option
