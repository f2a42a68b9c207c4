let arities =
  [ ("print", 1); ("putc", 1); ("rand", 1); ("cycles", 0) ]

let syscall_of_name = function
  | "print" -> Some Objcode.Instr.Sys_print
  | "putc" -> Some Objcode.Instr.Sys_putc
  | "rand" -> Some Objcode.Instr.Sys_rand
  | "cycles" -> Some Objcode.Instr.Sys_cycles
  | _ -> None
