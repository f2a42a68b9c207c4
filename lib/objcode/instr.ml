type alu = Add | Sub | Mul | Div | Mod | Lt | Le | Gt | Ge | Eq | Ne

type unop = Neg | Not

type syscall = Sys_print | Sys_putc | Sys_rand | Sys_cycles

type t =
  | Nop
  | Const of int
  | Load of int
  | Store of int
  | Gload of int
  | Gstore of int
  | Aload of int
  | Astore of int
  | Alu of alu
  | Unop of unop
  | Jump of int
  | Jumpz of int
  | Call of int * int
  | Calli of int
  | Funref of int
  | Enter of int
  | Mcount
  | Pcount of int
  | Ret
  | Pop
  | Syscall of syscall
  | Halt

let cost = function
  | Nop -> 1
  | Const _ -> 1
  | Load _ | Store _ -> 1
  | Gload _ | Gstore _ -> 2
  | Aload _ | Astore _ -> 3
  | Alu (Add | Sub | Lt | Le | Gt | Ge | Eq | Ne) -> 1
  | Alu Mul -> 4
  | Alu (Div | Mod) -> 8
  | Unop _ -> 1
  | Jump _ -> 1
  | Jumpz _ -> 2
  (* The call path is deliberately heavy, like the VAX 'calls'
     instruction the paper's machines used: procedure call overhead
     dwarfed a couple of ALU operations. This ratio is what puts the
     monitoring routine's cost in the paper's 5-30% band. *)
  | Call _ -> 16
  | Calli _ -> 18
  | Funref _ -> 1
  | Enter _ -> 4
  | Mcount -> 1 (* decode only; the monitor adds its dynamic cost *)
  | Pcount _ -> 3
  | Ret -> 10
  | Pop -> 1
  | Syscall Sys_rand -> 12
  | Syscall Sys_cycles -> 4
  | Syscall (Sys_print | Sys_putc) -> 40
  | Halt -> 1

let pops_pushes = function
  | Nop | Enter _ | Mcount | Pcount _ | Jump _ | Halt -> (0, 0)
  | Const _ | Load _ | Gload _ | Funref _ | Syscall Sys_cycles -> (0, 1)
  | Store _ | Gstore _ | Jumpz _ | Pop | Ret -> (1, 0)
  | Aload _ | Unop _ | Syscall (Sys_print | Sys_putc | Sys_rand) -> (1, 1)
  | Astore _ -> (2, 0)
  | Alu _ -> (2, 1)
  | Call (_, n) -> (n, 1)
  | Calli n -> (n + 1, 1)

(* Coarse dispatch groups for the VM's execution-mix breakdown. *)
let n_groups = 12

let group = function
  | Nop -> 0
  | Const _ -> 1
  | Load _ | Store _ -> 2
  | Gload _ | Gstore _ -> 3
  | Aload _ | Astore _ -> 4
  | Alu _ | Unop _ -> 5
  | Jump _ | Jumpz _ -> 6
  | Call _ | Calli _ | Funref _ -> 7
  | Enter _ | Ret | Pop -> 8
  | Mcount | Pcount _ -> 9
  | Syscall _ -> 10
  | Halt -> 11

let group_names =
  [|
    "nop"; "const"; "local"; "global"; "array"; "alu"; "branch"; "call"; "frame";
    "instrument"; "syscall"; "halt";
  |]

let group_name g =
  if g < 0 || g >= n_groups then invalid_arg "Instr.group_name" else group_names.(g)

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Mod -> "mod"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Eq -> "eq"
  | Ne -> "ne"

let alu_of_name = function
  | "add" -> Some Add
  | "sub" -> Some Sub
  | "mul" -> Some Mul
  | "div" -> Some Div
  | "mod" -> Some Mod
  | "lt" -> Some Lt
  | "le" -> Some Le
  | "gt" -> Some Gt
  | "ge" -> Some Ge
  | "eq" -> Some Eq
  | "ne" -> Some Ne
  | _ -> None

let syscall_name = function
  | Sys_print -> "print"
  | Sys_putc -> "putc"
  | Sys_rand -> "rand"
  | Sys_cycles -> "cycles"

let syscall_of_name = function
  | "print" -> Some Sys_print
  | "putc" -> Some Sys_putc
  | "rand" -> Some Sys_rand
  | "cycles" -> Some Sys_cycles
  | _ -> None

let to_string = function
  | Nop -> "nop"
  | Const n -> Printf.sprintf "const %d" n
  | Load n -> Printf.sprintf "load %d" n
  | Store n -> Printf.sprintf "store %d" n
  | Gload n -> Printf.sprintf "gload %d" n
  | Gstore n -> Printf.sprintf "gstore %d" n
  | Aload n -> Printf.sprintf "aload %d" n
  | Astore n -> Printf.sprintf "astore %d" n
  | Alu op -> alu_name op
  | Unop Neg -> "neg"
  | Unop Not -> "not"
  | Jump n -> Printf.sprintf "jump %d" n
  | Jumpz n -> Printf.sprintf "jumpz %d" n
  | Call (a, n) -> Printf.sprintf "call %d %d" a n
  | Calli n -> Printf.sprintf "calli %d" n
  | Funref a -> Printf.sprintf "funref %d" a
  | Enter n -> Printf.sprintf "enter %d" n
  | Mcount -> "mcount"
  | Pcount n -> Printf.sprintf "pcount %d" n
  | Ret -> "ret"
  | Pop -> "pop"
  | Syscall s -> Printf.sprintf "syscall %s" (syscall_name s)
  | Halt -> "halt"

let of_string s =
  let words =
    String.split_on_char ' ' (String.trim s) |> List.filter (fun w -> w <> "")
  in
  let int_arg mk = function
    | [ a ] -> (
      match int_of_string_opt a with
      | Some n -> Ok (mk n)
      | None -> Error (Printf.sprintf "bad integer operand %S" a))
    | args -> Error (Printf.sprintf "expected 1 operand, got %d" (List.length args))
  in
  match words with
  | [] -> Error "empty instruction"
  | op :: args -> (
    match (op, args) with
    | "nop", [] -> Ok Nop
    | "const", _ -> int_arg (fun n -> Const n) args
    | "load", _ -> int_arg (fun n -> Load n) args
    | "store", _ -> int_arg (fun n -> Store n) args
    | "gload", _ -> int_arg (fun n -> Gload n) args
    | "gstore", _ -> int_arg (fun n -> Gstore n) args
    | "aload", _ -> int_arg (fun n -> Aload n) args
    | "astore", _ -> int_arg (fun n -> Astore n) args
    | "neg", [] -> Ok (Unop Neg)
    | "not", [] -> Ok (Unop Not)
    | "jump", _ -> int_arg (fun n -> Jump n) args
    | "jumpz", _ -> int_arg (fun n -> Jumpz n) args
    | "call", [ a; n ] -> (
      match (int_of_string_opt a, int_of_string_opt n) with
      | Some a, Some n -> Ok (Call (a, n))
      | _ -> Error "bad call operands")
    | "calli", _ -> int_arg (fun n -> Calli n) args
    | "funref", _ -> int_arg (fun n -> Funref n) args
    | "enter", _ -> int_arg (fun n -> Enter n) args
    | "mcount", [] -> Ok Mcount
    | "pcount", _ -> int_arg (fun n -> Pcount n) args
    | "ret", [] -> Ok Ret
    | "pop", [] -> Ok Pop
    | "syscall", [ name ] -> (
      match syscall_of_name name with
      | Some sc -> Ok (Syscall sc)
      | None -> Error (Printf.sprintf "unknown syscall %S" name))
    | "halt", [] -> Ok Halt
    | _ -> (
      match (alu_of_name op, args) with
      | Some a, [] -> Ok (Alu a)
      | Some _, _ -> Error (Printf.sprintf "%s takes no operands" op)
      | None, _ -> Error (Printf.sprintf "unknown instruction %S" op)))

let equal (a : t) (b : t) = a = b
