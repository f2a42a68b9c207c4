(* The assembler as it was before labels were resolved per function: a
   verbatim copy but for the type equations, kept only as the reference
   the assembler parity property (test_fuzz.ml) runs beside
   Objcode.Asm. Its types are Objcode.Asm's, so one aprog feeds both. *)

module Instr = Objcode.Instr
module Objfile = Objcode.Objfile

type ains = Objcode.Asm.ains =
  | ANop
  | AConst of int
  | ALoad of int
  | AStore of int
  | AGload of string
  | AGstore of string
  | AAload of string
  | AAstore of string
  | AAlu of Instr.alu
  | AUnop of Instr.unop
  | AJump of string
  | AJumpz of string
  | ACall of string * int
  | ACalli of int
  | AFunref of string
  | AEnter of int
  | AMcount
  | APcount
  | ARet
  | APop
  | ASyscall of Instr.syscall
  | AHalt

type item = Objcode.Asm.item = Label of string | Ins of ains | SrcLine of int

type afun = Objcode.Asm.afun = { name : string; items : item list; profiled : bool }

type aprog = Objcode.Asm.aprog = {
  a_globals : (string * int) list;
  a_arrays : (string * int) list;
  a_funs : afun list;
  a_entry : string;
  a_source : string;
}

exception Fail of string

let fail fmt = Format.kasprintf (fun s -> raise (Fail s)) fmt

let index_names what names =
  let tbl = Hashtbl.create 16 in
  List.iteri
    (fun i name ->
      if Hashtbl.mem tbl name then fail "duplicate %s %s" what name;
      Hashtbl.replace tbl name i)
    names;
  tbl

let assemble p =
  try
    let globals = index_names "global" (List.map fst p.a_globals) in
    let arrays = index_names "array" (List.map fst p.a_arrays) in
    List.iter
      (fun (name, len) -> if len <= 0 then fail "array %s has length %d" name len)
      p.a_arrays;
    (* Pass 1: lay out functions, record entry addresses and local
       label addresses. *)
    let fun_ids = index_names "function" (List.map (fun f -> f.name) p.a_funs) in
    let fun_addr = Hashtbl.create 16 in
    let label_addr = Hashtbl.create 64 in
    let lines = ref [] in
    (* reversed (addr, line); consecutive same-line and same-address
       markers are collapsed *)
    let note_line pc line =
      match !lines with
      | (prev_pc, _) :: rest when prev_pc = pc -> lines := (pc, line) :: rest
      | (_, prev_line) :: _ when prev_line = line -> ()
      | _ -> lines := (pc, line) :: !lines
    in
    let next = ref 0 in
    List.iter
      (fun f ->
        let n_ins =
          List.fold_left
            (fun n item ->
              match item with Ins _ -> n + 1 | Label _ | SrcLine _ -> n)
            0 f.items
        in
        if n_ins = 0 then fail "function %s has an empty body" f.name;
        Hashtbl.replace fun_addr f.name !next;
        let pc = ref !next in
        List.iter
          (function
            | Label l ->
              let key = (f.name, l) in
              if Hashtbl.mem label_addr key then
                fail "duplicate label %s in %s" l f.name;
              Hashtbl.replace label_addr key !pc
            | SrcLine line ->
              if line < 0 then fail "negative source line in %s" f.name;
              note_line !pc line
            | Ins _ -> incr pc)
          f.items;
        next := !pc)
      p.a_funs;
    let text_len = !next in
    (* Pass 2: resolve. *)
    let text = Array.make (max text_len 1) Instr.Nop in
    let resolve_fun name =
      match Hashtbl.find_opt fun_addr name with
      | Some a -> a
      | None -> fail "unknown function %s" name
    in
    let resolve_data what tbl name =
      match Hashtbl.find_opt tbl name with
      | Some i -> i
      | None -> fail "unknown %s %s" what name
    in
    List.iter
      (fun f ->
        let fid = Hashtbl.find fun_ids f.name in
        let resolve_label l =
          match Hashtbl.find_opt label_addr (f.name, l) with
          | Some a -> a
          | None -> fail "unknown label %s in %s" l f.name
        in
        let pc = ref (Hashtbl.find fun_addr f.name) in
        List.iter
          (function
            | Label _ | SrcLine _ -> ()
            | Ins ins ->
              let resolved : Instr.t =
                match ins with
                | ANop -> Nop
                | AConst n -> Const n
                | ALoad n -> Load n
                | AStore n -> Store n
                | AGload g -> Gload (resolve_data "global" globals g)
                | AGstore g -> Gstore (resolve_data "global" globals g)
                | AAload a -> Aload (resolve_data "array" arrays a)
                | AAstore a -> Astore (resolve_data "array" arrays a)
                | AAlu op -> Alu op
                | AUnop op -> Unop op
                | AJump l -> Jump (resolve_label l)
                | AJumpz l -> Jumpz (resolve_label l)
                | ACall (fn, n) -> Call (resolve_fun fn, n)
                | ACalli n -> Calli n
                | AFunref fn -> Funref (resolve_fun fn)
                | AEnter n -> Enter n
                | AMcount -> Mcount
                | APcount -> Pcount fid
                | ARet -> Ret
                | APop -> Pop
                | ASyscall s -> Syscall s
                | AHalt -> Halt
              in
              text.(!pc) <- resolved;
              incr pc)
          f.items)
      p.a_funs;
    let symbols =
      List.map
        (fun f ->
          let addr = Hashtbl.find fun_addr f.name in
          let size =
            List.fold_left
              (fun n item ->
                match item with Ins _ -> n + 1 | Label _ | SrcLine _ -> n)
              0 f.items
          in
          { Objfile.name = f.name; addr; size; profiled = f.profiled })
        p.a_funs
      |> List.sort (fun a b -> compare a.Objfile.addr b.Objfile.addr)
      |> Array.of_list
    in
    let entry =
      match Hashtbl.find_opt fun_addr p.a_entry with
      | Some a -> a
      | None -> fail "entry function %s not defined" p.a_entry
    in
    let o =
      {
        Objfile.text;
        symbols;
        entry;
        globals = Array.of_list (List.map fst p.a_globals);
        global_init = Array.of_list (List.map snd p.a_globals);
        arrays = Array.of_list p.a_arrays;
        lines = Array.of_list (List.rev !lines);
        source_name = p.a_source;
      }
    in
    (match Objfile.validate o with
    | Ok () -> ()
    | Error errs -> fail "assembled object invalid: %s" (String.concat "; " errs));
    Ok o
  with Fail msg -> Error msg
