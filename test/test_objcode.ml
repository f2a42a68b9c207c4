(* Tests for the object-code layer: instruction serialization and
   costs, object files, the assembler, the disassembler, and the
   static call-graph scanner. *)

open Objcode

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let all_instrs : Instr.t list =
  [
    Nop; Const 7; Const (-3); Load 0; Store 2; Gload 1; Gstore 0; Aload 0;
    Astore 1; Alu Add; Alu Sub; Alu Mul; Alu Div; Alu Mod; Alu Lt; Alu Le;
    Alu Gt; Alu Ge; Alu Eq; Alu Ne; Unop Neg; Unop Not; Jump 5; Jumpz 9;
    Call (0, 2); Calli 1; Funref 0; Enter 3; Mcount; Pcount 0; Ret; Pop;
    Syscall Sys_print; Syscall Sys_putc; Syscall Sys_rand; Syscall Sys_cycles;
    Halt;
  ]

(* ------------------------------------------------------------------ *)
(* Instr *)

let test_instr_roundtrip () =
  List.iter
    (fun i ->
      match Instr.of_string (Instr.to_string i) with
      | Ok i2 -> check_bool (Instr.to_string i) true (Instr.equal i i2)
      | Error e -> Alcotest.failf "%s: %s" (Instr.to_string i) e)
    all_instrs

let test_instr_parse_errors () =
  List.iter
    (fun s ->
      match Instr.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" s)
    [ ""; "frobnicate"; "const"; "const x"; "call 1"; "call a b"; "syscall nope";
      "add 3"; "mcount 1" ]

let test_instr_costs () =
  check_bool "mul slower than add" true Instr.(cost (Alu Mul) > cost (Alu Add));
  check_bool "div slower than mul" true Instr.(cost (Alu Div) > cost (Alu Mul));
  check_bool "call slower than jump" true Instr.(cost (Call (0, 0)) > cost (Jump 0));
  check_bool "calli slower than call" true
    Instr.(cost (Calli 0) > cost (Call (0, 0)));
  check_bool "syscall print is heavy" true
    Instr.(cost (Syscall Sys_print) > cost Ret);
  List.iter (fun i -> check_bool "positive cost" true (Instr.cost i > 0)) all_instrs

(* ------------------------------------------------------------------ *)
(* A small assembled fixture: two functions, one call, one funref. *)

let fixture () =
  let open Asm in
  let aprog =
    {
      a_globals = [ ("g", 5) ];
      a_arrays = [ ("t", 8) ];
      a_funs =
        [
          {
            name = "leaf";
            profiled = true;
            items =
              [ Ins AMcount; Ins (AEnter 0); Ins (ALoad 0); Ins (AConst 2);
                Ins (AAlu Instr.Mul); Ins ARet ];
          };
          {
            name = "main";
            profiled = true;
            items =
              [
                Ins AMcount;
                Ins (AEnter 1);
                Ins (AConst 0);
                Ins (AStore 0);
                Label "loop";
                Ins (ALoad 0);
                Ins (AConst 10);
                Ins (AAlu Instr.Lt);
                Ins (AJumpz "done");
                Ins (ALoad 0);
                Ins (ACall ("leaf", 1));
                Ins (AGstore "g");
                Ins (ALoad 0);
                Ins (AConst 1);
                Ins (AAlu Instr.Add);
                Ins (AStore 0);
                Ins (AJump "loop");
                Label "done";
                Ins (AFunref "leaf");
                Ins APop;
                Ins (AGload "g");
                Ins ARet;
              ];
          };
        ];
      a_entry = "main";
      a_source = "fixture";
    }
  in
  match Asm.assemble aprog with
  | Ok o -> o
  | Error e -> Alcotest.failf "fixture did not assemble: %s" e

(* ------------------------------------------------------------------ *)
(* Objfile *)

let test_objfile_symbols () =
  let o = fixture () in
  check_int "two symbols" 2 (Array.length o.symbols);
  let leaf = Option.get (Objfile.symbol_by_name o "leaf") in
  check_int "leaf at 0" 0 leaf.addr;
  check_int "leaf size" 6 leaf.size;
  let main = Option.get (Objfile.symbol_by_name o "main") in
  check_int "main after leaf" 6 main.addr;
  check_int "entry is main" main.addr o.entry;
  check_bool "find inside leaf" true
    ((Option.get (Objfile.find_symbol o 3)).name = "leaf");
  check_bool "find inside main" true
    ((Option.get (Objfile.find_symbol o 10)).name = "main");
  Alcotest.(check (option int)) "entry id" (Some 1) (Objfile.func_id_of_addr o 6);
  Alcotest.(check (option int)) "mid-function is not an entry" None
    (Objfile.func_id_of_addr o 7);
  check_bool "outside text" true (Objfile.find_symbol o 999 = None)

let test_objfile_roundtrip () =
  let o = fixture () in
  match Objfile.of_string (Objfile.to_string o) with
  | Ok o2 -> check_bool "roundtrip" true (Objfile.equal o o2)
  | Error e -> Alcotest.fail e

let test_objfile_save_load () =
  let o = fixture () in
  let path = Filename.temp_file "objtest" ".obj" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Objfile.save o path;
      match Objfile.load path with
      | Ok o2 -> check_bool "file roundtrip" true (Objfile.equal o o2)
      | Error e -> Alcotest.fail e)

let test_objfile_parse_errors () =
  List.iter
    (fun s ->
      match Objfile.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected objfile parse error for %S" s)
    [
      "";
      "NOTMAGIC";
      "MINIOBJ 1\nbogus line\ntext 0";
      "MINIOBJ 1\ntext 2\nnop";
      "MINIOBJ 1\ntext 1\nfrobnicate";
      "MINIOBJ 1\nglobal 1 g 0\ntext 0";
    ]

let test_objfile_validate () =
  let o = fixture () in
  (match Objfile.validate o with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es));
  (* Break it in assorted ways. *)
  let bad_jump = { o with text = Array.copy o.text } in
  bad_jump.text.(8) <- Instr.Jump 0;
  (* into the other function *)
  (match Objfile.validate bad_jump with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "cross-function jump accepted");
  let bad_call = { o with text = Array.copy o.text } in
  bad_call.text.(10) <- Instr.Call (3, 1);
  (match Objfile.validate bad_call with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "call to non-entry accepted");
  let bad_entry = { o with entry = 3 } in
  (match Objfile.validate bad_entry with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "mid-function entry accepted");
  let bad_global = { o with text = Array.copy o.text } in
  bad_global.text.(2) <- Instr.Gload 7;
  (match Objfile.validate bad_global with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "global out of range accepted");
  let overlapping =
    { o with
      symbols =
        [| { Objfile.name = "a"; addr = 0; size = 10; profiled = false };
           { Objfile.name = "b"; addr = 5; size = 10; profiled = false } |];
      entry = 0 }
  in
  match Objfile.validate overlapping with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "overlapping symbols accepted"

(* ------------------------------------------------------------------ *)
(* Verify *)

(* Functions laid out back to back; the first is the entry. *)
let image ?(arrays = [||]) funs =
  let addr = ref 0 in
  let symbols =
    List.map
      (fun (name, body) ->
        let s =
          { Objfile.name; addr = !addr; size = Array.length body; profiled = false }
        in
        addr := !addr + Array.length body;
        s)
      funs
  in
  {
    Objfile.text = Array.concat (List.map snd funs);
    symbols = Array.of_list symbols;
    entry = 0;
    globals = [||];
    global_init = [||];
    arrays;
    lines = [||];
    source_name = "verify";
  }

let test_verify_accepts () =
  (match Verify.check (fixture ()) with
  | Ok _ -> ()
  | Error es -> Alcotest.fail (String.concat "; " es));
  (* [callee] is reached only through calli and reads slot 2: frames
     need three arguments to skip the run-time slot check *)
  let o =
    image
      [
        ("main", [| Const 1; Const 2; Call (6, 2); Funref 10; Calli 0; Ret |]);
        ("add", [| Load 0; Load 1; Alu Add; Ret |]);
        ("callee", [| Load 2; Ret |]);
      ]
  in
  match Verify.check o with
  | Error es -> Alcotest.fail (String.concat "; " es)
  | Ok v ->
    check_int "deepest operand stack" 2 v.max_stack;
    Alcotest.(check (array int)) "arguments each body needs" [| 0; 2; 3 |] v.min_args

let test_verify_refuses () =
  List.iter
    (fun (what, funs, expected) ->
      match Verify.check (image funs) with
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error es -> Alcotest.(check (list string)) what [ expected ] es)
    [
      ( "underflow", [ ("main", [| Const 1; Alu Add; Ret |]) ],
        "main+1 (pc 1): operand stack underflow" );
      ( "ret with nothing", [ ("main", [| Nop; Ret |]) ],
        "main+1 (pc 1): return with no value on the operand stack" );
      ( "falling off the end", [ ("main", [| Const 0; Ret |]); ("f", [| Const 1 |]) ],
        "f+0 (pc 2): control falls through the end of the function" );
      ( "heights disagree at a join",
        [ ("main", [| Const 1; Jumpz 3; Const 5; Const 0; Ret |]) ],
        "main+3 (pc 3): paths join with operand stack heights 0 and 1, enter \
         totals 0 and 0" );
      ( "enter inside a loop", [ ("main", [| Enter 1; Jump 0 |]) ],
        "main+0 (pc 0): paths join with operand stack heights 0 and 0, enter \
         totals 0 and 1" );
      ( "slot past a direct call's arity",
        [ ("main", [| Const 1; Call (3, 1); Ret |]); ("f", [| Load 1; Ret |]) ],
        "f+0 (pc 3): local slot 1 out of range (1 locals)" );
      ( "slot past main's locals", [ ("main", [| Enter 1; Load 1; Ret |]) ],
        "main+1 (pc 1): local slot 1 out of range (1 locals)" );
    ];
  (* validation runs first, and its per-instruction errors are located
     the same way *)
  match Verify.check (image [ ("main", [| Const 0; Call (0, -1); Ret |]) ]) with
  | Error es ->
    Alcotest.(check (list string)) "negative arity"
      [ "main+1 (pc 1): call arity -1 outside [0, 65535]" ] es
  | Ok _ -> Alcotest.fail "negative arity accepted"

let test_validate_operand_ranges () =
  let bad what o =
    match Objfile.validate o with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s accepted" what
  in
  let main body = image [ ("main", body) ] in
  bad "negative array length" (image ~arrays:[| ("t", -1) |] [ ("main", [| Halt |]) ]);
  bad "negative calli arity" (main [| Calli (-1); Ret |]);
  bad "huge enter" (main [| Enter 100_000_000_000_000; Halt |]);
  bad "negative enter" (main [| Enter (-1); Halt |]);
  bad "negative slot" (main [| Load (-1); Ret |]);
  match Objfile.validate (main [| Enter Objfile.max_locals; Halt |]) with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

(* ------------------------------------------------------------------ *)
(* Asm errors *)

let asm_base =
  {
    Asm.a_globals = [];
    a_arrays = [];
    a_funs =
      [ { Asm.name = "main"; profiled = false; items = [ Asm.Ins Asm.AHalt ] } ];
    a_entry = "main";
    a_source = "t";
  }

let expect_asm_error prog fragment =
  match Asm.assemble prog with
  | Error e ->
    check_bool
      (Printf.sprintf "error %S contains %S" e fragment)
      true
      (let n = String.length fragment and h = String.length e in
       let rec go i = i + n <= h && (String.sub e i n = fragment || go (i + 1)) in
       go 0)
  | Ok _ -> Alcotest.fail "expected assembly error"

let test_asm_errors () =
  expect_asm_error { asm_base with a_entry = "nope" } "entry function nope";
  expect_asm_error
    { asm_base with
      a_funs = asm_base.a_funs @ [ { Asm.name = "main"; profiled = false; items = [ Asm.Ins Asm.AHalt ] } ] }
    "duplicate function";
  expect_asm_error
    { asm_base with
      a_funs = [ { Asm.name = "main"; profiled = false; items = [] } ] }
    "empty body";
  expect_asm_error
    { asm_base with
      a_funs =
        [ { Asm.name = "main"; profiled = false;
            items = [ Asm.Ins (Asm.AJump "nowhere") ] } ] }
    "unknown label";
  expect_asm_error
    { asm_base with
      a_funs =
        [ { Asm.name = "main"; profiled = false;
            items = [ Asm.Ins (Asm.ACall ("ghost", 0)) ] } ] }
    "unknown function ghost";
  expect_asm_error
    { asm_base with
      a_funs =
        [ { Asm.name = "main"; profiled = false;
            items = [ Asm.Ins (Asm.AGload "g") ] } ] }
    "unknown global g";
  expect_asm_error
    { asm_base with a_globals = [ ("g", 0); ("g", 1) ] }
    "duplicate global g";
  expect_asm_error
    { asm_base with a_arrays = [ ("t", 0) ] }
    "length";
  expect_asm_error
    { asm_base with
      a_funs =
        [ { Asm.name = "main"; profiled = false;
            items = [ Asm.Label "l"; Asm.Label "l"; Asm.Ins Asm.AHalt ] } ] }
    "duplicate label"

(* ------------------------------------------------------------------ *)
(* Disasm *)

let test_disasm () =
  let o = fixture () in
  let listing = Disasm.program_listing o in
  let contains needle =
    let n = String.length needle and h = String.length listing in
    let rec go i = i + n <= h && (String.sub listing i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "has leaf header" true (contains "leaf:");
  check_bool "annotates call" true (contains "; leaf");
  check_bool "annotates global" true (contains "; g");
  check_bool "profiled flag" true (contains "[profiled]");
  Alcotest.check_raises "pc out of range"
    (Invalid_argument "Disasm.instruction: pc out of range") (fun () ->
      ignore (Disasm.instruction o 999))

(* ------------------------------------------------------------------ *)
(* Scan *)

let test_scan_sites () =
  let o = fixture () in
  (* main is symbol 1, leaf is symbol 0 *)
  Alcotest.(check (list (pair int int)))
    "static arcs" [ (1, 0) ] (Scan.static_arcs o);
  Alcotest.(check (list string)) "funref targets" [ "leaf" ]
    (Scan.referenced_functions o)

let test_scan_dedup () =
  (* Two call sites to the same callee produce one static arc. *)
  let aprog =
    {
      Asm.a_globals = [];
      a_arrays = [];
      a_funs =
        [
          { Asm.name = "f"; profiled = false;
            items = [ Asm.Ins (Asm.AConst 0); Asm.Ins Asm.ARet ] };
          { Asm.name = "main"; profiled = false;
            items =
              [ Asm.Ins (Asm.ACall ("f", 0)); Asm.Ins Asm.APop;
                Asm.Ins (Asm.ACall ("f", 0)); Asm.Ins Asm.ARet ] };
        ];
      a_entry = "main";
      a_source = "t";
    }
  in
  match Asm.assemble aprog with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.(check (list (pair int int)))
      "one arc" [ (1, 0) ] (Scan.static_arcs o)

let () =
  Alcotest.run "objcode"
    [
      ( "instr",
        [
          Alcotest.test_case "roundtrip" `Quick test_instr_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_instr_parse_errors;
          Alcotest.test_case "cost model shape" `Quick test_instr_costs;
        ] );
      ( "objfile",
        [
          Alcotest.test_case "symbols" `Quick test_objfile_symbols;
          Alcotest.test_case "string roundtrip" `Quick test_objfile_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_objfile_save_load;
          Alcotest.test_case "parse errors" `Quick test_objfile_parse_errors;
          Alcotest.test_case "validate" `Quick test_objfile_validate;
        ] );
      ( "verify",
        [
          Alcotest.test_case "accepts" `Quick test_verify_accepts;
          Alcotest.test_case "refuses" `Quick test_verify_refuses;
          Alcotest.test_case "operand ranges" `Quick test_validate_operand_ranges;
        ] );
      ("asm", [ Alcotest.test_case "errors" `Quick test_asm_errors ]);
      ("disasm", [ Alcotest.test_case "listing" `Quick test_disasm ]);
      ( "scan",
        [
          Alcotest.test_case "call sites" `Quick test_scan_sites;
          Alcotest.test_case "dedup" `Quick test_scan_dedup;
        ] );
    ]
