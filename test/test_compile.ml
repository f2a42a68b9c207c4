(* Tests for the compiler: instrumentation placement and full language
   semantics, verified by executing compiled programs on the VM. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let compile ?(options = Compile.Codegen.default_options) src =
  match Compile.Codegen.compile_source ~options src with
  | Ok o -> o
  | Error e -> Alcotest.failf "compile error: %s" e

let run_src ?options src =
  let o = compile ?options src in
  let m = Vm.Machine.create o in
  match Vm.Machine.run m with
  | Vm.Machine.Halted -> (m, Option.get (Vm.Machine.result m))
  | Vm.Machine.Faulted f -> Alcotest.failf "fault: %a" Vm.Machine.pp_fault f
  | Vm.Machine.Running -> Alcotest.fail "did not halt"

let result_of src = snd (run_src src)

let output_of src = Vm.Machine.output (fst (run_src src))

(* ------------------------------------------------------------------ *)
(* Instrumentation placement *)

let test_prologue_profile () =
  let o =
    compile ~options:Compile.Codegen.profiling_options
      "fun f() { return 1; } fun main() { return f(); }"
  in
  Array.iter
    (fun (s : Objcode.Objfile.symbol) ->
      check_bool (s.name ^ " profiled") true s.profiled;
      check_bool (s.name ^ " starts with mcount") true
        (o.Objcode.Objfile.text.(s.addr) = Objcode.Instr.Mcount))
    o.Objcode.Objfile.symbols

let test_prologue_count () =
  let options = { Compile.Codegen.default_options with count = true } in
  let o = compile ~options "fun main() { return 0; }" in
  let main = Option.get (Objcode.Objfile.symbol_by_name o "main") in
  (match o.Objcode.Objfile.text.(main.addr) with
  | Objcode.Instr.Pcount _ -> ()
  | i -> Alcotest.failf "expected pcount, got %s" (Objcode.Instr.to_string i));
  check_bool "count-only is not 'profiled'" true (not main.profiled)

let test_prologue_none () =
  let o = compile "fun main() { return 0; }" in
  check_bool "no mcount anywhere" true
    (Array.for_all (fun i -> i <> Objcode.Instr.Mcount) o.Objcode.Objfile.text)

let test_selective_instrumentation () =
  let options =
    {
      Compile.Codegen.profiling_options with
      profiled = (fun name -> name <> "fast");
    }
  in
  let o =
    compile ~options
      "fun fast() { return 1; } fun main() { return fast(); }"
  in
  let fast = Option.get (Objcode.Objfile.symbol_by_name o "fast") in
  let main = Option.get (Objcode.Objfile.symbol_by_name o "main") in
  check_bool "fast not profiled" true (not fast.profiled);
  check_bool "main profiled" true main.profiled;
  check_bool "fast has no mcount" true
    (o.Objcode.Objfile.text.(fast.addr) <> Objcode.Instr.Mcount)

let test_compile_errors () =
  List.iter
    (fun src ->
      match Compile.Codegen.compile_source src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected compile error for %S" src)
    [
      "fun f() { return 0; }" (* no main *);
      "fun main(x) { return x; }";
      "fun main() { return nope; }";
      "fun main() { return f(; }" (* parse error *);
    ]

(* Every program the repository ships, in every build it is made in,
   passes the VM's load-time verification. *)
let test_validated_output () =
  let fixtures =
    List.map
      (fun f ->
        let p = Filename.concat "fixtures" f in
        (p, In_channel.with_open_text p In_channel.input_all))
      [ "smoke.mini"; "smoke_slow.mini"; "smoke_mismatched.mini"; "pgo_matrix.mini" ]
  in
  let builds =
    Compile.Codegen.
      [
        default_options; profiling_options; { default_options with count = true };
        { profiling_options with fold = true };
      ]
  in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun options ->
          match Compile.Codegen.compile_source ~options src with
          | Error e -> Alcotest.failf "%s: %s" name e
          | Ok o -> (
            match Objcode.Verify.check o with
            | Ok _ -> ()
            | Error es -> Alcotest.failf "%s: %s" name (String.concat "; " es)))
        builds)
    (List.map (fun (w : Workloads.Programs.t) -> (w.w_name, w.w_source))
       Workloads.Programs.all
    @ fixtures)

(* ------------------------------------------------------------------ *)
(* Semantics, executed *)

let test_arith () =
  check_int "add" 7 (result_of "fun main() { return 3 + 4; }");
  check_int "mul/add precedence" 14 (result_of "fun main() { return 2 + 3 * 4; }");
  check_int "sub assoc" (-4) (result_of "fun main() { return 1 - 2 - 3; }");
  check_int "div" 3 (result_of "fun main() { return 10 / 3; }");
  check_int "mod" 1 (result_of "fun main() { return 10 % 3; }");
  check_int "neg" (-5) (result_of "fun main() { var x = 5; return -x; }");
  check_int "parens" 20 (result_of "fun main() { return (2 + 3) * 4; }")

let test_comparisons () =
  check_int "lt true" 1 (result_of "fun main() { return 1 < 2; }");
  check_int "lt false" 0 (result_of "fun main() { return 2 < 1; }");
  check_int "le" 1 (result_of "fun main() { return 2 <= 2; }");
  check_int "gt" 0 (result_of "fun main() { return 2 > 2; }");
  check_int "ge" 1 (result_of "fun main() { return 3 >= 2; }");
  check_int "eq" 1 (result_of "fun main() { return 5 == 5; }");
  check_int "ne" 1 (result_of "fun main() { return 5 != 4; }")

let test_logic_short_circuit () =
  (* The right operand of && must not run when the left is false: a
     division by zero there would fault. *)
  check_int "and skips rhs" 0 (result_of "fun main() { return 0 && 1 / 0; }");
  check_int "or skips rhs" 1 (result_of "fun main() { return 1 || 1 / 0; }");
  check_int "and truthy normalizes" 1 (result_of "fun main() { return 2 && 3; }");
  check_int "or rhs normalizes" 1 (result_of "fun main() { return 0 || 7; }");
  check_int "not" 0 (result_of "fun main() { return !3; }");
  check_int "not zero" 1 (result_of "fun main() { return !0; }")

let test_control_flow () =
  check_int "if then" 1
    (result_of "fun main() { if (1 < 2) { return 1; } return 2; }");
  check_int "if else" 2
    (result_of "fun main() { if (2 < 1) { return 1; } else { return 2; } }");
  check_int "else if" 3
    (result_of
       "fun main() { var x = 7; if (x < 5) { return 1; } else if (x < 6) { return 2; } else { return 3; } }");
  check_int "while" 45
    (result_of
       "fun main() { var s = 0; var i = 0; while (i < 10) { s = s + i; i = i + 1; } return s; }");
  check_int "for" 45
    (result_of
       "fun main() { var s = 0; var i; for (i = 0; i < 10; i = i + 1) { s = s + i; } return s; }");
  check_int "for with decl init" 10
    (result_of
       "fun main() { var s = 0; for (var j = 0; j < 5; j = j + 1) { s = s + 2; } return s; }")

let test_break_continue () =
  check_int "break leaves while" 5
    (result_of
       "fun main() { var i = 0; while (1) { if (i == 5) { break; } i = i + 1; } return i; }");
  check_int "continue skips rest" 25
    (result_of
       "fun main() { var s = 0; var i; for (i = 0; i < 10; i = i + 1) { if (i % 2 == 0) { continue; } s = s + i; } return s; }");
  check_int "continue in for still steps" 10
    (result_of
       "fun main() { var n = 0; var i; for (i = 0; i < 10; i = i + 1) { continue; n = n + 1; } return i; }");
  check_int "break binds to the innermost loop" 30
    (result_of
       "fun main() { var s = 0; var i; var j; \
        for (i = 0; i < 10; i = i + 1) { \
          for (j = 0; j < 10; j = j + 1) { if (j == 3) { break; } s = s + 1; } \
        } return s; }");
  check_int "break in while-in-for" 6
    (result_of
       "fun main() { var s = 0; var i; \
        for (i = 0; i < 3; i = i + 1) { \
          var k = 0; \
          while (1) { k = k + 1; if (k > 1) { break; } } \
          s = s + k; \
        } return s; }");
  (* outside a loop: compile errors *)
  List.iter
    (fun src ->
      match Compile.Codegen.compile_source src with
      | Error e ->
        check_bool "mentions loop" true
          (let n = "outside of a loop" in
           let nl = String.length n and hl = String.length e in
           let rec go i = i + nl <= hl && (String.sub e i nl = n || go (i + 1)) in
           go 0)
      | Ok _ -> Alcotest.failf "accepted %S" src)
    [
      "fun main() { break; return 0; }";
      "fun main() { continue; return 0; }";
      "fun main() { if (1) { break; } return 0; }";
    ]

let test_globals_arrays () =
  check_int "global init" 42 (result_of "var g = 42; fun main() { return g; }");
  check_int "global default zero" 0 (result_of "var g; fun main() { return g; }");
  check_int "global store" 7
    (result_of "var g; fun main() { g = 7; return g; }");
  check_int "array rw" 15
    (result_of
       "array t[4]; fun main() { t[0] = 5; t[1] = t[0] * 2; return t[0] + t[1]; }");
  check_int "array default zero" 0 (result_of "array t[4]; fun main() { return t[3]; }")

let test_functions () =
  check_int "call" 12
    (result_of "fun double(x) { return x * 2; } fun main() { return double(6); }");
  check_int "args in order" 1
    (result_of "fun sub(a, b) { return a - b; } fun main() { return sub(3, 2); }");
  check_int "recursion" 120
    (result_of
       "fun fact(n) { if (n < 2) { return 1; } return n * fact(n - 1); } fun main() { return fact(5); }");
  check_int "mutual recursion" 1
    (result_of
       "fun even(n) { if (n == 0) { return 1; } return odd(n - 1); } \
        fun odd(n) { if (n == 0) { return 0; } return even(n - 1); } \
        fun main() { return even(10); }");
  check_int "fall-off returns zero" 0
    (result_of "fun f() { var x = 3; x = x + 1; } fun main() { return f(); }");
  check_int "bare return" 0
    (result_of "fun f() { return; } fun main() { return f(); }")

let test_function_values () =
  check_int "via local" 9
    (result_of
       "fun sq(x) { return x * x; } fun main() { var f = sq; return f(3); }");
  check_int "via global" 16
    (result_of
       "var h; fun sq(x) { return x * x; } fun main() { h = sq; return h(4); }");
  check_int "via array" 25
    (result_of
       "array t[2]; fun sq(x) { return x * x; } fun main() { t[1] = sq; return t[1](5); }");
  check_int "as parameter" 49
    (result_of
       "fun sq(x) { return x * x; } fun apply(f, x) { return f(x); } \
        fun main() { return apply(sq, 7); }")

let test_builtins () =
  Alcotest.(check string) "print" "5\n-3\n"
    (output_of "fun main() { print(5); print(-3); return 0; }");
  Alcotest.(check string) "putc" "Hi"
    (output_of "fun main() { putc(72); putc(105); return 0; }");
  check_int "print returns its argument" 5
    (result_of "fun main() { return print(5); }");
  let r1 = result_of "fun main() { return rand(100); }" in
  check_bool "rand in range" true (r1 >= 0 && r1 < 100);
  check_int "rand deterministic" r1 (result_of "fun main() { return rand(100); }");
  check_bool "cycles positive" true (result_of "fun main() { return cycles(); }" > 0)

let test_output_matches_interpretation () =
  (* A denser program whose expected value is computed here in OCaml:
     guards against systematic codegen bias. *)
  let src =
    {|
array t[16];
fun f(a, b) { return a * 3 - b; }
fun main() {
  var i;
  var s = 0;
  for (i = 0; i < 16; i = i + 1) { t[i] = f(i, i / 2); }
  for (i = 15; i >= 0; i = i - 1) {
    if (t[i] % 2 == 0 || i < 4) { s = s + t[i]; } else { s = s - t[i]; }
  }
  return s;
}
|}
  in
  let expected =
    let t = Array.init 16 (fun i -> (i * 3) - (i / 2)) in
    let s = ref 0 in
    for i = 15 downto 0 do
      if t.(i) mod 2 = 0 || i < 4 then s := !s + t.(i) else s := !s - t.(i)
    done;
    !s
  in
  check_int "dense program" expected (result_of src)

let test_deterministic_execution () =
  let w = Workloads.Programs.sort in
  let r1 = Result.get_ok (Workloads.Driver.run w) in
  let r2 = Result.get_ok (Workloads.Driver.run w) in
  check_int "same cycles" (Vm.Machine.cycles r1.machine) (Vm.Machine.cycles r2.machine);
  Alcotest.(check string) "same output"
    (Vm.Machine.output r1.machine) (Vm.Machine.output r2.machine);
  check_bool "same profile" true (Gmon.equal r1.gmon r2.gmon)

let test_profiling_preserves_semantics () =
  (* Instrumentation must not change results or output. *)
  List.iter
    (fun (w : Workloads.Programs.t) ->
      let plain =
        Result.get_ok (Workloads.Driver.run ~options:Compile.Codegen.default_options w)
      in
      let profiled = Result.get_ok (Workloads.Driver.run w) in
      Alcotest.(check string) (w.w_name ^ " output")
        (Vm.Machine.output plain.machine)
        (Vm.Machine.output profiled.machine);
      check_bool (w.w_name ^ " result") true
        (Vm.Machine.result plain.machine = Vm.Machine.result profiled.machine))
    [ Workloads.Programs.quick; Workloads.Programs.sort;
      Workloads.Programs.recursive; Workloads.Programs.indirect ]

let () =
  Alcotest.run "compile"
    [
      ( "instrumentation",
        [
          Alcotest.test_case "mcount prologue" `Quick test_prologue_profile;
          Alcotest.test_case "pcount prologue" `Quick test_prologue_count;
          Alcotest.test_case "uninstrumented" `Quick test_prologue_none;
          Alcotest.test_case "selective" `Quick test_selective_instrumentation;
          Alcotest.test_case "compile errors" `Quick test_compile_errors;
          Alcotest.test_case "workloads validate" `Quick test_validated_output;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "short circuit" `Quick test_logic_short_circuit;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "break/continue" `Quick test_break_continue;
          Alcotest.test_case "globals and arrays" `Quick test_globals_arrays;
          Alcotest.test_case "functions" `Quick test_functions;
          Alcotest.test_case "function values" `Quick test_function_values;
          Alcotest.test_case "builtins" `Quick test_builtins;
          Alcotest.test_case "dense program" `Quick test_output_matches_interpretation;
          Alcotest.test_case "determinism" `Quick test_deterministic_execution;
          Alcotest.test_case "profiling preserves semantics" `Quick
            test_profiling_preserves_semantics;
        ] );
    ]
