(* Tests for the Mini frontend: lexer, parser, pretty-printer
   round-trips, the static checker, and the arity warning that joins
   the source's parameter counts with the compiled indirect calls. *)

open Mini

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Lexer *)

let toks src = List.map fst (Lexer.tokenize src)

let test_lex_basics () =
  Alcotest.(check int) "count"
    8
    (List.length (toks "fun f ( x ) { }"));
  match toks "var x = 42;" with
  | [ Lexer.KW_VAR; Lexer.IDENT "x"; Lexer.ASSIGN; Lexer.INT 42; Lexer.SEMI;
      Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "unexpected tokens"

let test_lex_operators () =
  match toks "<= >= == != && || < > = ! + - * / %" with
  | [ Lexer.LE; Lexer.GE; Lexer.EQ; Lexer.NE; Lexer.AMPAMP; Lexer.BARBAR;
      Lexer.LT; Lexer.GT; Lexer.ASSIGN; Lexer.BANG; Lexer.PLUS; Lexer.MINUS;
      Lexer.STAR; Lexer.SLASH; Lexer.PERCENT; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "operator tokens wrong"

let test_lex_comments () =
  check_int "line comment" 2 (List.length (toks "x // rest is gone\n"));
  check_int "block comment" 3 (List.length (toks "a /* b c d */ e"));
  check_int "comment at eof" 1 (List.length (toks "// nothing"))

let test_lex_positions () =
  let all = Lexer.tokenize "x\n  y" in
  match all with
  | [ (_, l1); (_, l2); (_, _) ] ->
    check_int "x line" 1 l1.Ast.line;
    check_int "x col" 1 l1.Ast.col;
    check_int "y line" 2 l2.Ast.line;
    check_int "y col" 3 l2.Ast.col
  | _ -> Alcotest.fail "token count"

let expect_lex_error src =
  match Lexer.tokenize src with
  | exception Lexer.Error _ -> ()
  | _ -> Alcotest.fail ("expected lex error on " ^ src)

let test_lex_errors () =
  expect_lex_error "@";
  expect_lex_error "a & b";
  expect_lex_error "a | b";
  expect_lex_error "/* unterminated";
  expect_lex_error "123abc";
  expect_lex_error "99999999999999999999999999"

(* ------------------------------------------------------------------ *)
(* Parser *)

let parse_ok src =
  match Parser.parse_program src with
  | p -> p
  | exception Parser.Error (msg, loc) ->
    Alcotest.failf "unexpected parse error %a: %s" Ast.pp_loc loc msg

let expect_parse_error src =
  match Parser.parse_program src with
  | exception Parser.Error _ -> ()
  | _ -> Alcotest.fail ("expected parse error on: " ^ src)

(* the parse error of [src] must be [msg] at [line:col] *)
let expect_parse_error_at src (line, col) msg =
  match Parser.parse_program src with
  | exception Parser.Error (got, loc) ->
    Alcotest.(check (pair (pair int int) string))
      ("error of " ^ src) ((line, col), msg) ((loc.line, loc.col), got)
  | _ -> Alcotest.fail ("expected parse error on: " ^ src)

let test_parse_program_shapes () =
  let p = parse_ok "var g = 3; array t[10]; fun f(a, b) { return a + b; }" in
  check_int "globals" 2 (List.length p.globals);
  check_int "funs" 1 (List.length p.funs);
  (match p.globals with
  | [ Ast.Gvar ("g", 3, _); Ast.Garray ("t", 10, _) ] -> ()
  | _ -> Alcotest.fail "global shapes");
  match p.funs with
  | [ { Ast.fname = "f"; params = [ "a"; "b" ]; body = [ _ ]; _ } ] -> ()
  | _ -> Alcotest.fail "fun shape"

let test_parse_negative_global () =
  match (parse_ok "var g = -7;").globals with
  | [ Ast.Gvar ("g", -7, _) ] -> ()
  | _ -> Alcotest.fail "negative initializer"

let test_parse_precedence () =
  let e = Parser.parse_expr "1 + 2 * 3" in
  (match e.desc with
  | Ast.Binop (Ast.Add, { desc = Ast.Int 1; _ },
               { desc = Ast.Binop (Ast.Mul, _, _); _ }) -> ()
  | _ -> Alcotest.fail "mul binds tighter than add");
  let e = Parser.parse_expr "1 - 2 - 3" in
  (match e.desc with
  | Ast.Binop (Ast.Sub, { desc = Ast.Binop (Ast.Sub, _, _); _ },
               { desc = Ast.Int 3; _ }) -> ()
  | _ -> Alcotest.fail "sub left-associates");
  let e = Parser.parse_expr "a || b && c" in
  (match e.desc with
  | Ast.Binop (Ast.Or, { desc = Ast.Var "a"; _ },
               { desc = Ast.Binop (Ast.And, _, _); _ }) -> ()
  | _ -> Alcotest.fail "and binds tighter than or");
  let e = Parser.parse_expr "1 + 2 < 3 * 4" in
  match e.desc with
  | Ast.Binop (Ast.Lt, { desc = Ast.Binop (Ast.Add, _, _); _ },
               { desc = Ast.Binop (Ast.Mul, _, _); _ }) -> ()
  | _ -> Alcotest.fail "comparison binds loosest of arithmetic"

let test_parse_unary () =
  (match (Parser.parse_expr "-5").desc with
  | Ast.Int (-5) -> ()
  | _ -> Alcotest.fail "negative literal folded");
  (match (Parser.parse_expr "-x").desc with
  | Ast.Unop (Ast.Neg, { desc = Ast.Var "x"; _ }) -> ()
  | _ -> Alcotest.fail "negation of variable");
  match (Parser.parse_expr "!!x").desc with
  | Ast.Unop (Ast.Not, { desc = Ast.Unop (Ast.Not, _); _ }) -> ()
  | _ -> Alcotest.fail "double not"

let test_parse_calls () =
  (match (Parser.parse_expr "f(1, 2)").desc with
  | Ast.Call ({ desc = Ast.Var "f"; _ }, [ _; _ ]) -> ()
  | _ -> Alcotest.fail "direct call");
  (match (Parser.parse_expr "t[i](x)").desc with
  | Ast.Call ({ desc = Ast.Index ("t", _); _ }, [ _ ]) -> ()
  | _ -> Alcotest.fail "computed callee");
  match (Parser.parse_expr "f(1)(2)").desc with
  | Ast.Call ({ desc = Ast.Call _; _ }, [ _ ]) -> ()
  | _ -> Alcotest.fail "curried-style call chain"

let test_parse_statements () =
  let p =
    parse_ok
      {|
fun f(n) {
  var x = 1;
  var y;
  x = x + 1;
  t[x] = n;
  if (x < n) { x = 0; } else if (x == n) { x = 1; } else { x = 2; }
  while (x > 0) { x = x - 1; }
  for (y = 0; y < 10; y = y + 1) { f(y); }
  return x;
}
array t[4];
|}
  in
  match p.funs with
  | [ { Ast.body; _ } ] -> check_int "statements" 8 (List.length body)
  | _ -> Alcotest.fail "fun count"

let test_parse_expr_statement_forms () =
  (* Expression statements whose head was consumed during
     disambiguation. *)
  let p =
    parse_ok
      {|
array t[4];
fun g() { return 0; }
fun f(h) {
  g();
  h(3);
  t[0](7);
  g() + 1;
  t[1] * 2;
  h;
  return 0;
}
|}
  in
  match p.funs with
  | [ _; { Ast.body; _ } ] -> check_int "statements" 7 (List.length body)
  | _ -> Alcotest.fail "fun count"

let test_parse_errors () =
  expect_parse_error "fun f( { }";
  expect_parse_error "fun f() { return 1 }";
  expect_parse_error "fun f() { x = ; }";
  expect_parse_error "fun f() { if x { } }";
  expect_parse_error_at "fun f() { a < b < c; }" (1, 17)
    "comparison operators do not associate; parenthesize";
  expect_parse_error "var x = y;";
  expect_parse_error "array a[0];";
  expect_parse_error "array a[-3];";
  expect_parse_error "fun f() { for (f(); 1; x = 1) { } }";
  expect_parse_error "fun f() {";
  expect_parse_error "garbage";
  expect_parse_error "fun f() { } trailing";
  (match Parser.parse_expr "1 +" with
  | exception Parser.Error _ -> ()
  | _ -> Alcotest.fail "dangling operator");
  match Parser.parse_expr "1 2" with
  | exception Parser.Error _ -> ()
  | _ -> Alcotest.fail "trailing input"

(* A statement that starts with a name is parsed as an expression
   first, so it gets the same checks as any other expression; only a
   bare name or element followed by '=' is an assignment. *)
let test_parse_name_led_statements () =
  let body stmt = "var y; array t[4]; fun f() { " ^ stmt ^ " }" in
  let non_assoc = "comparison operators do not associate; parenthesize" in
  expect_parse_error_at (body "y < 2 < 3;") (1, 36) non_assoc;
  expect_parse_error_at (body "(y) < 2 < 3;") (1, 38) non_assoc;
  let no_target = "expected ';' but found '='" in
  expect_parse_error_at (body "(y) = 3;") (1, 34) no_target;
  expect_parse_error_at (body "y + 1 = 3;") (1, 36) no_target;
  expect_parse_error_at (body "y = t[1] = 3;") (1, 39) no_target;
  let stmt src =
    match (parse_ok (body src)).funs with
    | [ { Ast.body = [ s ]; _ } ] -> s.sdesc
    | _ -> Alcotest.fail ("one statement: " ^ src)
  in
  (match stmt "y = 4;" with
  | Ast.Assign ("y", { desc = Ast.Int 4; _ }) -> ()
  | _ -> Alcotest.fail "assignment");
  (match stmt "t[1] = 3;" with
  | Ast.Astore ("t", { desc = Ast.Int 1; _ }, { desc = Ast.Int 3; _ }) -> ()
  | _ -> Alcotest.fail "array store");
  (match stmt "t[y](1);" with
  | Ast.Expr { desc = Ast.Call ({ desc = Ast.Index ("t", _); _ }, [ _ ]); _ } -> ()
  | _ -> Alcotest.fail "call through an element");
  match stmt "y == 1;" with
  | Ast.Expr { desc = Ast.Binop (Ast.Eq, { desc = Ast.Var "y"; _ }, _); _ } -> ()
  | _ -> Alcotest.fail "comparison statement"

(* Tokens are lexed as the parse needs them, so the first error in
   file order wins, lexical or syntactic. *)
let test_parse_error_order () =
  (* a missing ';' on line 2 comes before the '$' on line 3 *)
  expect_parse_error_at "fun main() {\n  var x = 1\n  return x +$;\n}\n" (3, 3)
    "expected ';' but found 'return'";
  (match Parser.parse_expr "1 2 $" with
  | exception Parser.Error (msg, loc) ->
    Alcotest.(check (pair (pair int int) string))
      "parse_expr error" ((1, 3), "trailing input after expression: integer 2")
      ((loc.line, loc.col), msg)
  | _ -> Alcotest.fail "trailing input");
  (* each check looks at a token before the next one is lexed *)
  expect_parse_error_at "var x = 1 2 $;" (1, 11) "expected ';' but found integer 2";
  expect_parse_error_at "var 1$;" (1, 5) "expected an identifier but found integer 1";
  expect_parse_error_at "var g = x$;" (1, 9)
    "expected an integer but found identifier \"x\"";
  expect_parse_error_at "array a[0$];" (1, 9) "array size must be positive";
  expect_parse_error_at "fun f() { return )$; }" (1, 18)
    "expected an expression but found ')'";
  (* a lexical error still wins when it comes first *)
  expect_parse_error_at "fun f() { $ return 1 }" (1, 11) "illegal character '$'";
  expect_parse_error_at "fun f() { /* return 1 }" (1, 11) "unterminated block comment"

(* The parser's allocation per token, on a fixed source of 196 KB and
   75,010 tokens. Minor words repeat exactly from run to run (promoted
   words do not), so the bound is exact. It sits between pulling
   tokens from the lexer (18.2 words a token here) and building the
   token list before parsing (46.6). *)
let test_parse_words_per_token () =
  let fn k =
    Printf.sprintf
      {|// f%d
fun f%d(x, n) {
  var s = x * %d; /* seed */
  while (n > 0) {
    if (s %% 2 == 0) { s = s / 2; } else { s = 3 * s + 1; }
    t[n %% 8] = s;
    n = n - 1;
  }
  g = g + s;
  return s;
}
|}
      k k k
  in
  let src = "var g;\narray t[8];\n" ^ String.concat "" (List.init 1000 fn) in
  let tokens = List.length (Lexer.tokenize src) in
  let before = Gc.minor_words () in
  let p = Parser.parse_program src in
  let words = Gc.minor_words () -. before in
  check_int "functions" 1000 (List.length p.funs);
  let per_token = words /. float_of_int tokens in
  if per_token > 20.0 then
    Alcotest.failf
      "parse_program allocated %.0f minor words for %d tokens (%d bytes): %.2f a \
       token, over the bound of 20"
      words tokens (String.length src) per_token

(* ------------------------------------------------------------------ *)
(* Pretty-printer round-trip *)

let roundtrip src =
  let p1 = parse_ok src in
  let printed = Pprint.program p1 in
  match Parser.parse_program printed with
  | exception Parser.Error (msg, loc) ->
    Alcotest.failf "reparse failed (%a: %s); printed was:\n%s" Ast.pp_loc loc msg
      printed
  | p2 ->
    check_bool
      (Printf.sprintf "round trip of:\n%s\nprinted:\n%s" src printed)
      true
      (Ast.equal_program p1 p2)

let test_roundtrip_hand_cases () =
  roundtrip "fun f() { return 1 + 2 * 3 - 4 / 5 % 6; }";
  roundtrip "fun f() { return (1 + 2) * 3; }";
  roundtrip "fun f() { return 1 - (2 - 3); }";
  roundtrip "fun f(a, b) { return a && b || !a && !b; }";
  roundtrip "fun f(a) { return (a < 3) == (a > 1); }";
  roundtrip "fun f(a) { return -a + -3; }";
  roundtrip "var g = -9; fun f() { return g; }";
  roundtrip
    {|
array t[8];
fun f(h, n) {
  var i;
  for (i = 0; i < n; i = i + 1) {
    if (i % 2 == 0) { t[i] = h(i); } else { t[i] = f(h, i - 1); }
  }
  while (n > 0 && t[0] != 1) { n = n - 1; }
  h;
  return t[n];
}
|};
  roundtrip
    {|
fun f(x) {
  if (x == 0) { return 1; } else if (x == 1) { return 2; } else { return 3; }
}
|};
  roundtrip
    {|
fun f(n) {
  var i;
  for (i = 0; i < n; i = i + 1) {
    if (i == 7) { break; }
    if (i % 2 == 0) { continue; }
    while (n > 0) { n = n - 1; break; }
  }
  return i;
}
|}

let test_roundtrip_workloads () =
  List.iter
    (fun (w : Workloads.Programs.t) -> roundtrip w.w_source)
    Workloads.Programs.all

(* Random expression generator for the round-trip property. Avoids
   Unop(Neg, Int _) which the parser deliberately folds. *)
let gen_expr : Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let var = oneofl [ "a"; "b"; "c" ] in
  sized (fun size ->
      fix
        (fun self size ->
          let leaf =
            oneof
              [
                map (fun n -> Ast.mk_expr (Ast.Int n)) (int_range (-50) 50);
                map (fun v -> Ast.mk_expr (Ast.Var v)) var;
              ]
          in
          if size <= 1 then leaf
          else
            let sub = self (size / 2) in
            oneof
              [
                leaf;
                map (fun i -> Ast.mk_expr (Ast.Index ("t", i))) sub;
                map2
                  (fun f args -> Ast.mk_expr (Ast.Call (f, args)))
                  (map (fun v -> Ast.mk_expr (Ast.Var v)) var)
                  (list_size (int_range 0 3) sub);
                (let* op =
                   oneofl
                     [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod; Ast.And;
                       Ast.Or ]
                 in
                 map2 (fun l r -> Ast.mk_expr (Ast.Binop (op, l, r))) sub sub);
                (let* op = oneofl [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Eq; Ast.Ne ] in
                 map2 (fun l r -> Ast.mk_expr (Ast.Binop (op, l, r))) sub sub);
                (map (fun e ->
                     match e.Ast.desc with
                     | Ast.Int _ -> Ast.mk_expr (Ast.Unop (Ast.Not, e))
                     | _ -> Ast.mk_expr (Ast.Unop (Ast.Neg, e)))
                   sub);
              ])
        size)

let expr_roundtrip_prop =
  QCheck.Test.make ~name:"pretty-printed expressions reparse to the same AST"
    ~count:500
    (QCheck.make ~print:(fun e -> Pprint.expr e) gen_expr)
    (fun e ->
      let printed = Pprint.expr e in
      match Parser.parse_expr printed with
      | e2 -> Ast.equal_expr e e2
      | exception Parser.Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Checker *)

let errors_of ?(builtins = Compile.Builtins.arities) src =
  Check.check ~builtins (parse_ok src)

let expect_error ?builtins src fragment =
  let errs = errors_of ?builtins src in
  let found =
    List.exists
      (fun (e : Check.error) ->
        let msg = e.msg in
        let n = String.length fragment and h = String.length msg in
        let rec go i = i + n <= h && (String.sub msg i n = fragment || go (i + 1)) in
        go 0)
      errs
  in
  if not found then
    Alcotest.failf "expected error containing %S; got: %s" fragment
      (String.concat " | "
         (List.map (fun (e : Check.error) -> e.msg) errs))

let test_check_ok () =
  List.iter
    (fun (w : Workloads.Programs.t) ->
      match errors_of w.w_source with
      | [] -> ()
      | errs ->
        Alcotest.failf "workload %s: %s" w.w_name
          (String.concat "; " (List.map (fun (e : Check.error) -> e.msg) errs)))
    Workloads.Programs.all

let test_check_unbound () =
  expect_error "fun f() { return nope; }" "unbound variable nope";
  expect_error "fun f() { return g(1); }" "unbound function g";
  expect_error "fun f() { x = 1; return 0; }" "unbound variable x";
  expect_error "fun f() { t[0] = 1; return 0; }" "unbound array t"

let test_check_duplicates () =
  expect_error "var g; var g;" "duplicate global g";
  expect_error "fun f() { return 0; } fun f() { return 1; }" "duplicate definition of f";
  expect_error "fun f(a, a) { return a; }" "duplicate parameter a";
  expect_error "fun f() { var x; var x; return 0; }" "duplicate local declaration of x";
  expect_error "fun print(x) { return x; }" "duplicate definition of print"

let test_check_arity () =
  expect_error "fun f(a) { return a; } fun g() { return f(); }" "expects 1 argument";
  expect_error "fun f() { return print(1, 2); }" "expects 1 argument";
  (* Indirect calls are not arity-checked. *)
  Alcotest.(check int) "indirect unchecked" 0
    (List.length
       (errors_of "fun f(a) { return a; } fun g(h) { return h(1, 2, 3); }"))

let test_check_shapes () =
  expect_error "array t[4]; fun f() { return t; }" "cannot be used as a value";
  expect_error "array t[4]; fun f() { return t(1); }" "cannot be called";
  expect_error "var g; fun f() { return g[0]; }" "is not an array";
  expect_error "fun f() { f = 3; return 0; }" "cannot assign to function";
  expect_error "array t[4]; fun f() { t = 3; return 0; }" "cannot assign to array";
  expect_error "fun f() { return print; }" "may only be called directly";
  expect_error "fun f() { var i; for (i = 0; i < 3; var j = 1) { } return 0; }"
    "for-step may not declare";
  expect_error "fun f() { break; return 0; }" "break outside of a loop";
  expect_error "fun f() { continue; return 0; }" "continue outside of a loop";
  Alcotest.(check int) "break inside loop is fine" 0
    (List.length
       (errors_of "fun f() { while (1) { break; } return 0; }"))

let test_check_function_values_ok () =
  Alcotest.(check int) "function as value is fine" 0
    (List.length
       (errors_of
          "fun f(x) { return x; } fun g() { var h = f; return h(1); }"))

(* The warnings that read the source: an indirect call whose argument
   count no candidate callee declares, and no dead-param for a slot
   the source declares no parameter for. The candidates come from the
   compiled object's Indirect analysis, the parameter counts from the
   AST. [warnings_of] is every warning minic prints. *)

let warnings_of src =
  let p = parse_ok src in
  match Compile.Codegen.compile_program p with
  | Error e -> Alcotest.failf "compile %S: %s" src e
  | Ok o ->
    Analysis.Proflint.compiler_warnings
      (Result.get_ok (Analysis.Proflint.prepare o))
      ~params:
        (List.map
           (fun (f : Ast.fundef) -> (f.fname, List.length f.params))
           p.funs)

let expect_warning src fragment =
  let warns = warnings_of src in
  let found =
    List.exists
      (fun msg ->
        let n = String.length fragment and h = String.length msg in
        let rec go i =
          i + n <= h && (String.sub msg i n = fragment || go (i + 1))
        in
        go 0)
      warns
  in
  if not found then
    Alcotest.failf "expected warning containing %S; got: %s" fragment
      (String.concat " | " warns)

let test_warnings_arity_mismatch () =
  expect_warning
    "fun one(a) { return a; } fun g() { var h = one; return h(1, 2); } \
     fun main() { return g(); }"
    "takes 2 arguments (candidates: one/1)";
  (* a matching candidate anywhere in the set silences the site, and
     [one]'s second slot is no parameter of the source *)
  Alcotest.(check int) "mixed arities with a match are fine" 0
    (List.length
       (warnings_of
          "fun one(a) { return a; } fun two(a, b) { return a + b; } \
           fun g(k) { var h; if (k) { h = one; } else { h = two; } \
           return h(1, 2); } fun main() { return g(1); }"))

(* One mistake, one warning: the call passes [one] an argument it
   does not declare, and the slot that argument lands in is no unread
   parameter of the source. *)
let test_warnings_one_per_mistake () =
  let src =
    "fun one(a) { return a; } fun g() { var h = one; return h(1, 2); } \
     fun main() { return g(); }"
  in
  expect_warning src "takes 2 arguments (candidates: one/1)";
  Alcotest.(check int) "one warning" 1 (List.length (warnings_of src))

let test_warnings_flow_through_calls () =
  (* the function value flows through an argument into a parameter *)
  expect_warning
    "fun one(a) { return a; } fun apply(h) { return h(1, 2); } \
     fun g() { return apply(one); } fun main() { return g(); }"
    "takes 2 arguments (candidates: one/1)";
  (* ... and through an array and a return value *)
  expect_warning
    "array tab[2]; fun one(a) { return a; } \
     fun pick() { return tab[0]; } \
     fun g() { tab[0] = one; var h = pick(); return h(1, 2); } \
     fun main() { return g(); }"
    "takes 2 arguments (candidates: one/1)"

let test_check_entry () =
  (match Check.check_entry (parse_ok "fun main() { return 0; }") with
  | [] -> ()
  | _ -> Alcotest.fail "main ok");
  (match Check.check_entry (parse_ok "fun f() { return 0; }") with
  | [ e ] -> check_bool "no main" true (e.msg = "program has no main function")
  | _ -> Alcotest.fail "expected one error");
  match Check.check_entry (parse_ok "fun main(x) { return x; }") with
  | [ e ] -> check_bool "main params" true (e.msg = "main must take no parameters")
  | _ -> Alcotest.fail "expected one error"

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "mini"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lex_basics;
          Alcotest.test_case "operators" `Quick test_lex_operators;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "positions" `Quick test_lex_positions;
          Alcotest.test_case "errors" `Quick test_lex_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "program shapes" `Quick test_parse_program_shapes;
          Alcotest.test_case "negative global" `Quick test_parse_negative_global;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "unary" `Quick test_parse_unary;
          Alcotest.test_case "calls" `Quick test_parse_calls;
          Alcotest.test_case "statements" `Quick test_parse_statements;
          Alcotest.test_case "expr statements" `Quick test_parse_expr_statement_forms;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "name-led statements" `Quick
            test_parse_name_led_statements;
          Alcotest.test_case "error order" `Quick test_parse_error_order;
          Alcotest.test_case "minor words per token" `Quick
            test_parse_words_per_token;
        ] );
      ( "pprint",
        [
          Alcotest.test_case "hand cases" `Quick test_roundtrip_hand_cases;
          Alcotest.test_case "workloads" `Quick test_roundtrip_workloads;
          qt expr_roundtrip_prop;
        ] );
      ( "check",
        [
          Alcotest.test_case "workloads are clean" `Quick test_check_ok;
          Alcotest.test_case "unbound names" `Quick test_check_unbound;
          Alcotest.test_case "duplicates" `Quick test_check_duplicates;
          Alcotest.test_case "arity" `Quick test_check_arity;
          Alcotest.test_case "shape misuse" `Quick test_check_shapes;
          Alcotest.test_case "function values" `Quick test_check_function_values_ok;
          Alcotest.test_case "entry point" `Quick test_check_entry;
        ] );
      ( "warnings",
        [
          Alcotest.test_case "arity mismatch" `Quick test_warnings_arity_mismatch;
          Alcotest.test_case "one warning per arity mistake" `Quick
            test_warnings_one_per_mistake;
          Alcotest.test_case "flow through calls" `Quick
            test_warnings_flow_through_calls;
        ] );
    ]
