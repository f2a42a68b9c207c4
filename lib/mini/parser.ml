exception Error of string * Ast.loc

(* One token of lookahead, pulled from the lexer as the parse goes. *)
type state = { lx : Lexer.t; mutable tok : Lexer.token * Ast.loc }

let fail loc fmt = Format.kasprintf (fun s -> raise (Error (s, loc))) fmt

let peek st = st.tok
let advance st = st.tok <- Lexer.next st.lx

(* The helpers below check the lookahead before consuming it, so a
   syntax error is reported before the lexer reads past it. *)

let expect st tok =
  let got, loc = peek st in
  if got <> tok then
    fail loc "expected %s but found %s" (Lexer.token_name tok)
      (Lexer.token_name got);
  advance st;
  loc

let expect_ident st =
  match peek st with
  | Lexer.IDENT s, loc ->
    advance st;
    (s, loc)
  | got, loc -> fail loc "expected an identifier but found %s" (Lexer.token_name got)

(* An integer literal, optionally negated: its value and location.
   The literal stays the lookahead, so the caller can check the value
   before it consumes the token. *)
let int_literal st =
  let sign =
    match peek st with
    | Lexer.MINUS, _ ->
      advance st;
      -1
    | _ -> 1
  in
  match peek st with
  | Lexer.INT n, loc -> (sign * n, loc)
  | got, loc -> fail loc "expected an integer but found %s" (Lexer.token_name got)

(* --- expressions ----------------------------------------------------- *)

let rec parse_or st =
  let lhs = parse_and st in
  match peek st with
  | Lexer.BARBAR, loc ->
    advance st;
    let rhs = parse_or_chain st in
    Ast.mk_expr ~loc (Ast.Binop (Ast.Or, lhs, rhs))
  | _ -> lhs

and parse_or_chain st =
  (* right-fold the chain so that pretty-printing without parens
     round-trips: a || b || c parses as a || (b || c). || and && are
     associative so the shape does not affect meaning. *)
  parse_or st

and parse_and st =
  let lhs = parse_cmp st in
  match peek st with
  | Lexer.AMPAMP, loc ->
    advance st;
    let rhs = parse_and st in
    Ast.mk_expr ~loc (Ast.Binop (Ast.And, lhs, rhs))
  | _ -> lhs

and parse_cmp st =
  let lhs = parse_add st in
  let relop =
    match peek st with
    | Lexer.LT, loc -> Some (Ast.Lt, loc)
    | Lexer.LE, loc -> Some (Ast.Le, loc)
    | Lexer.GT, loc -> Some (Ast.Gt, loc)
    | Lexer.GE, loc -> Some (Ast.Ge, loc)
    | Lexer.EQ, loc -> Some (Ast.Eq, loc)
    | Lexer.NE, loc -> Some (Ast.Ne, loc)
    | _ -> None
  in
  match relop with
  | None -> lhs
  | Some (op, loc) ->
    advance st;
    let rhs = parse_add st in
    (* Reject a second comparison: relations do not associate. *)
    (match peek st with
    | (Lexer.LT | Lexer.LE | Lexer.GT | Lexer.GE | Lexer.EQ | Lexer.NE), loc2 ->
      fail loc2 "comparison operators do not associate; parenthesize"
    | _ -> ());
    Ast.mk_expr ~loc (Ast.Binop (op, lhs, rhs))

(* The left-associative loops are functions of their own, not local
   closures: a closure built on every call was a fifth of the parser's
   allocation. *)
and parse_add st = add_rest st (parse_mul st)

and add_rest st lhs =
  match peek st with
  | Lexer.PLUS, loc ->
    advance st;
    add_rest st (Ast.mk_expr ~loc (Ast.Binop (Ast.Add, lhs, parse_mul st)))
  | Lexer.MINUS, loc ->
    advance st;
    add_rest st (Ast.mk_expr ~loc (Ast.Binop (Ast.Sub, lhs, parse_mul st)))
  | _ -> lhs

and parse_mul st = mul_rest st (parse_unary st)

and mul_rest st lhs =
  match peek st with
  | Lexer.STAR, loc ->
    advance st;
    mul_rest st (Ast.mk_expr ~loc (Ast.Binop (Ast.Mul, lhs, parse_unary st)))
  | Lexer.SLASH, loc ->
    advance st;
    mul_rest st (Ast.mk_expr ~loc (Ast.Binop (Ast.Div, lhs, parse_unary st)))
  | Lexer.PERCENT, loc ->
    advance st;
    mul_rest st (Ast.mk_expr ~loc (Ast.Binop (Ast.Mod, lhs, parse_unary st)))
  | _ -> lhs

and parse_unary st =
  match peek st with
  | Lexer.MINUS, loc ->
    advance st;
    (* fold -LITERAL into a literal so negative constants round-trip *)
    (match parse_unary st with
    | { Ast.desc = Ast.Int n; _ } -> Ast.mk_expr ~loc (Ast.Int (-n))
    | e -> Ast.mk_expr ~loc (Ast.Unop (Ast.Neg, e)))
  | Lexer.BANG, loc ->
    advance st;
    Ast.mk_expr ~loc (Ast.Unop (Ast.Not, parse_unary st))
  | _ -> parse_postfix st

and parse_postfix st = postfix_rest st (parse_primary st)

and postfix_rest st e =
  match peek st with
  | Lexer.LPAREN, loc ->
    advance st;
    let args = parse_args st in
    ignore (expect st Lexer.RPAREN);
    postfix_rest st (Ast.mk_expr ~loc (Ast.Call (e, args)))
  | _ -> e

and parse_args st =
  match peek st with
  | Lexer.RPAREN, _ -> []
  | _ ->
    let rec go acc =
      let e = parse_or st in
      match peek st with
      | Lexer.COMMA, _ ->
        advance st;
        go (e :: acc)
      | _ -> List.rev (e :: acc)
    in
    go []

and parse_primary st =
  match peek st with
  | Lexer.INT n, loc ->
    advance st;
    Ast.mk_expr ~loc (Ast.Int n)
  | Lexer.IDENT x, loc ->
    advance st;
    (match peek st with
    | Lexer.LBRACKET, _ ->
      advance st;
      let idx = parse_or st in
      ignore (expect st Lexer.RBRACKET);
      Ast.mk_expr ~loc (Ast.Index (x, idx))
    | _ -> Ast.mk_expr ~loc (Ast.Var x))
  | Lexer.LPAREN, _ ->
    advance st;
    let e = parse_or st in
    ignore (expect st Lexer.RPAREN);
    e
  | got, loc -> fail loc "expected an expression but found %s" (Lexer.token_name got)

let parse_expression st = parse_or st

(* --- statements ------------------------------------------------------ *)

(* A "simple" statement for for-headers: declaration or assignment,
   without the trailing semicolon. *)
let parse_simple st =
  match peek st with
  | Lexer.KW_VAR, loc ->
    advance st;
    let x, _ = expect_ident st in
    ignore (expect st Lexer.ASSIGN);
    let e = parse_expression st in
    Ast.mk_stmt ~loc (Ast.Decl (x, Some e))
  | Lexer.IDENT x, loc ->
    advance st;
    (match peek st with
    | Lexer.LBRACKET, _ ->
      advance st;
      let idx = parse_expression st in
      ignore (expect st Lexer.RBRACKET);
      ignore (expect st Lexer.ASSIGN);
      let e = parse_expression st in
      Ast.mk_stmt ~loc (Ast.Astore (x, idx, e))
    | _ ->
      ignore (expect st Lexer.ASSIGN);
      let e = parse_expression st in
      Ast.mk_stmt ~loc (Ast.Assign (x, e)))
  | got, loc ->
    fail loc "expected a declaration or assignment but found %s"
      (Lexer.token_name got)

let rec parse_stmt st =
  match peek st with
  | Lexer.KW_VAR, loc ->
    advance st;
    let x, _ = expect_ident st in
    let init =
      match peek st with
      | Lexer.ASSIGN, _ ->
        advance st;
        Some (parse_expression st)
      | _ -> None
    in
    ignore (expect st Lexer.SEMI);
    Ast.mk_stmt ~loc (Ast.Decl (x, init))
  | Lexer.KW_IF, loc ->
    advance st;
    ignore (expect st Lexer.LPAREN);
    let cond = parse_expression st in
    ignore (expect st Lexer.RPAREN);
    let then_ = parse_block st in
    let else_ =
      match peek st with
      | Lexer.KW_ELSE, _ -> (
        advance st;
        match peek st with
        | Lexer.KW_IF, _ -> [ parse_stmt st ]
        | _ -> parse_block st)
      | _ -> []
    in
    Ast.mk_stmt ~loc (Ast.If (cond, then_, else_))
  | Lexer.KW_WHILE, loc ->
    advance st;
    ignore (expect st Lexer.LPAREN);
    let cond = parse_expression st in
    ignore (expect st Lexer.RPAREN);
    let body = parse_block st in
    Ast.mk_stmt ~loc (Ast.While (cond, body))
  | Lexer.KW_FOR, loc ->
    advance st;
    ignore (expect st Lexer.LPAREN);
    let init = parse_simple st in
    ignore (expect st Lexer.SEMI);
    let cond = parse_expression st in
    ignore (expect st Lexer.SEMI);
    let step = parse_simple st in
    ignore (expect st Lexer.RPAREN);
    let body = parse_block st in
    Ast.mk_stmt ~loc (Ast.For (init, cond, step, body))
  | Lexer.KW_BREAK, loc ->
    advance st;
    ignore (expect st Lexer.SEMI);
    Ast.mk_stmt ~loc Ast.Break
  | Lexer.KW_CONTINUE, loc ->
    advance st;
    ignore (expect st Lexer.SEMI);
    Ast.mk_stmt ~loc Ast.Continue
  | Lexer.KW_RETURN, loc ->
    advance st;
    (match peek st with
    | Lexer.SEMI, _ ->
      advance st;
      Ast.mk_stmt ~loc (Ast.Return None)
    | _ ->
      let e = parse_expression st in
      ignore (expect st Lexer.SEMI);
      Ast.mk_stmt ~loc (Ast.Return (Some e)))
  | first, loc -> (
    (* An expression statement, unless it starts with a name and the
       expression is a bare name or element followed by '=': then it
       was the target of an assignment or an array store. *)
    let e = parse_expression st in
    match (first, e.Ast.desc, peek st) with
    | Lexer.IDENT _, Ast.Var x, (Lexer.ASSIGN, _) ->
      advance st;
      let v = parse_expression st in
      ignore (expect st Lexer.SEMI);
      Ast.mk_stmt ~loc (Ast.Assign (x, v))
    | Lexer.IDENT _, Ast.Index (x, idx), (Lexer.ASSIGN, _) ->
      advance st;
      let v = parse_expression st in
      ignore (expect st Lexer.SEMI);
      Ast.mk_stmt ~loc (Ast.Astore (x, idx, v))
    | _ ->
      ignore (expect st Lexer.SEMI);
      Ast.mk_stmt ~loc (Ast.Expr e))

and parse_block st =
  ignore (expect st Lexer.LBRACE);
  let rec go acc =
    match peek st with
    | Lexer.RBRACE, _ ->
      advance st;
      List.rev acc
    | Lexer.EOF, loc -> fail loc "unterminated block"
    | _ -> go (parse_stmt st :: acc)
  in
  go []

(* --- top level ------------------------------------------------------- *)

let parse_topdecl st =
  match peek st with
  | Lexer.KW_VAR, loc ->
    advance st;
    let x, _ = expect_ident st in
    let init =
      match peek st with
      | Lexer.ASSIGN, _ ->
        advance st;
        let n, _ = int_literal st in
        advance st;
        n
      | _ -> 0
    in
    ignore (expect st Lexer.SEMI);
    Either.Left (Ast.Gvar (x, init, loc))
  | Lexer.KW_ARRAY, loc ->
    advance st;
    let x, _ = expect_ident st in
    ignore (expect st Lexer.LBRACKET);
    let n, nloc = int_literal st in
    if n <= 0 then fail nloc "array size must be positive";
    advance st;
    ignore (expect st Lexer.RBRACKET);
    ignore (expect st Lexer.SEMI);
    Either.Left (Ast.Garray (x, n, loc))
  | Lexer.KW_FUN, loc ->
    advance st;
    let fname, _ = expect_ident st in
    ignore (expect st Lexer.LPAREN);
    let params =
      match peek st with
      | Lexer.RPAREN, _ -> []
      | _ ->
        let rec go acc =
          let x, _ = expect_ident st in
          match peek st with
          | Lexer.COMMA, _ ->
            advance st;
            go (x :: acc)
          | _ -> List.rev (x :: acc)
        in
        go []
    in
    ignore (expect st Lexer.RPAREN);
    let body = parse_block st in
    Either.Right { Ast.fname; params; body; floc = loc }
  | got, loc ->
    fail loc "expected 'var', 'array', or 'fun' at top level but found %s"
      (Lexer.token_name got)

(* Run [parse] over a fresh lexer on [src]; a lexical error, met
   whenever the parse pulls a token, surfaces as a parse error. *)
let with_lexer src parse =
  let lx = Lexer.create src in
  try parse { lx; tok = Lexer.next lx }
  with Lexer.Error (msg, loc) -> raise (Error (msg, loc))

let parse_program src =
  with_lexer src (fun st ->
      let rec go globals funs =
        match peek st with
        | Lexer.EOF, _ ->
          { Ast.globals = List.rev globals; funs = List.rev funs }
        | _ -> (
          match parse_topdecl st with
          | Either.Left g -> go (g :: globals) funs
          | Either.Right f -> go globals (f :: funs))
      in
      go [] [])

let parse_expr src =
  with_lexer src (fun st ->
      let e = parse_expression st in
      (match peek st with
      | Lexer.EOF, _ -> ()
      | got, loc ->
        fail loc "trailing input after expression: %s" (Lexer.token_name got));
      e)
