(* Precedence levels, loosest to tightest; mirrors the parser. *)
let prec_or = 1
let prec_and = 2
let prec_cmp = 3
let prec_add = 4
let prec_mul = 5
let prec_unary = 6

let binop_prec = function
  | Ast.Or -> prec_or
  | Ast.And -> prec_and
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne -> prec_cmp
  | Ast.Add | Ast.Sub -> prec_add
  | Ast.Mul | Ast.Div | Ast.Mod -> prec_mul

(* && and || are parsed right-associatively; the arithmetic operators
   left-associatively; comparisons do not associate at all. *)
let right_assoc p = p = prec_or || p = prec_and

let rec expr_prec buf prec (e : Ast.expr) =
  match e.desc with
  | Ast.Int n ->
    if n < 0 && prec > prec_add then begin
      (* A negative literal next to another operator, e.g. x * -1,
         still lexes fine, but parenthesize at unary positions for
         readability and to survive re-lexing of "--". *)
      Buffer.add_char buf '(';
      Buffer.add_string buf (string_of_int n);
      Buffer.add_char buf ')'
    end
    else Buffer.add_string buf (string_of_int n)
  | Ast.Var x -> Buffer.add_string buf x
  | Ast.Index (a, i) ->
    Buffer.add_string buf a;
    Buffer.add_char buf '[';
    expr_prec buf 0 i;
    Buffer.add_char buf ']'
  | Ast.Call (f, args) ->
    (* The callee is a postfix position: tighter than unary. *)
    (match f.desc with
    | Ast.Var _ | Ast.Index _ | Ast.Call _ -> expr_prec buf prec_unary f
    | _ ->
      Buffer.add_char buf '(';
      expr_prec buf 0 f;
      Buffer.add_char buf ')');
    Buffer.add_char buf '(';
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_string buf ", ";
        expr_prec buf 0 a)
      args;
    Buffer.add_char buf ')'
  | Ast.Binop (op, l, r) ->
    let p = binop_prec op in
    let need_parens = p < prec in
    if need_parens then Buffer.add_char buf '(';
    let lp, rp = if right_assoc p then (p + 1, p) else (p, p + 1) in
    (* comparisons never chain: force parens on comparison children *)
    let lp, rp = if p = prec_cmp then (p + 1, p + 1) else (lp, rp) in
    expr_prec buf lp l;
    Buffer.add_char buf ' ';
    Buffer.add_string buf (Ast.binop_name op);
    Buffer.add_char buf ' ';
    expr_prec buf rp r;
    if need_parens then Buffer.add_char buf ')'
  | Ast.Unop (op, e1) ->
    let need_parens = prec_unary < prec in
    if need_parens then Buffer.add_char buf '(';
    Buffer.add_string buf (Ast.unop_name op);
    (* Parenthesize a literal operand of unary minus so it is not
       re-folded into a (different) literal, and insert parens around
       any looser operand. *)
    (match (op, e1.desc) with
    | Ast.Neg, Ast.Int _ ->
      Buffer.add_char buf '(';
      expr_prec buf 0 e1;
      Buffer.add_char buf ')'
    | _ -> expr_prec buf prec_unary e1);
    if need_parens then Buffer.add_char buf ')'

let expr e =
  let buf = Buffer.create 64 in
  expr_prec buf 0 e;
  Buffer.contents buf

let rec stmt_buf buf indent (s : Ast.stmt) =
  let pad = String.make indent ' ' in
  Buffer.add_string buf pad;
  match s.sdesc with
  | Ast.Decl (x, None) -> Buffer.add_string buf (Printf.sprintf "var %s;\n" x)
  | Ast.Decl (x, Some e) ->
    Buffer.add_string buf (Printf.sprintf "var %s = %s;\n" x (expr e))
  | Ast.Assign (x, e) -> Buffer.add_string buf (Printf.sprintf "%s = %s;\n" x (expr e))
  | Ast.Astore (a, i, e) ->
    Buffer.add_string buf (Printf.sprintf "%s[%s] = %s;\n" a (expr i) (expr e))
  | Ast.If (c, t, e) ->
    Buffer.add_string buf (Printf.sprintf "if (%s) {\n" (expr c));
    List.iter (stmt_buf buf (indent + 2)) t;
    (match e with
    | [] -> Buffer.add_string buf (pad ^ "}\n")
    | [ ({ Ast.sdesc = Ast.If _; _ } as elif) ] ->
      Buffer.add_string buf (pad ^ "} else ");
      (* strip the leading pad the recursive call will add *)
      let sub = Buffer.create 64 in
      stmt_buf sub indent elif;
      let s = Buffer.contents sub in
      Buffer.add_string buf (String.sub s indent (String.length s - indent))
    | _ ->
      Buffer.add_string buf (pad ^ "} else {\n");
      List.iter (stmt_buf buf (indent + 2)) e;
      Buffer.add_string buf (pad ^ "}\n"))
  | Ast.While (c, b) ->
    Buffer.add_string buf (Printf.sprintf "while (%s) {\n" (expr c));
    List.iter (stmt_buf buf (indent + 2)) b;
    Buffer.add_string buf (pad ^ "}\n")
  | Ast.For (init, c, step, b) ->
    Buffer.add_string buf
      (Printf.sprintf "for (%s; %s; %s) {\n" (simple init) (expr c) (simple step));
    List.iter (stmt_buf buf (indent + 2)) b;
    Buffer.add_string buf (pad ^ "}\n")
  | Ast.Break -> Buffer.add_string buf "break;\n"
  | Ast.Continue -> Buffer.add_string buf "continue;\n"
  | Ast.Return None -> Buffer.add_string buf "return;\n"
  | Ast.Return (Some e) -> Buffer.add_string buf (Printf.sprintf "return %s;\n" (expr e))
  | Ast.Expr e -> Buffer.add_string buf (Printf.sprintf "%s;\n" (expr e))

and simple (s : Ast.stmt) =
  match s.sdesc with
  | Ast.Decl (x, Some e) -> Printf.sprintf "var %s = %s" x (expr e)
  | Ast.Assign (x, e) -> Printf.sprintf "%s = %s" x (expr e)
  | Ast.Astore (a, i, e) -> Printf.sprintf "%s[%s] = %s" a (expr i) (expr e)
  | _ -> invalid_arg "Pprint: for-header statement must be a declaration or assignment"

let stmt ?(indent = 0) s =
  let buf = Buffer.create 64 in
  stmt_buf buf indent s;
  Buffer.contents buf

let global_str = function
  | Ast.Gvar (x, 0, _) -> Printf.sprintf "var %s;\n" x
  | Ast.Gvar (x, n, _) -> Printf.sprintf "var %s = %d;\n" x n
  | Ast.Garray (x, n, _) -> Printf.sprintf "array %s[%d];\n" x n

let fundef_str (f : Ast.fundef) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "fun %s(%s) {\n" f.fname (String.concat ", " f.params));
  List.iter (stmt_buf buf 2) f.body;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let program (p : Ast.program) =
  let buf = Buffer.create 1024 in
  List.iter (fun g -> Buffer.add_string buf (global_str g)) p.globals;
  if p.globals <> [] && p.funs <> [] then Buffer.add_char buf '\n';
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf '\n';
      Buffer.add_string buf (fundef_str f))
    p.funs;
  Buffer.contents buf
