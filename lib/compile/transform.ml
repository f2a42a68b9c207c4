module Ast = Mini.Ast

(* "Pure" here is the strong property the transformations need:
   evaluation has no effects, cannot fault, and terminates. Calls have
   effects; division/modulo can fault on zero; array indexing can
   fault on bounds. Only such expressions may be duplicated (inlining
   an argument used twice) or discarded (folding [x * 0], dropping an
   unused argument). *)
let rec is_pure (e : Ast.expr) =
  match e.desc with
  | Ast.Int _ | Ast.Var _ -> true
  | Ast.Index _ | Ast.Call _ -> false
  | Ast.Binop ((Ast.Div | Ast.Mod), l, r) -> (
    is_pure l && (match r.desc with Ast.Int n -> n <> 0 | _ -> false))
  | Ast.Binop (_, l, r) -> is_pure l && is_pure r
  | Ast.Unop (_, e1) -> is_pure e1

(* --- inline expansion ------------------------------------------------ *)

let rec expr_calls name (e : Ast.expr) =
  match e.desc with
  | Ast.Int _ | Ast.Var _ -> false
  | Ast.Index (_, i) -> expr_calls name i
  | Ast.Call (f, args) ->
    (match f.desc with Ast.Var n when n = name -> true | _ -> expr_calls name f)
    || List.exists (expr_calls name) args
  | Ast.Binop (_, l, r) -> expr_calls name l || expr_calls name r
  | Ast.Unop (_, e1) -> expr_calls name e1

(* Substitute parameters by argument expressions in a pure-parameter
   body expression. Only parameter names are substituted; everything
   else a single-return body can reference is global and unshadowed by
   construction (the checker forbids duplicate names per scope, and
   the body has no declarations). *)
let rec subst env (e : Ast.expr) =
  match e.desc with
  | Ast.Int _ -> e
  | Ast.Var x -> (
    match List.assoc_opt x env with Some arg -> arg | None -> e)
  | Ast.Index (a, i) -> { e with desc = Ast.Index (a, subst env i) }
  | Ast.Call (f, args) ->
    (* the callee position may mention a parameter holding a function *)
    { e with desc = Ast.Call (subst env f, List.map (subst env) args) }
  | Ast.Binop (op, l, r) -> { e with desc = Ast.Binop (op, subst env l, subst env r) }
  | Ast.Unop (op, e1) -> { e with desc = Ast.Unop (op, subst env e1) }

type candidate = { params : string list; body : Ast.expr }

(* A body that is one non-recursive return of an expression. *)
let single_return (f : Ast.fundef) =
  match f.body with
  | [ { Ast.sdesc = Ast.Return (Some e); _ } ] when not (expr_calls f.fname e) ->
    Some { params = f.params; body = e }
  | _ -> None

let candidates ~names (p : Ast.program) =
  List.filter_map
    (fun (f : Ast.fundef) ->
      if not (List.mem f.fname names) then None
      else Option.map (fun c -> (f.fname, c)) (single_return f))
    p.funs

let rec expand cands (e : Ast.expr) =
  let e =
    match e.desc with
    | Ast.Int _ | Ast.Var _ -> e
    | Ast.Index (a, i) -> { e with desc = Ast.Index (a, expand cands i) }
    | Ast.Call (f, args) ->
      { e with desc = Ast.Call (expand cands f, List.map (expand cands) args) }
    | Ast.Binop (op, l, r) ->
      { e with desc = Ast.Binop (op, expand cands l, expand cands r) }
    | Ast.Unop (op, e1) -> { e with desc = Ast.Unop (op, expand cands e1) }
  in
  match e.desc with
  | Ast.Call ({ desc = Ast.Var name; _ }, args) -> (
    match List.assoc_opt name cands with
    | Some c
      when List.length args = List.length c.params
           && List.for_all is_pure args ->
      subst (List.combine c.params args) c.body
    | _ -> e)
  | _ -> e

let rec expand_stmt cands (s : Ast.stmt) =
  let ex = expand cands in
  match s.sdesc with
  | Ast.Decl (x, init) -> { s with sdesc = Ast.Decl (x, Option.map ex init) }
  | Ast.Assign (x, e) -> { s with sdesc = Ast.Assign (x, ex e) }
  | Ast.Astore (a, i, e) -> { s with sdesc = Ast.Astore (a, ex i, ex e) }
  | Ast.If (c, t, el) ->
    { s with
      sdesc = Ast.If (ex c, List.map (expand_stmt cands) t,
                      List.map (expand_stmt cands) el) }
  | Ast.While (c, b) ->
    { s with sdesc = Ast.While (ex c, List.map (expand_stmt cands) b) }
  | Ast.For (i, c, st, b) ->
    { s with
      sdesc =
        Ast.For (expand_stmt cands i, ex c, expand_stmt cands st,
                 List.map (expand_stmt cands) b) }
  | Ast.Return e -> { s with sdesc = Ast.Return (Option.map ex e) }
  | Ast.Break | Ast.Continue -> s
  | Ast.Expr e -> { s with sdesc = Ast.Expr (ex e) }

let inline_round ~names (p : Ast.program) =
  let cands = candidates ~names p in
  if cands = [] then p
  else
    {
      p with
      funs =
        List.map
          (fun (f : Ast.fundef) ->
            (* do not expand a candidate inside itself through a chain *)
            let applicable = List.filter (fun (n, _) -> n <> f.fname) cands in
            { f with body = List.map (expand_stmt applicable) f.body })
          p.funs;
    }

let inlinable (p : Ast.program) =
  List.filter_map
    (fun (f : Ast.fundef) ->
      if Option.is_some (single_return f) then Some f.fname else None)
    p.funs

let inline_expansion ~names p =
  (* Chains of wrappers flatten in a few rounds; the bound guards
     against mutual single-return functions expanding forever. *)
  let rec go n p =
    if n = 0 then p
    else
      let p' = inline_round ~names p in
      if Ast.equal_program p' p then p else go (n - 1) p'
  in
  go 5 p

(* --- constant folding ------------------------------------------------ *)

let truth b = if b then 1 else 0

let rec fold_expr (e : Ast.expr) =
  let mk desc = { e with desc } in
  match e.desc with
  | Ast.Int _ | Ast.Var _ -> e
  | Ast.Index (a, i) -> mk (Ast.Index (a, fold_expr i))
  | Ast.Call (f, args) -> mk (Ast.Call (fold_expr f, List.map fold_expr args))
  | Ast.Unop (op, e1) -> (
    let e1 = fold_expr e1 in
    match (op, e1.desc) with
    | Ast.Neg, Ast.Int n -> mk (Ast.Int (-n))
    | Ast.Not, Ast.Int n -> mk (Ast.Int (truth (n = 0)))
    | _ -> mk (Ast.Unop (op, e1)))
  | Ast.Binop (op, l, r) -> (
    let l = fold_expr l and r = fold_expr r in
    let keep () = mk (Ast.Binop (op, l, r)) in
    match (op, l.desc, r.desc) with
    | Ast.Add, Ast.Int a, Ast.Int b -> mk (Ast.Int (a + b))
    | Ast.Sub, Ast.Int a, Ast.Int b -> mk (Ast.Int (a - b))
    | Ast.Mul, Ast.Int a, Ast.Int b -> mk (Ast.Int (a * b))
    | Ast.Div, Ast.Int a, Ast.Int b when b <> 0 -> mk (Ast.Int (a / b))
    | Ast.Mod, Ast.Int a, Ast.Int b when b <> 0 -> mk (Ast.Int (a mod b))
    | Ast.Lt, Ast.Int a, Ast.Int b -> mk (Ast.Int (truth (a < b)))
    | Ast.Le, Ast.Int a, Ast.Int b -> mk (Ast.Int (truth (a <= b)))
    | Ast.Gt, Ast.Int a, Ast.Int b -> mk (Ast.Int (truth (a > b)))
    | Ast.Ge, Ast.Int a, Ast.Int b -> mk (Ast.Int (truth (a >= b)))
    | Ast.Eq, Ast.Int a, Ast.Int b -> mk (Ast.Int (truth (a = b)))
    | Ast.Ne, Ast.Int a, Ast.Int b -> mk (Ast.Int (truth (a <> b)))
    (* identities; the discarded side must be pure *)
    | Ast.Add, Ast.Int 0, _ -> r
    | Ast.Add, _, Ast.Int 0 -> l
    | Ast.Sub, _, Ast.Int 0 -> l
    | Ast.Mul, Ast.Int 1, _ -> r
    | Ast.Mul, _, Ast.Int 1 -> l
    | Ast.Mul, Ast.Int 0, _ when is_pure r -> mk (Ast.Int 0)
    | Ast.Mul, _, Ast.Int 0 when is_pure l -> mk (Ast.Int 0)
    | Ast.Div, _, Ast.Int 1 -> l
    (* short-circuit operators: a constant left side decides *)
    | Ast.And, Ast.Int 0, _ -> mk (Ast.Int 0)
    | Ast.And, Ast.Int _, Ast.Int n -> mk (Ast.Int (truth (n <> 0)))
    | Ast.And, Ast.Int _, _ -> mk (Ast.Unop (Ast.Not, mk (Ast.Unop (Ast.Not, r))))
    | Ast.Or, Ast.Int 0, Ast.Int n -> mk (Ast.Int (truth (n <> 0)))
    | Ast.Or, Ast.Int 0, _ -> mk (Ast.Unop (Ast.Not, mk (Ast.Unop (Ast.Not, r))))
    | Ast.Or, Ast.Int _, _ -> mk (Ast.Int 1)
    (* ... and a constant right side, when the left may be discarded
       (it is still evaluated first, so it must be pure to drop) or
       the result only needs normalizing to a truth value *)
    | Ast.And, _, Ast.Int 0 when is_pure l -> mk (Ast.Int 0)
    | Ast.And, _, Ast.Int n when n <> 0 ->
      mk (Ast.Unop (Ast.Not, mk (Ast.Unop (Ast.Not, l))))
    | Ast.Or, _, Ast.Int 0 -> mk (Ast.Unop (Ast.Not, mk (Ast.Unop (Ast.Not, l))))
    | Ast.Or, _, Ast.Int n when n <> 0 && is_pure l -> mk (Ast.Int 1)
    | _ -> keep ())

(* Mini locals are function-scoped, so a declaration inside a branch
   serves the whole function: a statically-dead branch that declares
   must be kept (its code never runs, but its slots must exist). *)
let rec declares (s : Ast.stmt) =
  match s.sdesc with
  | Ast.Decl _ -> true
  | Ast.If (_, t, el) -> List.exists declares t || List.exists declares el
  | Ast.While (_, b) -> List.exists declares b
  | Ast.For (i, _, st, b) -> declares i || declares st || List.exists declares b
  | Ast.Assign _ | Ast.Astore _ | Ast.Return _ | Ast.Break | Ast.Continue
  | Ast.Expr _ -> false

let rec fold_stmt (s : Ast.stmt) =
  match s.sdesc with
  | Ast.Decl (x, init) -> [ { s with sdesc = Ast.Decl (x, Option.map fold_expr init) } ]
  | Ast.Assign (x, e) -> [ { s with sdesc = Ast.Assign (x, fold_expr e) } ]
  | Ast.Astore (a, i, e) ->
    [ { s with sdesc = Ast.Astore (a, fold_expr i, fold_expr e) } ]
  | Ast.If (c, t, el) -> (
    let c = fold_expr c in
    let ft = fold_block t and fel = fold_block el in
    match c.desc with
    | Ast.Int 0 when not (List.exists declares t) -> fel
    | Ast.Int n when n <> 0 && not (List.exists declares el) -> ft
    | _ -> [ { s with sdesc = Ast.If (c, ft, fel) } ])
  | Ast.While (c, b) -> (
    let c = fold_expr c in
    match c.desc with
    | Ast.Int 0 when not (List.exists declares b) -> []
    | _ -> [ { s with sdesc = Ast.While (c, fold_block b) } ])
  | Ast.For (i, c, st, b) ->
    (* folding the init/step must not drop their effects; only the
       body and condition fold *)
    [ { s with
        sdesc =
          Ast.For
            (List.hd (fold_stmt i), fold_expr c, List.hd (fold_stmt st),
             fold_block b) } ]
  | Ast.Return e -> [ { s with sdesc = Ast.Return (Option.map fold_expr e) } ]
  | Ast.Break | Ast.Continue -> [ s ]
  | Ast.Expr e ->
    let e = fold_expr e in
    if is_pure e then [] else [ { s with sdesc = Ast.Expr e } ]

and fold_block b =
  (* statements after a return are dead, unless they declare *)
  let rec cut = function
    | [] -> []
    | ({ Ast.sdesc = Ast.Return _; _ } as s) :: rest
      when not (List.exists declares rest) -> [ s ]
    | s :: rest -> s :: cut rest
  in
  cut (List.concat_map fold_stmt b)

let constant_fold (p : Ast.program) =
  { p with funs = List.map (fun f -> { f with Ast.body = fold_block f.Ast.body }) p.funs }
