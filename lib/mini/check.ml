type error = { msg : string; loc : Ast.loc }

let pp_error ppf { msg; loc } = Format.fprintf ppf "%a: %s" Ast.pp_loc loc msg

type binding =
  | Scalar (* global var *)
  | Array of int
  | Func of int (* arity *)
  | Builtin of int
  | LocalVar (* parameter or local *)

type env = {
  globals : (string, binding) Hashtbl.t;
  mutable locals : (string, binding) Hashtbl.t;
  mutable loop_depth : int;
  mutable errors : error list; (* reversed *)
}

let err env loc fmt =
  Format.kasprintf (fun msg -> env.errors <- { msg; loc } :: env.errors) fmt

let lookup env x =
  match Hashtbl.find_opt env.locals x with
  | Some b -> Some b
  | None -> Hashtbl.find_opt env.globals x

let rec check_expr env (e : Ast.expr) =
  match e.desc with
  | Ast.Int _ -> ()
  | Ast.Var x -> (
    match lookup env x with
    | None -> err env e.eloc "unbound variable %s" x
    | Some (Array _) ->
      err env e.eloc "array %s cannot be used as a value; index it" x
    | Some (Builtin _) ->
      err env e.eloc "builtin %s may only be called directly" x
    | Some (Scalar | Func _ | LocalVar) -> ())
  | Ast.Index (a, i) ->
    (match lookup env a with
    | None -> err env e.eloc "unbound array %s" a
    | Some (Array _) -> ()
    | Some _ -> err env e.eloc "%s is not an array" a);
    check_expr env i
  | Ast.Call (f, args) ->
    List.iter (check_expr env) args;
    (match f.desc with
    | Ast.Var name -> (
      match lookup env name with
      | Some (Func arity | Builtin arity) ->
        if List.length args <> arity then
          err env e.eloc "%s expects %d argument%s but got %d" name arity
            (if arity = 1 then "" else "s")
            (List.length args)
      | Some (Scalar | LocalVar) -> () (* indirect call; checked at run time *)
      | Some (Array _) -> err env e.eloc "array %s cannot be called" name
      | None -> err env e.eloc "unbound function %s" name)
    | _ -> check_expr env f)
  | Ast.Binop (_, l, r) ->
    check_expr env l;
    check_expr env r
  | Ast.Unop (_, e1) -> check_expr env e1

let check_lvalue env loc x =
  match lookup env x with
  | None -> err env loc "unbound variable %s" x
  | Some (Func _ | Builtin _) -> err env loc "cannot assign to function %s" x
  | Some (Array _) -> err env loc "cannot assign to array %s without an index" x
  | Some (Scalar | LocalVar) -> ()

let rec check_stmt env (s : Ast.stmt) =
  match s.sdesc with
  | Ast.Decl (x, init) ->
    Option.iter (check_expr env) init;
    if Hashtbl.mem env.locals x then
      err env s.sloc "duplicate local declaration of %s" x
    else Hashtbl.replace env.locals x LocalVar
  | Ast.Assign (x, e) ->
    check_expr env e;
    check_lvalue env s.sloc x
  | Ast.Astore (a, i, e) ->
    check_expr env i;
    check_expr env e;
    (match lookup env a with
    | None -> err env s.sloc "unbound array %s" a
    | Some (Array _) -> ()
    | Some _ -> err env s.sloc "%s is not an array" a)
  | Ast.If (c, t, e) ->
    check_expr env c;
    List.iter (check_stmt env) t;
    List.iter (check_stmt env) e
  | Ast.While (c, b) ->
    check_expr env c;
    env.loop_depth <- env.loop_depth + 1;
    List.iter (check_stmt env) b;
    env.loop_depth <- env.loop_depth - 1
  | Ast.For (init, c, step, b) ->
    check_stmt env init;
    check_expr env c;
    (match step.sdesc with
    | Ast.Decl _ -> err env step.sloc "for-step may not declare a variable"
    | _ -> check_stmt env step);
    env.loop_depth <- env.loop_depth + 1;
    List.iter (check_stmt env) b;
    env.loop_depth <- env.loop_depth - 1
  | Ast.Return e -> Option.iter (check_expr env) e
  | Ast.Break ->
    if env.loop_depth = 0 then err env s.sloc "break outside of a loop"
  | Ast.Continue ->
    if env.loop_depth = 0 then err env s.sloc "continue outside of a loop"
  | Ast.Expr e -> check_expr env e

let check_fundef env (f : Ast.fundef) =
  env.locals <- Hashtbl.create 16;
  env.loop_depth <- 0;
  List.iter
    (fun p ->
      if Hashtbl.mem env.locals p then
        err env f.floc "duplicate parameter %s in %s" p f.fname
      else Hashtbl.replace env.locals p LocalVar)
    f.params;
  List.iter (check_stmt env) f.body

let check ?(builtins = []) (p : Ast.program) =
  let globals = Hashtbl.create 64 in
  List.iter (fun (name, arity) -> Hashtbl.replace globals name (Builtin arity)) builtins;
  let env = { globals; locals = Hashtbl.create 16; loop_depth = 0; errors = [] } in
  (* First pass: declare globals and functions (mutual recursion is
     allowed, so functions are visible before their definitions). *)
  List.iter
    (fun g ->
      let name, binding, loc =
        match g with
        | Ast.Gvar (x, _, loc) -> (x, Scalar, loc)
        | Ast.Garray (x, n, loc) -> (x, Array n, loc)
      in
      if Hashtbl.mem globals name then err env loc "duplicate global %s" name
      else Hashtbl.replace globals name binding)
    p.globals;
  List.iter
    (fun (f : Ast.fundef) ->
      if Hashtbl.mem globals f.fname then
        err env f.floc "duplicate definition of %s" f.fname
      else Hashtbl.replace globals f.fname (Func (List.length f.params)))
    p.funs;
  (* Second pass: check bodies. *)
  List.iter (check_fundef env) p.funs;
  List.rev env.errors

let check_entry (p : Ast.program) =
  match List.find_opt (fun (f : Ast.fundef) -> f.fname = "main") p.funs with
  | None -> [ { msg = "program has no main function"; loc = Ast.dummy_loc } ]
  | Some f ->
    if f.params = [] then []
    else [ { msg = "main must take no parameters"; loc = f.floc } ]
