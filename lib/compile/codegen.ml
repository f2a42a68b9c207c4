module Ast = Mini.Ast
module Asm = Objcode.Asm

type options = {
  profile : bool;
  count : bool;
  profiled : string -> bool;
  inline : string list;
  fold : bool;
}

let default_options =
  {
    profile = false;
    count = false;
    profiled = (fun _ -> true);
    inline = [];
    fold = false;
  }

let profiling_options = { default_options with profile = true }

type nametbl = {
  globals : (string, unit) Hashtbl.t;
  arrays : (string, unit) Hashtbl.t;
  funs : (string, unit) Hashtbl.t;
}

type fenv = {
  names : nametbl;
  slots : (string, int) Hashtbl.t; (* params and locals *)
  mutable code : Asm.item list; (* reversed *)
  mutable next_label : int;
  mutable loops : (string * string) list;
      (* innermost first: (continue target, break target) *)
}

let emit env i = env.code <- Asm.Ins i :: env.code

(* The items for operators, low slots and small constants are built
   once and shared: they are most of a function's instructions, and an
   aprog lives until it is assembled. *)
let shared = 64

let item_tables make = Array.init shared (fun n -> Asm.Ins (make n))
let load_items = item_tables (fun n -> Asm.ALoad n)
let store_items = item_tables (fun n -> Asm.AStore n)
let const_items = item_tables (fun n -> Asm.AConst n)

let emit_small env table make n =
  if n >= 0 && n < shared then env.code <- table.(n) :: env.code
  else emit env (make n)

let alu_item : Objcode.Instr.alu -> Asm.item = function
  | Add -> Ins (AAlu Add)
  | Sub -> Ins (AAlu Sub)
  | Mul -> Ins (AAlu Mul)
  | Div -> Ins (AAlu Div)
  | Mod -> Ins (AAlu Mod)
  | Lt -> Ins (AAlu Lt)
  | Le -> Ins (AAlu Le)
  | Gt -> Ins (AAlu Gt)
  | Ge -> Ins (AAlu Ge)
  | Eq -> Ins (AAlu Eq)
  | Ne -> Ins (AAlu Ne)

let place env l = env.code <- Asm.Label l :: env.code

let mark_line env (loc : Ast.loc) =
  if loc.line > 0 then env.code <- Asm.SrcLine loc.line :: env.code

let fresh env prefix =
  let n = env.next_label in
  env.next_label <- n + 1;
  prefix ^ Int.to_string n

let bug fmt =
  Format.kasprintf
    (fun s -> invalid_arg ("Codegen: unchecked program: " ^ s))
    fmt

(* Count local declarations (beyond parameters) in a body. *)
let rec locals_in_stmt (s : Ast.stmt) =
  match s.sdesc with
  | Ast.Decl _ -> 1
  | Ast.If (_, t, e) -> locals_in_block t + locals_in_block e
  | Ast.While (_, b) -> locals_in_block b
  | Ast.For (init, _, _, b) -> locals_in_stmt init + locals_in_block b
  | Ast.Assign _ | Ast.Astore _ | Ast.Return _ | Ast.Break | Ast.Continue
  | Ast.Expr _ -> 0

and locals_in_block b = List.fold_left (fun n s -> n + locals_in_stmt s) 0 b

let rec gen_expr env (e : Ast.expr) =
  match e.desc with
  | Ast.Int n -> emit_small env const_items (fun n -> Asm.AConst n) n
  | Ast.Var x -> (
    match Hashtbl.find_opt env.slots x with
    | Some slot -> emit_small env load_items (fun n -> Asm.ALoad n) slot
    | None ->
      if Hashtbl.mem env.names.globals x then emit env (Asm.AGload x)
      else if Hashtbl.mem env.names.funs x then emit env (Asm.AFunref x)
      else bug "unbound variable %s" x)
  | Ast.Index (a, i) ->
    if not (Hashtbl.mem env.names.arrays a) then bug "unbound array %s" a;
    gen_expr env i;
    emit env (Asm.AAload a)
  | Ast.Call (f, args) -> gen_call env f args
  | Ast.Binop (Ast.And, l, r) ->
    (* a && b: 0 if a is 0, else the truth value of b. *)
    let l_false = fresh env "Land_false" in
    let l_end = fresh env "Land_end" in
    gen_expr env l;
    emit env (Asm.AJumpz l_false);
    gen_expr env r;
    emit env (Asm.AUnop Objcode.Instr.Not);
    emit env (Asm.AUnop Objcode.Instr.Not);
    emit env (Asm.AJump l_end);
    place env l_false;
    emit env (Asm.AConst 0);
    place env l_end
  | Ast.Binop (Ast.Or, l, r) ->
    let l_rhs = fresh env "Lor_rhs" in
    let l_end = fresh env "Lor_end" in
    gen_expr env l;
    emit env (Asm.AJumpz l_rhs);
    emit env (Asm.AConst 1);
    emit env (Asm.AJump l_end);
    place env l_rhs;
    gen_expr env r;
    emit env (Asm.AUnop Objcode.Instr.Not);
    emit env (Asm.AUnop Objcode.Instr.Not);
    place env l_end
  | Ast.Binop (op, l, r) ->
    gen_expr env l;
    gen_expr env r;
    let alu : Objcode.Instr.alu =
      match op with
      | Ast.Add -> Add
      | Ast.Sub -> Sub
      | Ast.Mul -> Mul
      | Ast.Div -> Div
      | Ast.Mod -> Mod
      | Ast.Lt -> Lt
      | Ast.Le -> Le
      | Ast.Gt -> Gt
      | Ast.Ge -> Ge
      | Ast.Eq -> Eq
      | Ast.Ne -> Ne
      | Ast.And | Ast.Or -> assert false
    in
    env.code <- alu_item alu :: env.code
  | Ast.Unop (Ast.Neg, e1) ->
    gen_expr env e1;
    emit env (Asm.AUnop Objcode.Instr.Neg)
  | Ast.Unop (Ast.Not, e1) ->
    gen_expr env e1;
    emit env (Asm.AUnop Objcode.Instr.Not)

and gen_call env f args =
  match f.desc with
  | Ast.Var name when Hashtbl.mem env.slots name ->
    (* a local/parameter holding a function value: indirect call *)
    List.iter (gen_expr env) args;
    emit env (Asm.ALoad (Hashtbl.find env.slots name));
    emit env (Asm.ACalli (List.length args))
  | Ast.Var name when Hashtbl.mem env.names.funs name ->
    List.iter (gen_expr env) args;
    emit env (Asm.ACall (name, List.length args))
  | Ast.Var name when Builtins.syscall_of_name name <> None ->
    List.iter (gen_expr env) args;
    emit env (Asm.ASyscall (Option.get (Builtins.syscall_of_name name)))
  | Ast.Var name when Hashtbl.mem env.names.globals name ->
    List.iter (gen_expr env) args;
    emit env (Asm.AGload name);
    emit env (Asm.ACalli (List.length args))
  | Ast.Var name -> bug "unbound callee %s" name
  | _ ->
    (* computed callee, e.g. a[i](x) *)
    List.iter (gen_expr env) args;
    gen_expr env f;
    emit env (Asm.ACalli (List.length args))

let rec gen_stmt env (s : Ast.stmt) =
  mark_line env s.sloc;
  match s.sdesc with
  | Ast.Decl (x, init) ->
    let slot = Hashtbl.length env.slots in
    if Hashtbl.mem env.slots x then bug "duplicate local %s" x;
    Hashtbl.replace env.slots x slot;
    (match init with
    | None -> () (* Enter zero-initializes all locals *)
    | Some e ->
      gen_expr env e;
      emit_small env store_items (fun n -> Asm.AStore n) slot)
  | Ast.Assign (x, e) ->
    gen_expr env e;
    (match Hashtbl.find_opt env.slots x with
    | Some slot -> emit_small env store_items (fun n -> Asm.AStore n) slot
    | None ->
      if Hashtbl.mem env.names.globals x then emit env (Asm.AGstore x)
      else bug "unbound assignment target %s" x)
  | Ast.Astore (a, i, e) ->
    if not (Hashtbl.mem env.names.arrays a) then bug "unbound array %s" a;
    gen_expr env i;
    gen_expr env e;
    emit env (Asm.AAstore a)
  | Ast.If (c, t, e) ->
    let l_else = fresh env "Lelse" in
    let l_end = fresh env "Lend" in
    gen_expr env c;
    emit env (Asm.AJumpz l_else);
    List.iter (gen_stmt env) t;
    emit env (Asm.AJump l_end);
    place env l_else;
    List.iter (gen_stmt env) e;
    place env l_end
  | Ast.While (c, b) ->
    let l_cond = fresh env "Lcond" in
    let l_end = fresh env "Lend" in
    place env l_cond;
    gen_expr env c;
    emit env (Asm.AJumpz l_end);
    env.loops <- (l_cond, l_end) :: env.loops;
    List.iter (gen_stmt env) b;
    env.loops <- List.tl env.loops;
    emit env (Asm.AJump l_cond);
    place env l_end
  | Ast.For (init, c, step, b) ->
    gen_stmt env init;
    let l_cond = fresh env "Lcond" in
    let l_step = fresh env "Lstep" in
    let l_end = fresh env "Lend" in
    place env l_cond;
    gen_expr env c;
    emit env (Asm.AJumpz l_end);
    (* continue in a for loop must still run the step *)
    env.loops <- (l_step, l_end) :: env.loops;
    List.iter (gen_stmt env) b;
    env.loops <- List.tl env.loops;
    place env l_step;
    gen_stmt env step;
    emit env (Asm.AJump l_cond);
    place env l_end
  | Ast.Break -> (
    match env.loops with
    | (_, l_end) :: _ -> emit env (Asm.AJump l_end)
    | [] -> bug "break outside of a loop")
  | Ast.Continue -> (
    match env.loops with
    | (l_next, _) :: _ -> emit env (Asm.AJump l_next)
    | [] -> bug "continue outside of a loop")
  | Ast.Return None ->
    emit env (Asm.AConst 0);
    emit env Asm.ARet
  | Ast.Return (Some e) ->
    gen_expr env e;
    emit env Asm.ARet
  | Ast.Expr e ->
    gen_expr env e;
    emit env Asm.APop

let gen_fun names options (f : Ast.fundef) =
  let env =
    { names; slots = Hashtbl.create 16; code = []; next_label = 0; loops = [] }
  in
  List.iteri (fun i p -> Hashtbl.replace env.slots p i) f.params;
  mark_line env f.floc;
  let instrumented = options.profiled f.fname in
  if options.profile && instrumented then emit env Asm.AMcount;
  if options.count && instrumented then emit env Asm.APcount;
  emit env (Asm.AEnter (locals_in_block f.body));
  List.iter (gen_stmt env) f.body;
  (* Fall off the end: return 0. Unreachable when the body always
     returns, but the assembler is policy-free about dead code. *)
  emit env (Asm.AConst 0);
  emit env Asm.ARet;
  {
    Asm.name = f.fname;
    items = List.rev env.code;
    profiled = options.profile && instrumented;
  }

let to_asm ?(options = default_options) ?(source_name = "<mini>") (p : Ast.program) =
  let names =
    {
      globals = Hashtbl.create 16;
      arrays = Hashtbl.create 16;
      funs = Hashtbl.create 16;
    }
  in
  List.iter
    (function
      | Ast.Gvar (x, _, _) -> Hashtbl.replace names.globals x ()
      | Ast.Garray (x, _, _) -> Hashtbl.replace names.arrays x ())
    p.globals;
  List.iter (fun (f : Ast.fundef) -> Hashtbl.replace names.funs f.fname ()) p.funs;
  {
    Asm.a_globals =
      List.filter_map
        (function Ast.Gvar (x, v, _) -> Some (x, v) | Ast.Garray _ -> None)
        p.globals;
    a_arrays =
      List.filter_map
        (function Ast.Garray (x, n, _) -> Some (x, n) | Ast.Gvar _ -> None)
        p.globals;
    a_funs = List.map (gen_fun names options) p.funs;
    a_entry = "main";
    a_source = source_name;
  }

let compile_program ?(options = default_options) ?(source_name = "<mini>") p =
  let errors =
    Mini.Check.check ~builtins:Builtins.arities p @ Mini.Check.check_entry p
  in
  match errors with
  | e :: _ -> Error (Format.asprintf "%a" Mini.Check.pp_error e)
  | [] ->
    let p =
      match options.inline with
      | [] -> p
      | names -> Transform.inline_expansion ~names p
    in
    let p = if options.fold then Transform.constant_fold p else p in
    Objcode.Asm.assemble (to_asm ~options ~source_name p)

let compile_source ?(options = default_options) ?(source_name = "<mini>") src =
  match Mini.Parser.parse_program src with
  | exception Mini.Parser.Error (msg, loc) ->
    Error (Format.asprintf "%a: %s" Ast.pp_loc loc msg)
  | p -> compile_program ~options ~source_name p
