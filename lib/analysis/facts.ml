module Objfile = Objcode.Objfile
module Instr = Objcode.Instr
module Bits = Dataflow.Bits

(* ------------------------------------------------------------------ *)
(* Arity reconstruction *)

let arities ?indirect (cfg : Cfg.t) =
  let o = cfg.Cfg.cfg_obj in
  let indirect = match indirect with Some i -> i | None -> Indirect.analyze o in
  let n = Array.length o.Objfile.symbols in
  (* None = unseen; Some (Some k) = consistent arity k; Some None =
     conflicting call sites *)
  let seen : int option option array = Array.make n None in
  let record nargs id =
    match seen.(id) with
    | None -> seen.(id) <- Some (Some nargs)
    | Some (Some k) when k = nargs -> ()
    | Some _ -> seen.(id) <- Some None
  in
  Array.iteri
    (fun pc ins ->
      match ins with
      | Instr.Call (_, nargs) | Instr.Calli nargs ->
        List.iter (record nargs) (Indirect.callees o indirect ~pc)
      | _ -> ())
    o.Objfile.text;
  (* the entry routine is called by the machine with no arguments *)
  (match Objfile.func_id_of_addr o o.Objfile.entry with
  | Some id when seen.(id) = None -> seen.(id) <- Some (Some 0)
  | _ -> ());
  Array.map (function Some a -> a | None -> None) seen

let scan_nslots (o : Objfile.t) (f : Cfg.func) =
  let hi = ref 0 in
  Array.iter
    (fun (b : Cfg.block) ->
      for pc = b.Cfg.bb_start to b.Cfg.bb_start + b.Cfg.bb_len - 1 do
        match o.Objfile.text.(pc) with
        | Instr.Load s | Instr.Store s -> hi := max !hi (s + 1)
        | _ -> ()
      done)
    f.Cfg.fn_blocks;
  !hi

(* ------------------------------------------------------------------ *)
(* Liveness *)

(* slot sets; [bottom] is a zero-width placeholder the solver seeds,
   widened to the function's slot count where a pass reads it *)
module BitsL = struct
  type t = Bits.t

  let bottom = Bits.empty 0
  let equal = Bits.equal
  let join a b = if a == bottom then b else if b == bottom then a else Bits.union a b
end

module BitsSolver = Dataflow.Make (BitsL)

type live = {
  lv_nslots : int;
  lv_in : Bits.t array;
  lv_out : Bits.t array;
  lv_dead_stores : (int * int) list;
  lv_stats : Dataflow.stats;
}

let liveness ?nslots (o : Objfile.t) (f : Cfg.func) =
  let nslots = max (scan_nslots o f) (Option.value nslots ~default:0) in
  let widen b = if Bits.equal b BitsL.bottom then Bits.empty nslots else b in
  (* backward: the fact is the live-slot set at the point under the
     cursor; walk the block bottom-up *)
  let back bi fact dead =
    let live = ref fact in
    let b = f.Cfg.fn_blocks.(bi) in
    for pc = b.Cfg.bb_start + b.Cfg.bb_len - 1 downto b.Cfg.bb_start do
      match o.Objfile.text.(pc) with
      | Instr.Store s when s < nslots ->
        (match dead with
        | Some acc when not (Bits.mem !live s) -> acc := (pc, s) :: !acc
        | _ -> ());
        live := Bits.remove !live s
      | Instr.Load s when s < nslots -> live := Bits.add !live s
      | _ -> ()
    done;
    !live
  in
  (* precompute per-block upward-exposed uses and defs; the transfer
     is then live_in = use + (live_out - def), no instruction walk *)
  let nblocks = Array.length f.Cfg.fn_blocks in
  let empty = Bits.empty nslots in
  let use = Array.make nblocks empty and def = Array.make nblocks empty in
  Array.iteri
    (fun bi (b : Cfg.block) ->
      let u = ref empty and d = ref empty in
      for pc = b.Cfg.bb_start + b.Cfg.bb_len - 1 downto b.Cfg.bb_start do
        match o.Objfile.text.(pc) with
        | Instr.Store s when s < nslots ->
          u := Bits.remove !u s;
          d := Bits.add !d s
        | Instr.Load s when s < nslots -> u := Bits.add !u s
        | _ -> ()
      done;
      use.(bi) <- !u;
      def.(bi) <- !d)
    f.Cfg.fn_blocks;
  let transfer bi fact =
    Bits.union use.(bi) (Bits.diff (widen fact) def.(bi))
  in
  let res =
    BitsSolver.solve f.Cfg.fn_graph
      {
        direction = Dataflow.Backward;
        boundary = Bits.empty nslots;
        transfer;
        edge = None;
      }
  in
  (* in flow orientation r_in is the fact at block end, r_out at its
     start; surface them in program orientation *)
  let lv_out = Array.map widen res.BitsSolver.r_in in
  let lv_in = Array.map widen res.BitsSolver.r_out in
  let dead =
    if not res.BitsSolver.r_stats.Dataflow.st_converged then []
    else begin
      let acc = ref [] in
      Array.iteri (fun bi _ -> ignore (back bi lv_out.(bi) (Some acc)))
        f.Cfg.fn_blocks;
      List.sort compare !acc
    end
  in
  {
    lv_nslots = nslots;
    lv_in;
    lv_out;
    lv_dead_stores = dead;
    lv_stats = res.BitsSolver.r_stats;
  }

let dead_params (l : live) ~arity =
  if Array.length l.lv_in = 0 || not l.lv_stats.Dataflow.st_converged then []
  else
    List.filter
      (fun p -> p < l.lv_nslots && not (Bits.mem l.lv_in.(0) p))
      (List.init arity Fun.id)

(* ------------------------------------------------------------------ *)
(* Conditional constant propagation *)

type cvalue = Cunknown | Cconst of int

let truth b = Cconst (if b then 1 else 0)

let eval_alu (op : Instr.alu) a b =
  match (a, b) with
  | Cconst a, Cconst b -> (
    match op with
    | Instr.Add -> Cconst (a + b)
    | Instr.Sub -> Cconst (a - b)
    | Instr.Mul -> Cconst (a * b)
    | Instr.Div -> if b = 0 then Cunknown else Cconst (a / b)
    | Instr.Mod -> if b = 0 then Cunknown else Cconst (a mod b)
    | Instr.Lt -> truth (a < b)
    | Instr.Le -> truth (a <= b)
    | Instr.Gt -> truth (a > b)
    | Instr.Ge -> truth (a >= b)
    | Instr.Eq -> truth (a = b)
    | Instr.Ne -> truth (a <> b))
  | _ -> Cunknown

let eval_unop (op : Instr.unop) a =
  match (op, a) with
  | Instr.Neg, Cconst n -> Cconst (-n)
  | Instr.Not, Cconst n -> truth (n = 0)
  | _, Cunknown -> Cunknown

type cenv = { ce_slots : cvalue array; ce_cond : cvalue }

module CpL = struct
  type t = Unreach | Env of cenv

  let bottom = Unreach

  let equal_v a b =
    match (a, b) with
    | Cunknown, Cunknown -> true
    | Cconst x, Cconst y -> x = y
    | _ -> false

  let equal a b =
    match (a, b) with
    | Unreach, Unreach -> true
    | Env a, Env b ->
      equal_v a.ce_cond b.ce_cond
      && (a.ce_slots == b.ce_slots
         || Array.length a.ce_slots = Array.length b.ce_slots
            &&
            let rec go i =
              i < 0 || (equal_v a.ce_slots.(i) b.ce_slots.(i) && go (i - 1))
            in
            go (Array.length a.ce_slots - 1))
    | _ -> false

  let join_v a b = match (a, b) with
    | Cconst x, Cconst y when x = y -> a
    | _ -> Cunknown

  let join a b =
    match (a, b) with
    | Unreach, x | x, Unreach -> x
    | Env a, Env b ->
      Env
        {
          ce_slots = Array.map2 join_v a.ce_slots b.ce_slots;
          ce_cond = join_v a.ce_cond b.ce_cond;
        }
end

module CpSolver = Dataflow.Make (CpL)

type cp = {
  cp_executable : bool array;
  cp_dead_blocks : int list;
  cp_const_branches : (int * int) list;
  cp_stats : Dataflow.stats;
}

let constprop ?arity (o : Objfile.t) (f : Cfg.func) =
  let nslots = max (scan_nslots o f) (Option.value arity ~default:0) in
  let g = f.Cfg.fn_graph in
  let blocks = f.Cfg.fn_blocks in
  let simulate (b : Cfg.block) slots0 =
    let slots = Array.copy slots0 in
    let stack = ref [] in
    let push v = stack := v :: !stack in
    let pop () =
      (* the stack at block entry is unknown (short-circuit codegen
         carries values across labels); popping past the known prefix
         is imprecise, never wrong *)
      match !stack with [] -> Cunknown | v :: r -> stack := r; v
    in
    let cond = ref Cunknown in
    for pc = b.Cfg.bb_start to b.Cfg.bb_start + b.Cfg.bb_len - 1 do
      match o.Objfile.text.(pc) with
      | Instr.Const n -> push (Cconst n)
      | Instr.Load s -> push (if s < nslots then slots.(s) else Cunknown)
      | Instr.Store s ->
        let v = pop () in
        if s < nslots then slots.(s) <- v
      | Instr.Alu op ->
        let rhs = pop () in
        let lhs = pop () in
        push (eval_alu op lhs rhs)
      | Instr.Unop op ->
        let v = pop () in
        push (eval_unop op v)
      | Instr.Syscall (Instr.Sys_print | Instr.Sys_putc) ->
        let v = pop () in
        push v
      | Instr.Jumpz _ -> cond := pop ()
      | ins ->
        let pops, pushes = Instr.pops_pushes ins in
        for _ = 1 to pops do ignore (pop ()) done;
        for _ = 1 to pushes do push Cunknown done
    done;
    (slots, !cond)
  in
  let transfer bi fact =
    match fact with
    | CpL.Unreach -> CpL.Unreach
    | CpL.Env e ->
      let slots, cond = simulate blocks.(bi) e.ce_slots in
      CpL.Env { ce_slots = slots; ce_cond = cond }
  in
  let edge src dst fact =
    match fact with
    | CpL.Unreach -> None
    | CpL.Env e -> (
      let sb = blocks.(src) in
      let last = sb.Cfg.bb_start + sb.Cfg.bb_len - 1 in
      match (o.Objfile.text.(last), e.ce_cond) with
      | Instr.Jumpz t, Cconst c ->
        let dst_addr = blocks.(dst).Cfg.bb_start in
        let wanted = if c = 0 then dst_addr = t else dst_addr = last + 1 in
        if wanted then Some fact else None
      | _ -> Some fact)
  in
  let boundary =
    CpL.Env
      {
        ce_slots =
          Array.init nslots (fun s ->
              match arity with
              | Some a when s >= a -> Cconst 0 (* Enter zero-fills *)
              | _ -> Cunknown);
        ce_cond = Cunknown;
      }
  in
  let res =
    CpSolver.solve g
      { direction = Dataflow.Forward; boundary; transfer; edge = Some edge }
  in
  let n = Array.length blocks in
  if not res.CpSolver.r_stats.Dataflow.st_converged then
    {
      cp_executable = Array.make n true;
      cp_dead_blocks = [];
      cp_const_branches = [];
      cp_stats = res.CpSolver.r_stats;
    }
  else begin
    let executable =
      Array.init n (fun b ->
          b = 0 || res.CpSolver.r_in.(b) <> CpL.Unreach)
    in
    let dead = ref [] in
    for b = n - 1 downto 0 do
      if f.Cfg.fn_reachable.(b) && not executable.(b) then dead := b :: !dead
    done;
    let branches = ref [] in
    Array.iteri
      (fun bi (b : Cfg.block) ->
        if executable.(bi) then
          let last = b.Cfg.bb_start + b.Cfg.bb_len - 1 in
          match o.Objfile.text.(last) with
          | Instr.Jumpz _ when Array.length g.Dataflow.g_succs.(bi) >= 2 -> (
            let e =
              match (bi, res.CpSolver.r_in.(bi)) with
              | 0, CpL.Unreach -> (
                match boundary with CpL.Env e -> Some e | CpL.Unreach -> None)
              | _, CpL.Env e -> Some e
              | _ -> None
            in
            match e with
            | None -> ()
            | Some e -> (
              match snd (simulate b e.ce_slots) with
              | Cconst c -> branches := (last, c) :: !branches
              | Cunknown -> ()))
          | _ -> ())
      blocks;
    {
      cp_executable = executable;
      cp_dead_blocks = !dead;
      cp_const_branches = List.rev !branches;
      cp_stats = res.CpSolver.r_stats;
    }
  end
