(* Profile-guided optimization as it was before block layout moved
   onto the Asm items: the program is assembled once to find block
   boundaries (Cfg.build on the object, chunks_of and block_terms
   mapping addresses back to items, block_lines walking the line
   table), then again after the relayout. A verbatim copy but for the
   type equations and without the decision log, kept only as the
   reference the PGO parity property (test_fuzz.ml) runs beside Pgo.
   Its report is Pgo.report, so Pgo.report_listing renders both. *)

module Ast = Mini.Ast
module Asm = Objcode.Asm
module Objfile = Objcode.Objfile
module Codegen = Compile.Codegen
module Transform = Compile.Transform
module Cfg = Analysis.Cfg
module Dom = Analysis.Dom
module Profile = Gprof_core.Profile
module Symtab = Gprof_core.Symtab

type inline_decision = Pgo.inline_decision = {
  i_callee : string;
  i_calls : int;
  i_sites : int;
  i_size : int;
  i_taken : bool;
  i_why : string;
}

type reorder_decision = Pgo.reorder_decision = {
  r_func : string;
  r_blocks : int;
  r_layout : int list;
  r_cold : int;
  r_jumps_cut : int;
  r_jumps_added : int;
}

type report = Pgo.report = {
  p_source : string;
  p_ticks : int;
  p_runs : int;
  p_arc_records : int;
  p_hot_calls : int;
  p_max_size : int;
  p_budget : int;
  p_inline : inline_decision list;
  p_inline_names : string list;
  p_reorder : reorder_decision list;
  p_reorder_skipped : int;
  p_order : (string * float) list;
}

(* --- heat: translate the profile's raw addresses into names and
   source lines, so the measurements survive the AST transforms and
   relayout that follow ------------------------------------------------ *)

type heat = {
  ht_line_ticks : (int, float) Hashtbl.t;
      (* source line -> prorated histogram ticks (reference build) *)
  ht_callee_calls : (string * int * int) list;
      (* callee name, dynamic calls, distinct call sites; callees with
         at least one attributable (non-spontaneous) arc, in first-
         observation order *)
  ht_incl : (string, float) Hashtbl.t;
      (* function name -> inclusive (self + descendants) seconds *)
}

let tbl_addf tbl k v =
  let cur = Option.value (Hashtbl.find_opt tbl k) ~default:0.0 in
  Hashtbl.replace tbl k (cur +. v)

let heat_of (o : Objfile.t) (g : Gmon.t) (prof : Profile.t) =
  let line_ticks = Hashtbl.create 64 in
  let h = g.Gmon.hist in
  Array.iteri
    (fun i count ->
      if count > 0 then begin
        let lo, hi = Gmon.bucket_range h i in
        if hi > lo then begin
          (* a bucket spanning several instructions splits its ticks
             evenly; with the VM's default bucket size this is exact *)
          let share = float_of_int count /. float_of_int (hi - lo) in
          for a = lo to hi - 1 do
            match Objfile.line_of_addr o a with
            | Some l -> tbl_addf line_ticks l share
            | None -> ()
          done
        end
      end)
    h.Gmon.h_counts;
  let calls = Hashtbl.create 16 and sites = Hashtbl.create 16 in
  let seen = ref [] in
  List.iter
    (fun (a : Gmon.arc) ->
      (* spontaneous arcs (a_from outside any routine) have no call
         site to inline, so they do not count toward callee heat *)
      match (Objfile.find_symbol o a.a_from, Objfile.func_id_of_addr o a.a_self) with
      | Some _, Some id ->
        let callee = o.Objfile.symbols.(id).Objfile.name in
        if not (Hashtbl.mem calls callee) then seen := callee :: !seen;
        Hashtbl.replace calls callee
          (a.a_count + Option.value (Hashtbl.find_opt calls callee) ~default:0);
        Hashtbl.replace sites callee
          (1 + Option.value (Hashtbl.find_opt sites callee) ~default:0)
      | _ -> ())
    g.Gmon.arcs;
  let callee_calls =
    List.rev_map
      (fun name ->
        (name, Hashtbl.find calls name, Hashtbl.find sites name))
      !seen
  in
  let incl = Hashtbl.create 16 in
  Array.iter
    (fun (e : Profile.entry) ->
      Hashtbl.replace incl
        (Symtab.name prof.Profile.symtab e.Profile.e_id)
        (e.Profile.e_self +. e.Profile.e_child))
    prof.Profile.entries;
  { ht_line_ticks = line_ticks; ht_callee_calls = callee_calls; ht_incl = incl }

(* --- inline selection: arc count x callee size under a budget ------- *)

let select_inlines ~forced ~eligible ~size_of ~max_size ~budget heat =
  let total =
    List.fold_left (fun n (_, c, _) -> n + c) 0 heat.ht_callee_calls
  in
  let hot = max 16 (total / 50) in
  let observed =
    List.sort
      (fun (n1, c1, _) (n2, c2, _) -> compare (-c1, n1) (-c2, n2))
      heat.ht_callee_calls
  in
  (* forced names the profile never saw still expand; list them so the
     log explains every name that reaches the expander *)
  let unobserved_forced =
    List.filter
      (fun n -> not (List.exists (fun (m, _, _) -> m = n) observed))
      forced
  in
  let spent = ref 0 in
  let decide (name, calls, sites) =
    let size = size_of name in
    let taken, why =
      if List.mem name forced then (true, "forced by --inline")
      else if not (List.mem name eligible) then
        (false, "not inlinable: body is not a lone non-recursive return")
      else if calls < hot then
        (false, Printf.sprintf "cold: %d calls under threshold %d" calls hot)
      else if size > max_size then
        (false, Printf.sprintf "too large: %d instrs over limit %d" size max_size)
      else begin
        let growth = sites * size in
        if !spent + growth > budget then
          (false,
           Printf.sprintf "budget: growth %d exceeds remaining %d" growth
             (budget - !spent))
        else begin
          spent := !spent + growth;
          (true, Printf.sprintf "hot and small: growth %d, budget left %d" growth
             (budget - !spent))
        end
      end
    in
    { i_callee = name; i_calls = calls; i_sites = sites; i_size = size;
      i_taken = taken; i_why = why }
  in
  let decisions =
    List.map decide observed
    @ List.map
        (fun n ->
          { i_callee = n; i_calls = 0; i_sites = 0; i_size = size_of n;
            i_taken = true; i_why = "forced by --inline" })
        unobserved_forced
  in
  let names =
    List.filter_map (fun d -> if d.i_taken then Some d.i_callee else None)
      decisions
  in
  (hot, decisions, names)

(* --- hot/cold function splitting ------------------------------------ *)

let order_funs ~incl_of ~inlined funs =
  let keyed =
    List.mapi
      (fun i (f : Asm.afun) ->
        (* an inlined-away callee's profile time now lives in its
           callers; its own number is stale, so it goes cold *)
        let cold = if List.mem f.Asm.name inlined then 1 else 0 in
        ((cold, -.incl_of f.Asm.name, i), f))
      funs
  in
  List.map snd (List.sort (fun (k1, _) (k2, _) -> compare k1 k2) keyed)

(* --- basic-block reordering ------------------------------------------

   The assembled function gives exact block boundaries (Cfg) and a
   line table; reference-build line ticks project onto the blocks, and
   a greedy chain lays the hottest successor next so it falls through.
   Fixups keep control flow identical: a trailing jump to the block
   placed next is cut; a displaced fall-through gets an explicit jump.
   Conditions are never inverted: Jumpz costs the same taken or not,
   so there is nothing to win. *)

type term =
  | Tjump of int  (* unconditional, to block index *)
  | Tcond of int * int  (* Jumpz: taken block, fall-through block *)
  | Tfall of int  (* falls into the next block *)
  | Tstop  (* Ret / Halt *)

type chunk = {
  mutable c_items : Asm.item list;  (* in order *)
  mutable c_label : string option;  (* a label at the block entry, if any *)
}

exception Give_up

(* Split an afun's item list into per-block chunks matching the
   assembled blocks. Labels and SrcLine markers attach to the
   instruction that follows them; every chunk opens with a SrcLine so
   relocating it cannot corrupt the line table. *)
let chunks_of (fn : Cfg.func) (items : Asm.item list) =
  let sym = fn.Cfg.fn_symbol in
  let blocks = fn.Cfg.fn_blocks in
  let n = Array.length blocks in
  let start_of = Hashtbl.create (2 * n) in
  Array.iteri
    (fun j b -> Hashtbl.replace start_of (b.Cfg.bb_start - sym.Objfile.addr) j)
    blocks;
  (* chunk item lists are built reversed, flipped at the end *)
  let chunks = Array.init n (fun _ -> { c_items = []; c_label = None }) in
  let label_pos = Hashtbl.create 16 in
  let cur = ref 0 and k = ref 0 in
  let pending = ref [] (* reversed *) and cur_line = ref 0 in
  let add j it = chunks.(j).c_items <- it :: chunks.(j).c_items in
  List.iter
    (fun it ->
      match it with
      | Asm.Label l ->
        Hashtbl.replace label_pos l !k;
        pending := it :: !pending
      | Asm.SrcLine ln ->
        cur_line := ln;
        pending := it :: !pending
      | Asm.Ins _ ->
        let j =
          match Hashtbl.find_opt start_of !k with Some j -> j | None -> !cur
        in
        if j <> !cur || !k = 0 then begin
          (* opening chunk j: the pending labels/markers belong to it,
             and it gets a source-line marker so relocating the chunk
             cannot corrupt the line table *)
          if
            j <> !cur && !cur_line > 0
            && not
                 (List.exists
                    (function Asm.SrcLine _ -> true | _ -> false)
                    !pending)
          then add j (Asm.SrcLine !cur_line);
          List.iter
            (fun p ->
              (match p with
              | Asm.Label l ->
                if chunks.(j).c_label = None then chunks.(j).c_label <- Some l
              | _ -> ());
              add j p)
            (List.rev !pending);
          pending := [];
          cur := j
        end
        else begin
          List.iter (add !cur) (List.rev !pending);
          pending := []
        end;
        add !cur it;
        incr k)
    items;
  (* trailing labels/markers (none in compiler output, but keep them) *)
  List.iter (add !cur) (List.rev !pending);
  if !k <> sym.Objfile.size then raise Give_up;
  Array.iter (fun c -> c.c_items <- List.rev c.c_items) chunks;
  (chunks, label_pos, start_of)

let block_terms (fn : Cfg.func) chunks label_pos start_of =
  let sym = fn.Cfg.fn_symbol in
  let blocks = fn.Cfg.fn_blocks in
  let block_of_label l =
    match Hashtbl.find_opt label_pos l with
    | None -> raise Give_up
    | Some k -> (
      match Hashtbl.find_opt start_of k with
      | Some j -> j
      | None -> raise Give_up)
  in
  Array.mapi
    (fun j (b : Cfg.block) ->
      let last =
        List.fold_left
          (fun acc it -> match it with Asm.Ins i -> Some i | _ -> acc)
          None chunks.(j).c_items
      in
      let fall () =
        let next = b.Cfg.bb_start + b.Cfg.bb_len - sym.Objfile.addr in
        match Hashtbl.find_opt start_of next with
        | Some j' -> j'
        | None -> raise Give_up
      in
      match last with
      | None -> raise Give_up
      | Some (Asm.AJump l) -> Tjump (block_of_label l)
      | Some (Asm.AJumpz l) -> Tcond (block_of_label l, fall ())
      | Some (Asm.ARet | Asm.AHalt) -> Tstop
      | Some _ -> Tfall (fall ()))
    blocks

(* The distinct source lines of the addresses [lo, hi), the last found
   first. The line table is strictly ascending, so they are the line
   in force at [lo] and those of the entries inside the range: one
   binary search and a walk, not a lookup per address. *)
let block_lines (obj : Objfile.t) lo hi =
  let table = obj.Objfile.lines in
  let n = Array.length table in
  (* [k]: the number of entries at or below [lo] *)
  let rec count l h =
    if l >= h then l
    else
      let m = (l + h) / 2 in
      if fst table.(m) <= lo then count (m + 1) h else count l m
  in
  let k = count 0 n in
  let lines = ref [] in
  let add l = if not (List.mem l !lines) then lines := l :: !lines in
  if k > 0 && lo < hi then add (snd table.(k - 1));
  let i = ref k in
  while !i < n && fst table.(!i) < hi do
    add (snd table.(!i));
    incr i
  done;
  !lines

let reorder_fun ~(line_ticks : (int, float) Hashtbl.t) ~obj ~(fn : Cfg.func)
    (f : Asm.afun) =
  let blocks = fn.Cfg.fn_blocks in
  let n = Array.length blocks in
  if n <= 2 then None
  else begin
    (* project reference-build line ticks onto the blocks: a block is
       as hot as the distinct source lines it implements *)
    let block_heat =
      Array.map
        (fun (b : Cfg.block) ->
          List.fold_left
            (fun h l ->
              h +. Option.value (Hashtbl.find_opt line_ticks l) ~default:0.0)
            0.0
            (block_lines obj b.Cfg.bb_start (b.Cfg.bb_start + b.Cfg.bb_len)))
        blocks
    in
    if Array.for_all (fun h -> h = 0.0) block_heat then None
    else
      try
        let chunks, label_pos, start_of = chunks_of fn f.Asm.items in
        let terms = block_terms fn chunks label_pos start_of in
        let depth = (Dom.compute fn).Dom.d_depth in
        let better a b =
          block_heat.(a) > block_heat.(b)
          || (block_heat.(a) = block_heat.(b)
              && (depth.(a) > depth.(b) || (depth.(a) = depth.(b) && a < b)))
        in
        let pick = function
          | [] -> None
          | j :: rest ->
            Some (List.fold_left (fun b j' -> if better j' b then j' else b) j rest)
        in
        let placed = Array.make n false in
        placed.(0) <- true;
        let order = ref [ 0 ] and count = ref 1 and last = ref 0 in
        while !count < n do
          let cands =
            List.filter (fun j -> not placed.(j))
              (Array.to_list fn.Cfg.fn_graph.Analysis.Dataflow.g_succs.(!last))
          in
          let next =
            match pick cands with
            | Some j -> j
            | None ->
              let rest = ref [] in
              for j = n - 1 downto 0 do
                if not placed.(j) then rest := j :: !rest
              done;
              Option.get (pick !rest)
          in
          placed.(next) <- true;
          order := next :: !order;
          incr count;
          last := next
        done;
        let order = List.rev !order in
        begin
          let arr = Array.of_list order in
          let drop_last = Array.make n false in
          let append_to = Array.make n None in
          let cut = ref 0 and added = ref 0 in
          let fresh = ref 0 in
          let label_of j =
            match chunks.(j).c_label with
            | Some l -> l
            | None ->
              let rec gen () =
                let l = Printf.sprintf "Lpgo%d" !fresh in
                incr fresh;
                if Hashtbl.mem label_pos l then gen () else l
              in
              let l = gen () in
              chunks.(j).c_label <- Some l;
              chunks.(j).c_items <- Asm.Label l :: chunks.(j).c_items;
              l
          in
          Array.iteri
            (fun t j ->
              let next = if t + 1 < n then Some arr.(t + 1) else None in
              match terms.(j) with
              | Tjump tgt when Some tgt = next ->
                drop_last.(j) <- true;
                incr cut
              | Tjump _ | Tstop -> ()
              | Tcond (_, fl) | Tfall fl ->
                if Some fl <> next then begin
                  append_to.(j) <- Some (label_of fl);
                  incr added
                end)
            arr;
          let items =
            List.concat_map
              (fun j ->
                let body =
                  if drop_last.(j) then
                    match List.rev chunks.(j).c_items with
                    | Asm.Ins _ :: rest -> List.rev rest
                    | _ -> chunks.(j).c_items
                  else chunks.(j).c_items
                in
                match append_to.(j) with
                | Some l -> body @ [ Asm.Ins (Asm.AJump l) ]
                | None -> body)
              order
          in
          let identity = order = List.init n (fun i -> i) in
          if identity && !cut = 0 && !added = 0 then None
          else begin
            let cold =
              Array.fold_left
                (fun c h -> if h = 0.0 then c + 1 else c)
                0 block_heat
            in
            Some
              ( { f with Asm.items },
                { r_func = f.Asm.name; r_blocks = n; r_layout = order;
                  r_cold = cold; r_jumps_cut = !cut; r_jumps_added = !added } )
          end
        end
      with Give_up -> None
  end

(* [obj] is [aprog] assembled, so its i-th function is the i-th afun *)
let reorder_blocks ~line_ticks (aprog : Asm.aprog) (obj : Objfile.t) =
  let cfg = Cfg.build obj in
  let decisions = ref [] and skipped = ref 0 in
  let funs =
    List.mapi
      (fun i (f : Asm.afun) ->
        let fn = cfg.Cfg.cfg_funcs.(i) in
        match
          if Array.length fn.Cfg.fn_blocks > 0 then
            reorder_fun ~line_ticks ~obj ~fn f
          else None
        with
        | Some (f', d) ->
          decisions := d :: !decisions;
          f'
        | None ->
          incr skipped;
          f)
      aprog.Asm.a_funs
  in
  ({ aprog with Asm.a_funs = funs }, List.rev !decisions, !skipped)

(* --- the driver ------------------------------------------------------ *)

(* the inliner's bounds: the largest callee it expands, in
   instructions, and the estimated growth it allows in all *)
let max_callee_size = 24
let growth_budget = 256

let optimize ?(options = Codegen.default_options) ?(source_name = "<mini>") p
    gmon =
  (* the reference build reproduces the binary the profile was
     gathered from: same options, no inlining *)
  let ref_options = { options with Codegen.inline = [] } in
  match Codegen.compile_program ~options:ref_options ~source_name p with
  | Error e -> Error e
  | Ok refobj -> (
    (* the lint and the report read one preparation of the reference
       build, which [assemble] validated *)
    let statics = Result.get_ok (Analysis.Proflint.prepare refobj) in
    let lint = Analysis.Proflint.lint statics gmon in
    match
      List.find_opt
        (fun (f : Analysis.Proflint.finding) ->
          f.Analysis.Proflint.f_severity = Analysis.Proflint.Error)
        lint.Analysis.Proflint.l_findings
    with
    | Some f ->
      Error
        (Printf.sprintf
           "profile does not pair with this program: [%s] %s"
           f.Analysis.Proflint.f_rule f.Analysis.Proflint.f_msg)
    | None -> (
      match
        Gprof_core.Report.analyze
          ~indirect:statics.Analysis.Proflint.s_indirect refobj gmon
      with
      | Error e -> Error ("profile analysis failed: " ^ e)
      | Ok rep -> (
        let heat = heat_of refobj gmon rep.Gprof_core.Report.profile in
        let size_of name =
          match Objfile.symbol_by_name refobj name with
          | Some s -> s.Objfile.size
          | None -> max_int
        in
        let hot, inline_decisions, selected =
          select_inlines ~forced:options.Codegen.inline
            ~eligible:(Transform.inlinable p) ~size_of
            ~max_size:max_callee_size ~budget:growth_budget heat
        in
        let p1 =
          if selected = [] then p
          else Transform.inline_expansion ~names:selected p
        in
        let p2 = if options.Codegen.fold then Transform.constant_fold p1 else p1 in
        let aprog = Codegen.to_asm ~options ~source_name p2 in
        let incl_of name =
          Option.value (Hashtbl.find_opt heat.ht_incl name) ~default:0.0
        in
        let aprog =
          { aprog with
            Asm.a_funs =
              order_funs ~incl_of ~inlined:selected aprog.Asm.a_funs }
        in
        match Asm.assemble aprog with
        | Error e -> Error ("pgo layout failed to assemble: " ^ e)
        | Ok obj0 -> (
          let aprog, reorder, skipped =
            reorder_blocks ~line_ticks:heat.ht_line_ticks aprog obj0
          in
          match Asm.assemble aprog with
          | Error e -> Error ("pgo block reorder failed to assemble: " ^ e)
          | Ok obj ->
            let report =
              { p_source = source_name;
                p_ticks = Gmon.total_ticks gmon;
                p_runs = gmon.Gmon.runs;
                p_arc_records = List.length gmon.Gmon.arcs;
                p_hot_calls = hot;
                p_max_size = max_callee_size;
                p_budget = growth_budget;
                p_inline = inline_decisions;
                p_inline_names = selected;
                p_reorder = reorder;
                p_reorder_skipped = skipped;
                p_order =
                  List.map
                    (fun (f : Asm.afun) -> (f.Asm.name, incl_of f.Asm.name))
                    aprog.Asm.a_funs }
            in
            Ok (obj, report)))))
