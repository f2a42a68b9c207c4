(* Tests for the dataflow engine: bit sets, the generic solver (with
   QCheck fixpoint properties), dominators and natural loops (with a
   brute-force dominance oracle on random graphs), the two stock
   instantiations, static cost bounds, the dataflow lint rules — one
   seeded mutation per profile-vs-statics rule — and the
   machine-readable lint report. *)

open Objcode
module Df = Analysis.Dataflow
module Bits = Analysis.Dataflow.Bits

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qt = QCheck_alcotest.to_alcotest

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  nl = 0 || go 0

let workload name src =
  { Workloads.Programs.w_name = name; w_source = src; w_about = name }

let run_workload w =
  match Workloads.Driver.run w with
  | Ok r -> r
  | Error e -> Alcotest.failf "run %s: %s" w.Workloads.Programs.w_name e

let func_named cfg name =
  match
    Array.find_opt
      (fun (f : Analysis.Cfg.func) -> f.fn_symbol.Objcode.Objfile.name = name)
      cfg.Analysis.Cfg.cfg_funcs
  with
  | Some f -> f
  | None -> Alcotest.failf "no function %s" name

let has_rule rule (l : Analysis.Proflint.t) =
  List.exists
    (fun (f : Analysis.Proflint.finding) -> f.f_rule = rule)
    l.l_findings

let rules_fired (l : Analysis.Proflint.t) =
  List.sort_uniq compare
    (List.map (fun (f : Analysis.Proflint.finding) -> f.f_rule) l.l_findings)

(* ------------------------------------------------------------------ *)
(* Bits *)

let test_bits_basics () =
  let w = 200 in
  (* wider than one word, so the operations cross word boundaries *)
  let s = List.fold_left Bits.add (Bits.empty w) [ 0; 63; 64; 127; 199 ] in
  check_bool "mem 63" true (Bits.mem s 63);
  check_bool "mem 64" true (Bits.mem s 64);
  check_bool "mem 65" false (Bits.mem s 65);
  let s' = Bits.remove s 64 in
  check_bool "removed" false (Bits.mem s' 64);
  check_bool "union restores" true (Bits.equal s (Bits.union s' (Bits.add (Bits.empty w) 64)));
  check_bool "diff" true (Bits.equal s' (Bits.diff s (Bits.add (Bits.empty w) 64)))

(* ------------------------------------------------------------------ *)
(* Graphs, reachability *)

let test_graph_reachable () =
  (* diamond plus an unreachable node *)
  let g = Df.graph_of_succs ~entry:0 [| [ 1; 2 ]; [ 3 ]; [ 3 ]; []; [ 0 ] |] in
  let r = Df.reachable g in
  Alcotest.(check (array bool)) "reachable" [| true; true; true; true; false |] r;
  Alcotest.(check (list int)) "preds of 3" [ 1; 2 ]
    (List.sort compare (Array.to_list g.Df.g_preds.(3)))

(* ------------------------------------------------------------------ *)
(* Dominators *)

let test_dom_diamond () =
  let d = Analysis.Dom.of_graph (Df.graph_of_succs ~entry:0 [| [ 1; 2 ]; [ 3 ]; [ 3 ]; [] |]) in
  Alcotest.(check (array int)) "idoms" [| 0; 0; 0; 0 |] d.Analysis.Dom.d_idom;
  check_bool "entry dominates all" true (Analysis.Dom.dominates d 0 3);
  check_bool "1 does not dominate 3" false (Analysis.Dom.dominates d 1 3);
  check_bool "reflexive" true (Analysis.Dom.dominates d 2 2);
  check_int "no loops" 0 (Array.length d.Analysis.Dom.d_loops);
  check_bool "reducible" false d.Analysis.Dom.d_irreducible

let test_dom_nested_loops () =
  (* 0 -> 1(outer header) -> 2(inner header) -> 3 -> {2 back, 4};
     4 -> 1 back; 1 -> 5 exit *)
  let d =
    Analysis.Dom.of_graph
      (Df.graph_of_succs ~entry:0
         [| [ 1 ]; [ 2; 5 ]; [ 3 ]; [ 2; 4 ]; [ 1 ]; [] |])
  in
  check_int "two loops" 2 (Array.length d.Analysis.Dom.d_loops);
  let outer = d.Analysis.Dom.d_loops.(0) and inner = d.Analysis.Dom.d_loops.(1) in
  check_int "outer header" 1 outer.Analysis.Dom.l_header;
  Alcotest.(check (list int)) "outer body" [ 1; 2; 3; 4 ] outer.Analysis.Dom.l_body;
  check_int "outer depth" 1 outer.Analysis.Dom.l_depth;
  check_bool "outer is outermost" true (outer.Analysis.Dom.l_parent = None);
  check_int "inner header" 2 inner.Analysis.Dom.l_header;
  Alcotest.(check (list int)) "inner body" [ 2; 3 ] inner.Analysis.Dom.l_body;
  check_int "inner depth" 2 inner.Analysis.Dom.l_depth;
  check_bool "inner nests in outer" true (inner.Analysis.Dom.l_parent = Some 0);
  Alcotest.(check (array int)) "block depths" [| 0; 1; 2; 2; 1; 0 |]
    d.Analysis.Dom.d_depth;
  check_bool "reducible" false d.Analysis.Dom.d_irreducible

let test_dom_irreducible () =
  (* the classic two-entry loop: 1 <-> 2, both entered from 0 *)
  let d = Analysis.Dom.of_graph (Df.graph_of_succs ~entry:0 [| [ 1; 2 ]; [ 2 ]; [ 1 ] |]) in
  check_bool "irreducible" true d.Analysis.Dom.d_irreducible;
  check_int "no natural loops claimed" 0 (Array.length d.Analysis.Dom.d_loops)

(* A brute-force dominance oracle: [a] dominates [b] iff [b] is
   reachable, and removing [a] from the graph makes [b] unreachable
   (or [a = b]). *)
let edges_to_succs n edges =
  let succs = Array.make n [] in
  List.iter
    (fun (a, b) ->
      if not (List.mem b succs.(a)) then succs.(a) <- succs.(a) @ [ b ])
    edges;
  succs

let reach_avoiding succs avoid =
  let n = Array.length succs in
  let seen = Array.make n false in
  let rec go v =
    if v <> avoid && not seen.(v) then begin
      seen.(v) <- true;
      List.iter go succs.(v)
    end
  in
  if avoid <> 0 then go 0;
  seen

let dom_oracle =
  QCheck.Test.make ~name:"dominates agrees with the brute-force oracle"
    ~count:300
    QCheck.(list_of_size Gen.(int_range 0 18) (pair (int_range 0 5) (int_range 0 5)))
    (fun edges ->
      let n = 6 in
      let succs = edges_to_succs n edges in
      let g = Df.graph_of_succs ~entry:0 succs in
      let d = Analysis.Dom.of_graph g in
      let reachable = reach_avoiding succs (-1) in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          let expected =
            reachable.(b) && (a = b || not (reach_avoiding succs a).(b))
          in
          if Analysis.Dom.dominates d a b <> expected then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* The generic solver *)

module BV = Df.Make (struct
  type t = Bits.t

  let bottom = Bits.empty 8
  let equal = Bits.equal
  let join = Bits.union
end)

let bits_of_mask m =
  let rec go s i =
    if i >= 8 then s
    else go (if m land (1 lsl i) <> 0 then Bits.add s i else s) (i + 1)
  in
  go (Bits.empty 8) 0

let genkill_spec dir genkill =
  let gen = Array.map (fun (g, _) -> bits_of_mask g) genkill in
  let kill = Array.map (fun (_, k) -> bits_of_mask k) genkill in
  {
    BV.direction = dir;
    boundary = Bits.empty 8;
    transfer = (fun b f -> Bits.union gen.(b) (Bits.diff f kill.(b)));
    edge = None;
  }

let solver_fixpoint =
  QCheck.Test.make
    ~name:"a converged solve is a fixpoint (gen/kill, both directions)"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 18) (pair (int_range 0 5) (int_range 0 5)))
        (list_of_size Gen.(return 6) (pair (int_bound 255) (int_bound 255))))
    (fun (edges, genkill) ->
      let g = Df.graph_of_succs ~entry:0 (edges_to_succs 6 edges) in
      let genkill = Array.of_list genkill in
      List.for_all
        (fun dir ->
          let spec = genkill_spec dir genkill in
          let r = BV.solve g spec in
          r.BV.r_stats.Df.st_converged && BV.is_fixpoint g spec r)
        [ Df.Forward; Df.Backward ])

let test_solver_fuel () =
  (* an ever-growing chain on a cycle: the fuel bound must trip *)
  let module Counter = Df.Make (struct
    type t = int

    let bottom = 0
    let equal = Int.equal
    let join = max
  end) in
  let g = Df.graph_of_succs ~entry:0 [| [ 1 ]; [ 0 ] |] in
  let spec =
    {
      Counter.direction = Df.Forward;
      boundary = 0;
      transfer = (fun _ f -> f + 1);
      edge = None;
    }
  in
  let r = Counter.solve ~fuel:50 g spec in
  check_bool "fuel exhausted" false r.Counter.r_stats.Df.st_converged

(* ------------------------------------------------------------------ *)
(* Straight-line agreement: liveness vs the first-access oracle *)

let straightline_obj ops =
  let body =
    List.concat_map
      (fun (write, slot) ->
        if write then [ Instr.Const 1; Instr.Store slot ]
        else [ Instr.Load slot; Instr.Pop ])
      ops
  in
  let text = Array.of_list ((Instr.Enter 4 :: body) @ [ Instr.Const 0; Instr.Ret ]) in
  {
    Objfile.text;
    symbols =
      [| { Objfile.name = "f"; addr = 0; size = Array.length text; profiled = false } |];
    entry = 0;
    globals = [||];
    global_init = [||];
    arrays = [||];
    lines = [||];
    source_name = "straightline";
  }

let straightline_agreement =
  QCheck.Test.make
    ~name:"straight-line liveness matches the trace oracle"
    ~count:300
    QCheck.(list_of_size Gen.(int_range 0 30) (pair bool (int_range 0 3)))
    (fun ops ->
      let o = straightline_obj ops in
      let cfg = Analysis.Cfg.build o in
      let f = cfg.Analysis.Cfg.cfg_funcs.(0) in
      if Array.length f.Analysis.Cfg.fn_blocks <> 1 then false
      else
        let live = Analysis.Facts.liveness ~nslots:4 o f in
        List.for_all
          (fun slot ->
            (* live at entry iff the first access is a read *)
            let rec first_access = function
              | [] -> None
              | (w, s) :: rest ->
                if s = slot then Some (not w) else first_access rest
            in
            Bits.mem live.Analysis.Facts.lv_in.(0) slot
            = (first_access ops = Some true))
          [ 0; 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Arity inference *)

let test_arities_inferred () =
  let r =
    run_workload
      (workload "arities"
         "fun add(a, b) { return a + b; }\n\
          fun main() { return add(1, 2); }")
  in
  let cfg = Analysis.Cfg.build r.objfile in
  let arities = Analysis.Facts.arities cfg in
  let id name =
    match Objfile.symbol_by_name r.objfile name with
    | Some _ ->
      let rec go i =
        if cfg.Analysis.Cfg.cfg_funcs.(i).fn_symbol.Objfile.name = name then i
        else go (i + 1)
      in
      go 0
    | None -> Alcotest.failf "no symbol %s" name
  in
  check_bool "add takes 2" true (arities.(id "add") = Some 2);
  check_bool "main takes 0 (the entry contract)" true (arities.(id "main") = Some 0)

let test_arities_conflict () =
  (* two direct call sites that disagree: nothing can be inferred *)
  let text =
    [|
      (* f at 0 *)
      Instr.Enter 0; Instr.Const 0; Instr.Ret;
      (* main at 3 *)
      Instr.Const 1; Instr.Call (0, 1); Instr.Pop;
      Instr.Const 1; Instr.Const 2; Instr.Call (0, 2); Instr.Pop;
      Instr.Const 0; Instr.Ret;
    |]
  in
  let o =
    {
      Objfile.text;
      symbols =
        [|
          { Objfile.name = "f"; addr = 0; size = 3; profiled = false };
          { Objfile.name = "main"; addr = 3; size = 9; profiled = false };
        |];
      entry = 3;
      globals = [||];
      global_init = [||];
      arrays = [||];
      lines = [||];
      source_name = "conflict";
    }
  in
  let arities = Analysis.Facts.arities (Analysis.Cfg.build o) in
  check_bool "conflicting sites infer nothing" true (arities.(0) = None);
  check_bool "entry still takes 0" true (arities.(1) = Some 0)

(* ------------------------------------------------------------------ *)
(* Constant propagation beats plain reachability *)

let constprop_src =
  "fun main() { var x; x = 0; if (x) { print(999); } return 0; }"

let test_constprop_beats_reach () =
  let r = run_workload (workload "constprop" constprop_src) in
  let o = r.objfile in
  let cfg = Analysis.Cfg.build o in
  let f = func_named cfg "main" in
  let cp = Analysis.Facts.constprop ~arity:0 o f in
  check_bool "a constant branch was found" true
    (cp.Analysis.Facts.cp_const_branches <> []);
  check_bool "a block is proven dead beyond plain reachability" true
    (cp.Analysis.Facts.cp_dead_blocks <> []);
  (* the blocks constprop kills are ones the plain CFG reaches — the
     claim is strictly stronger than Reach's *)
  List.iter
    (fun bi ->
      check_bool "dead block is plain-reachable" true f.Analysis.Cfg.fn_reachable.(bi))
    cp.Analysis.Facts.cp_dead_blocks;
  (* and the linter reports both, against the same binary *)
  let l = Analysis.Proflint.lint_binary o in
  check_bool "const-branch fires" true (has_rule "const-branch" l);
  check_bool "const-dead-block fires" true (has_rule "const-dead-block" l)

let test_dead_store () =
  let r =
    run_workload
      (workload "deadstore" "fun main() { var x; x = 42; x = 7; return x; }")
  in
  let o = r.objfile in
  let f = func_named (Analysis.Cfg.build o) "main" in
  let live = Analysis.Facts.liveness ~nslots:1 o f in
  check_bool "the overwritten store is dead" true
    (live.Analysis.Facts.lv_dead_stores <> []);
  check_bool "dead-store fires" true
    (has_rule "dead-store" (Analysis.Proflint.lint_binary o))

let test_dead_param () =
  let r =
    run_workload
      (workload "deadparam"
         "fun waste(a, b) { return a; }\nfun main() { return waste(1, 2); }")
  in
  let o = r.objfile in
  let cfg = Analysis.Cfg.build o in
  let f = func_named cfg "waste" in
  let live =
    Analysis.Facts.liveness ~nslots:2 o f
  in
  Alcotest.(check (list int)) "slot 1 never read" [ 1 ]
    (Analysis.Facts.dead_params live ~arity:2);
  check_bool "dead-param fires" true
    (has_rule "dead-param" (Analysis.Proflint.lint_binary o))

let test_irreducible_lint () =
  (* handmade: a two-entry loop between [2..3] and [4..5] *)
  let text =
    [|
      Instr.Const 0; Instr.Jumpz 4;
      Instr.Nop; Instr.Jump 4;
      Instr.Nop; Instr.Jump 2;
      Instr.Const 0; Instr.Ret;
    |]
  in
  let o =
    {
      Objfile.text;
      symbols = [| { Objfile.name = "f"; addr = 0; size = 8; profiled = false } |];
      entry = 0;
      globals = [||];
      global_init = [||];
      arrays = [||];
      lines = [||];
      source_name = "irreducible";
    }
  in
  let f = (Analysis.Cfg.build o).Analysis.Cfg.cfg_funcs.(0) in
  let d = Analysis.Dom.compute f in
  check_bool "irreducible" true d.Analysis.Dom.d_irreducible;
  check_bool "irreducible-loop fires" true
    (has_rule "irreducible-loop" (Analysis.Proflint.lint_binary o))

(* ------------------------------------------------------------------ *)
(* Static cost bounds *)

let test_cost_loops_and_recursion () =
  let r =
    run_workload
      (workload "cost"
         "fun work(n) { var i; var s; i = 0; s = 0; \
          while (i < n) { s = s + i; i = i + 1; } return s; }\n\
          fun rec(n) { if (n < 1) { return 0; } return rec(n - 1); }\n\
          fun main() { return work(10) + rec(3); }")
  in
  let cfg = Analysis.Cfg.build r.objfile in
  let est = Analysis.Cost.static_estimate cfg in
  let fn name =
    match
      Array.find_opt (fun c -> c.Analysis.Cost.c_name = name) est.Analysis.Cost.c_funcs
    with
    | Some c -> c
    | None -> Alcotest.failf "no cost entry for %s" name
  in
  let work = fn "work" and recf = fn "rec" and main = fn "main" in
  check_int "work has one loop" 1 work.Analysis.Cost.c_loops;
  check_int "work depth" 1 work.Analysis.Cost.c_depth;
  check_bool "work total is finite" true (work.Analysis.Cost.c_total <> None);
  check_bool "recursion has no finite bound" true (recf.Analysis.Cost.c_total = None);
  check_bool "a caller of recursion inherits the unbound" true
    (main.Analysis.Cost.c_total = None);
  (* loop weighting: the loop body counts more than once *)
  (match work.Analysis.Cost.c_total with
  | Some t -> check_bool "loop-weighted" true (t > 0 && t >= work.Analysis.Cost.c_self)
  | None -> ());
  let listing = Analysis.Cost.listing est in
  check_bool "listing marks the unbounded" true (contains ~needle:"unbounded" listing);
  check_bool "listing names work" true (contains ~needle:"work" listing)

(* ------------------------------------------------------------------ *)
(* The stock workloads and Figure 4 lint clean *)

let test_workloads_lint_clean () =
  List.iter
    (fun w ->
      let r = run_workload w in
      let l = Analysis.Proflint.lint r.objfile r.gmon in
      check_int
        (Printf.sprintf "%s lints clean (rules: %s)" w.Workloads.Programs.w_name
           (String.concat ", "
              (List.filter
                 (fun ru ->
                   List.exists
                     (fun (f : Analysis.Proflint.finding) ->
                       f.f_rule = ru && f.f_severity <> Analysis.Proflint.Info)
                     l.l_findings)
                 (rules_fired l))))
        0
        (Analysis.Proflint.exit_code ~strict:true l))
    Workloads.Programs.all

let test_figure4_lint_clean () =
  let l = Analysis.Proflint.lint Workloads.Figure4.objfile Workloads.Figure4.gmon in
  check_int "figure4 clean" 0 (Analysis.Proflint.exit_code ~strict:true l)

(* ------------------------------------------------------------------ *)
(* Seeded mutations: each profile-vs-statics rule must trip *)

let hot_loop_src =
  "fun leaf(x) { return x + 1; }\n\
   fun main() { var i; var s; i = 0; s = 0; \
   while (i < 200000) { s = leaf(s) + i; i = i + 1; } return s; }"

let test_loop_call_unobserved () =
  let r = run_workload (workload "hotloop" hot_loop_src) in
  let o = r.objfile in
  let leaf =
    match Objfile.symbol_by_name o "leaf" with
    | Some s -> s
    | None -> Alcotest.fail "no leaf"
  in
  (* erase every dynamic arc into the loop's callee *)
  let mutated =
    {
      r.gmon with
      Gmon.arcs =
        List.filter
          (fun (a : Gmon.arc) -> a.Gmon.a_self <> leaf.Objfile.addr)
          r.gmon.Gmon.arcs;
    }
  in
  check_bool "clean before mutation" false
    (has_rule "loop-call-unobserved" (Analysis.Proflint.lint o r.gmon));
  let l = Analysis.Proflint.lint o mutated in
  check_bool "loop-call-unobserved fires" true (has_rule "loop-call-unobserved" l);
  check_int "strict exit" 2 (Analysis.Proflint.exit_code ~strict:true l)

let test_loop_no_ticks () =
  let r = run_workload (workload "hotloop2" hot_loop_src) in
  let o = r.objfile in
  let cfg = Analysis.Cfg.build o in
  let f = func_named cfg "main" in
  let d = Analysis.Dom.compute f in
  let in_loop pc =
    Array.exists
      (fun (l : Analysis.Dom.loop) ->
        List.exists
          (fun bi ->
            let b = f.Analysis.Cfg.fn_blocks.(bi) in
            pc >= b.Analysis.Cfg.bb_start
            && pc < b.Analysis.Cfg.bb_start + b.Analysis.Cfg.bb_len)
          l.Analysis.Dom.l_body)
      d.Analysis.Dom.d_loops
  in
  check_bool "main has a loop" true (Array.length d.Analysis.Dom.d_loops > 0);
  (* move every loop-bucket tick to the function prologue: total ticks
     in the function are conserved, the loop shows none *)
  let h = r.gmon.Gmon.hist in
  let counts = Array.copy h.Gmon.h_counts in
  let moved = ref 0 in
  Array.iteri
    (fun i c ->
      let blo, bhi = Gmon.bucket_range h i in
      if c > 0 && bhi > blo && in_loop blo && in_loop (bhi - 1) then begin
        moved := !moved + c;
        counts.(i) <- 0
      end)
    h.Gmon.h_counts;
  check_bool "the loop had ticks to move" true (!moved > 0);
  let entry_sym = f.Analysis.Cfg.fn_symbol in
  (match Gmon.bucket_of_pc h entry_sym.Objfile.addr with
  | Some i -> counts.(i) <- counts.(i) + !moved
  | None -> Alcotest.fail "entry not covered by the histogram");
  let mutated = { r.gmon with Gmon.hist = { h with Gmon.h_counts = counts } } in
  check_bool "clean before mutation" false
    (has_rule "loop-no-ticks" (Analysis.Proflint.lint o r.gmon));
  let l = Analysis.Proflint.lint o mutated in
  check_bool "loop-no-ticks fires" true (has_rule "loop-no-ticks" l);
  check_int "strict exit" 2 (Analysis.Proflint.exit_code ~strict:true l)

let test_dead_block_ticks () =
  let r = run_workload (workload "deadticks" constprop_src) in
  let o = r.objfile in
  let cfg = Analysis.Cfg.build o in
  let f = func_named cfg "main" in
  (* find a plain-CFG-unreachable block (codegen's trailing epilogue)
     and claim the profiler sampled it *)
  let plain = f.Analysis.Cfg.fn_reachable in
  let dead =
    let rec go i =
      if i >= Array.length plain then Alcotest.fail "no dead block"
      else if not plain.(i) then f.Analysis.Cfg.fn_blocks.(i)
      else go (i + 1)
    in
    go 0
  in
  let h = r.gmon.Gmon.hist in
  let counts = Array.copy h.Gmon.h_counts in
  (match Gmon.bucket_of_pc h dead.Analysis.Cfg.bb_start with
  | Some i -> counts.(i) <- counts.(i) + 5
  | None -> Alcotest.fail "dead block not covered by the histogram");
  let mutated = { r.gmon with Gmon.hist = { h with Gmon.h_counts = counts } } in
  let l = Analysis.Proflint.lint o mutated in
  check_bool "dead-block-ticks fires" true (has_rule "dead-block-ticks" l);
  check_bool "it is an error" true
    (List.exists
       (fun (fi : Analysis.Proflint.finding) ->
         fi.f_rule = "dead-block-ticks" && fi.f_severity = Analysis.Proflint.Error)
       l.l_findings);
  check_int "even lenient fails" 2 (Analysis.Proflint.exit_code ~strict:false l)

(* ------------------------------------------------------------------ *)
(* Aggregation and the machine-readable report *)

let test_aggregate_duplicates () =
  let o = Workloads.Figure4.objfile and g = Workloads.Figure4.gmon in
  let statics = Analysis.Proflint.prepare o in
  let r1 = Analysis.Proflint.lint ~statics o g in
  let r2 = Analysis.Proflint.lint ~statics o g in
  let aggs = Analysis.Proflint.aggregate [ r1; r2 ] in
  check_int "distinct findings, not doubled" (List.length r1.l_findings)
    (List.length aggs);
  List.iter
    (fun (a : Analysis.Proflint.aggregate) ->
      check_int "each seen in both profiles" 2 a.Analysis.Proflint.a_profiles)
    aggs;
  let rendered = Analysis.Proflint.render_aggregate ~nprofiles:2 [ r1; r2 ] in
  check_bool "tagged with the profile count" true
    (contains ~needle:"(2/2 profiles)" rendered);
  check_bool "one combined summary" true
    (contains ~needle:"over 2 profile(s)" rendered)

let test_json_deterministic_and_parses () =
  let o = Workloads.Figure4.objfile and g = Workloads.Figure4.gmon in
  let j1 =
    Analysis.Proflint.to_json ~binary:"figure4" ~profiles:[ "a"; "b" ]
      [ Analysis.Proflint.lint o g; Analysis.Proflint.lint o g ]
  in
  let j2 =
    Analysis.Proflint.to_json ~binary:"figure4" ~profiles:[ "a"; "b" ]
      [ Analysis.Proflint.lint o g; Analysis.Proflint.lint o g ]
  in
  check_bool "byte-identical across runs" true (String.equal j1 j2);
  (* independent parse-back *)
  let v = Obs.Jsonin.parse_exn j1 in
  let member k =
    match Obs.Jsonin.member k v with
    | Some x -> x
    | None -> Alcotest.failf "missing %s" k
  in
  check_bool "schema" true
    (Obs.Jsonin.to_string (member "schema") = Some Analysis.Proflint.json_schema);
  check_bool "binary" true (Obs.Jsonin.to_string (member "binary") = Some "figure4");
  let findings =
    match Obs.Jsonin.to_list (member "findings") with
    | Some l -> l
    | None -> Alcotest.fail "findings not a list"
  in
  let summary = member "summary" in
  check_bool "summary.findings counts the array" true
    (Obs.Jsonin.to_int
       (Option.get (Obs.Jsonin.member "findings" summary))
    = Some (List.length findings));
  (* every finding is well-shaped and sorted by (rule, func, addr) *)
  let keys =
    List.map
      (fun fv ->
        let get k = Obs.Jsonin.member k fv in
        let rule = Option.bind (get "rule") Obs.Jsonin.to_string in
        check_bool "has rule" true (rule <> None);
        check_bool "has severity" true
          (Option.bind (get "severity") Obs.Jsonin.to_string <> None);
        check_bool "has profiles count" true
          (Option.bind (get "profiles") Obs.Jsonin.to_int <> None);
        check_bool "has msg" true
          (Option.bind (get "msg") Obs.Jsonin.to_string <> None);
        ( Option.value ~default:"" rule,
          Option.bind (get "func") Obs.Jsonin.to_string,
          Option.bind (get "addr") Obs.Jsonin.to_int ))
      findings
  in
  check_bool "sorted by (rule, func, addr)" true
    (List.sort compare keys = keys)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_published () =
  let reg = Obs.Metrics.default in
  let before = Obs.Metrics.counter_value (Obs.Metrics.counter reg "analysis.dataflow.passes") in
  let r = run_workload (workload "metrics" constprop_src) in
  let l = Analysis.Proflint.lint r.objfile r.gmon in
  ignore l;
  let after = Obs.Metrics.counter_value (Obs.Metrics.counter reg "analysis.dataflow.passes") in
  check_bool "dataflow passes counted" true (after > before);
  check_bool "iterations counted" true
    (Obs.Metrics.counter_value (Obs.Metrics.counter reg "analysis.dataflow.iterations") > 0);
  check_bool "loops counted" true
    (Obs.Metrics.counter_value (Obs.Metrics.counter reg "analysis.dom.loops") > 0);
  check_bool "per-rule fired counter" true
    (Obs.Metrics.counter_value (Obs.Metrics.counter reg "analysis.lint.fired.const-branch") > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "dataflow"
    [
      ( "bits",
        [
          Alcotest.test_case "basics" `Quick test_bits_basics;
          Alcotest.test_case "graph reachability" `Quick test_graph_reachable;
        ] );
      ( "dom",
        [
          Alcotest.test_case "diamond" `Quick test_dom_diamond;
          Alcotest.test_case "nested loops" `Quick test_dom_nested_loops;
          Alcotest.test_case "irreducible" `Quick test_dom_irreducible;
          qt dom_oracle;
        ] );
      ( "solver",
        [
          qt solver_fixpoint;
          Alcotest.test_case "fuel bound" `Quick test_solver_fuel;
          qt straightline_agreement;
        ] );
      ( "facts",
        [
          Alcotest.test_case "arities inferred" `Quick test_arities_inferred;
          Alcotest.test_case "arity conflict" `Quick test_arities_conflict;
          Alcotest.test_case "constprop beats reach" `Quick test_constprop_beats_reach;
          Alcotest.test_case "dead store" `Quick test_dead_store;
          Alcotest.test_case "dead param" `Quick test_dead_param;
          Alcotest.test_case "irreducible lint" `Quick test_irreducible_lint;
        ] );
      ( "cost",
        [ Alcotest.test_case "loops and recursion" `Quick test_cost_loops_and_recursion ] );
      ( "lint",
        [
          Alcotest.test_case "workloads clean" `Slow test_workloads_lint_clean;
          Alcotest.test_case "figure4 clean" `Quick test_figure4_lint_clean;
          Alcotest.test_case "loop-call-unobserved" `Quick test_loop_call_unobserved;
          Alcotest.test_case "loop-no-ticks" `Quick test_loop_no_ticks;
          Alcotest.test_case "dead-block-ticks" `Quick test_dead_block_ticks;
        ] );
      ( "report",
        [
          Alcotest.test_case "aggregation" `Quick test_aggregate_duplicates;
          Alcotest.test_case "json determinism" `Quick test_json_deterministic_and_parses;
          Alcotest.test_case "metrics" `Quick test_metrics_published;
        ] );
    ]
