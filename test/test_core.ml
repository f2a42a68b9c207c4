(* Tests for the gprof post-processor: symbol resolution, histogram
   assignment, call-graph construction, cycle discovery, time
   propagation (including the Figure 4 golden scenario), and the
   listings. *)

open Gprof_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_time = Alcotest.(check (float 1e-6))

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* A tiny synthetic executable: routines of 4 instructions each. *)
let synthetic names =
  let fsize = 4 in
  {
    Objcode.Objfile.text =
      Array.concat
        (List.map
           (fun _ -> [| Objcode.Instr.Mcount; Enter 0; Const 0; Ret |])
           names);
    symbols =
      Array.of_list
        (List.mapi
           (fun i name ->
             { Objcode.Objfile.name; addr = i * fsize; size = fsize; profiled = true })
           names);
    entry = 0;
    globals = [||];
    global_init = [||];
    arrays = [||];
    lines = [||];
    source_name = "synthetic";
  }

let entry_of o name =
  (Option.get (Objcode.Objfile.symbol_by_name o name)).Objcode.Objfile.addr

(* ------------------------------------------------------------------ *)
(* Symtab *)

let test_symtab () =
  let o = synthetic [ "a"; "b"; "c" ] in
  let st = Symtab.of_objfile o in
  check_int "n_funcs" 3 (Symtab.n_funcs st);
  Alcotest.(check string) "name" "b" (Symtab.name st 1);
  check_int "entry" 4 (Symtab.entry st 1);
  Alcotest.(check (option int)) "id_of_pc inside" (Some 1) (Symtab.id_of_pc st 6);
  Alcotest.(check (option int)) "id_of_entry exact" (Some 1) (Symtab.id_of_entry st 4);
  Alcotest.(check (option int)) "id_of_entry inexact" None (Symtab.id_of_entry st 5);
  Alcotest.(check (option int)) "by name" (Some 2) (Symtab.id_of_name st "c");
  (match Symtab.ids_of_names st [ "a"; "c" ] with
  | Ok [ 0; 2 ] -> ()
  | _ -> Alcotest.fail "ids_of_names");
  match Symtab.ids_of_names st [ "a"; "nope" ] with
  | Error "nope" -> ()
  | _ -> Alcotest.fail "unknown name must error"

(* ------------------------------------------------------------------ *)
(* Assign *)

let test_assign_exact_buckets () =
  let o = synthetic [ "a"; "b" ] in
  let st = Symtab.of_objfile o in
  let hist = Gmon.make_hist ~lowpc:0 ~highpc:8 ~bucket_size:1 in
  let counts = Array.copy hist.h_counts in
  counts.(1) <- 30;
  (* inside a *)
  counts.(5) <- 60;
  (* inside b *)
  let r = Assign.assign st { hist with h_counts = counts } in
  check_time "a ticks" 30.0 r.self_ticks.(0);
  check_time "b ticks" 60.0 r.self_ticks.(1);
  check_time "nothing unattributed" 0.0 r.unattributed;
  check_int "total" 90 r.total_ticks;
  check_bool "conserved" true (Assign.check_conservation r)

let test_assign_straddling_bucket () =
  (* Bucket size 8 over two 4-instruction functions: one bucket covers
     both; its ticks split 50/50 by overlap. *)
  let o = synthetic [ "a"; "b" ] in
  let st = Symtab.of_objfile o in
  let hist = Gmon.make_hist ~lowpc:0 ~highpc:8 ~bucket_size:8 in
  let counts = Array.copy hist.h_counts in
  counts.(0) <- 10;
  let r = Assign.assign st { hist with h_counts = counts } in
  check_time "a half" 5.0 r.self_ticks.(0);
  check_time "b half" 5.0 r.self_ticks.(1);
  check_bool "conserved" true (Assign.check_conservation r)

let test_assign_gap_unattributed () =
  (* A symbol table with a hole: ticks in the hole are unattributed. *)
  let o =
    {
      (synthetic [ "a"; "b" ]) with
      Objcode.Objfile.symbols =
        [|
          { Objcode.Objfile.name = "a"; addr = 0; size = 2; profiled = true };
          { Objcode.Objfile.name = "b"; addr = 6; size = 2; profiled = true };
        |];
    }
  in
  let st = Symtab.of_objfile o in
  let hist = Gmon.make_hist ~lowpc:0 ~highpc:8 ~bucket_size:1 in
  let counts = Array.copy hist.h_counts in
  counts.(3) <- 7;
  counts.(6) <- 2;
  let r = Assign.assign st { hist with h_counts = counts } in
  check_time "hole unattributed" 7.0 r.unattributed;
  check_time "b gets its ticks" 2.0 r.self_ticks.(1);
  check_bool "conserved" true (Assign.check_conservation r)

let assign_conservation_prop =
  QCheck.Test.make ~name:"assignment conserves ticks at any granularity" ~count:200
    QCheck.(pair (int_range 1 16) (list_of_size Gen.(int_range 1 40) (int_range 0 50)))
    (fun (bucket, tick_list) ->
      let o = synthetic [ "f"; "g"; "h" ] in
      let st = Symtab.of_objfile o in
      let hist = Gmon.make_hist ~lowpc:0 ~highpc:12 ~bucket_size:bucket in
      let counts = Array.copy hist.h_counts in
      List.iteri
        (fun i t -> counts.(i mod Array.length counts) <-
            counts.(i mod Array.length counts) + t)
        tick_list;
      let r = Assign.assign st { hist with h_counts = counts } in
      Assign.check_conservation r)

(* ------------------------------------------------------------------ *)
(* Arcgraph *)

let gmon_of o ?(ticks = []) arcs =
  let n = Array.length o.Objcode.Objfile.text in
  let hist = Gmon.make_hist ~lowpc:0 ~highpc:n ~bucket_size:1 in
  let counts = Array.copy hist.h_counts in
  List.iter (fun (name, t) -> counts.(entry_of o name + 1) <- t) ticks;
  {
    Gmon.hist = { hist with h_counts = counts };
    arcs =
      List.map
        (fun (from, callee, count) ->
          let a_from =
            match from with
            | `Spont -> -1
            | `Site name -> entry_of o name + 2
          in
          { Gmon.a_from; a_self = entry_of o callee; a_count = count })
        arcs
      |> List.sort (fun (a : Gmon.arc) b ->
             compare (a.a_from, a.a_self) (b.a_from, b.a_self));
    ticks_per_second = 60;
    cycles_per_tick = 16_666;
    runs = 1;
  }

let test_arcgraph_build () =
  let o = synthetic [ "main"; "f"; "g" ] in
  let st = Symtab.of_objfile o in
  let g =
    gmon_of o
      [ (`Spont, "main", 1); (`Site "main", "f", 10); (`Site "main", "g", 5);
        (`Site "f", "g", 3) ]
  in
  let ag = Arcgraph.build st g.arcs in
  check_int "arcs" 3 (Graphlib.Digraph.n_arcs ag.graph);
  check_int "main->f" 10 (Graphlib.Digraph.arc_count ag.graph ~src:0 ~dst:1);
  Alcotest.(check (list (pair int int))) "spontaneous" [ (0, 1) ] ag.spontaneous;
  check_int "no drops" 0 ag.dropped

let test_arcgraph_static_merge () =
  let o = synthetic [ "main"; "f" ] in
  let st = Symtab.of_objfile o in
  let g = gmon_of o [ (`Site "main", "f", 10) ] in
  let ag = Arcgraph.build ~static:[ (0, 1); (1, 0) ] st g.arcs in
  check_int "dynamic kept its count" 10
    (Graphlib.Digraph.arc_count ag.graph ~src:0 ~dst:1);
  check_bool "static added with zero" true
    (Graphlib.Digraph.mem_arc ag.graph ~src:1 ~dst:0
    && Graphlib.Digraph.arc_count ag.graph ~src:1 ~dst:0 = 0);
  Alcotest.(check (list (pair int int))) "dynamic arcs tracked" [ (0, 1) ]
    ag.dynamic_arcs

let test_arcgraph_dropped () =
  let o = synthetic [ "main" ] in
  let st = Symtab.of_objfile o in
  (* callee address 2 is inside main, not an entry *)
  let arcs = [ { Gmon.a_from = 2; a_self = 2; a_count = 5 } ] in
  let ag = Arcgraph.build st arcs in
  check_int "dropped" 1 ag.dropped;
  check_int "no arcs" 0 (Graphlib.Digraph.n_arcs ag.graph)

let test_arcgraph_remove () =
  let o = synthetic [ "main"; "f" ] in
  let st = Symtab.of_objfile o in
  let g = gmon_of o [ (`Site "main", "f", 10); (`Spont, "main", 1) ] in
  let ag = Arcgraph.build st g.arcs in
  let ag2 = Arcgraph.remove_arcs ag [ (0, 1) ] in
  check_bool "arc removed" true (not (Graphlib.Digraph.mem_arc ag2.graph ~src:0 ~dst:1));
  Alcotest.(check (list (pair int int))) "spontaneous untouched" [ (0, 1) ]
    ag2.spontaneous

let test_arcgraph_remove_nothing () =
  let o = synthetic [ "main"; "f" ] in
  let st = Symtab.of_objfile o in
  let g = gmon_of o [ (`Site "main", "f", 10); (`Spont, "main", 1) ] in
  let ag = Arcgraph.build ~static:[ (1, 0) ] st g.arcs in
  let arcs (ag : Arcgraph.t) =
    let acc = ref [] in
    Graphlib.Digraph.iter_arcs
      (fun ~src ~dst ~count -> acc := (src, dst, count) :: !acc)
      ag.graph;
    List.sort compare !acc
  in
  let before = arcs ag in
  let ag2 = Arcgraph.remove_arcs ag [] in
  check_bool "the graph is not copied" true (ag2.graph == ag.graph);
  Alcotest.(check (list (triple int int int))) "arcs unchanged" before (arcs ag2);
  Alcotest.(check (list (pair int int))) "dynamic arcs unchanged" [ (0, 1) ]
    ag2.dynamic_arcs

(* ------------------------------------------------------------------ *)
(* Propagation on hand-built scenarios *)

let analyze o gmon ?(options = Report.default_options) () =
  match Report.analyze ~options o gmon with
  | Ok r -> r.profile
  | Error e -> Alcotest.failf "analyze: %s" e

let entry_by (p : Profile.t) name =
  p.entries.(Option.get (Symtab.id_of_name p.symtab name))

let test_propagate_chain () =
  (* main -> mid -> leaf, all of leaf's and mid's time flows up. *)
  let o = synthetic [ "main"; "mid"; "leaf" ] in
  let g =
    gmon_of o
      ~ticks:[ ("main", 6); ("mid", 60); ("leaf", 120) ]
      [ (`Spont, "main", 1); (`Site "main", "mid", 4); (`Site "mid", "leaf", 8) ]
  in
  let p = analyze o g () in
  let main = entry_by p "main" and mid = entry_by p "mid" and leaf = entry_by p "leaf" in
  check_time "leaf self" 2.0 leaf.e_self;
  check_time "leaf child" 0.0 leaf.e_child;
  check_time "mid self" 1.0 mid.e_self;
  check_time "mid child" 2.0 mid.e_child;
  check_time "main child" 3.0 main.e_child;
  check_time "total" 3.1 p.total_time;
  check_time "main total = program total" p.total_time (main.e_self +. main.e_child)

let test_propagate_shared_callee () =
  (* Two parents share a callee 1:3; child time splits accordingly. *)
  let o = synthetic [ "main"; "p1"; "p2"; "shared" ] in
  let g =
    gmon_of o
      ~ticks:[ ("shared", 120) ]
      [
        (`Spont, "main", 1); (`Site "main", "p1", 1); (`Site "main", "p2", 1);
        (`Site "p1", "shared", 2); (`Site "p2", "shared", 6);
      ]
  in
  let p = analyze o g () in
  check_time "p1 gets 25%" 0.5 (entry_by p "p1").e_child;
  check_time "p2 gets 75%" 1.5 (entry_by p "p2").e_child;
  (* Displayed arc shares match. *)
  let p1 = entry_by p "p1" in
  (match p1.e_children with
  | [ v ] ->
    check_time "arc view self share" 0.5 v.av_self;
    check_int "count" 2 v.av_count;
    check_int "total" 8 v.av_total
  | _ -> Alcotest.fail "p1 should have one child view");
  (* Parent views on the shared entry mirror them. *)
  let sh = entry_by p "shared" in
  check_int "two parents" 2 (List.length sh.e_parents)

let test_propagate_self_recursion () =
  (* Self arcs don't propagate and split out of the call count. *)
  let o = synthetic [ "main"; "rec" ] in
  let g =
    gmon_of o
      ~ticks:[ ("rec", 60) ]
      [ (`Spont, "main", 1); (`Site "main", "rec", 3); (`Site "rec", "rec", 7) ]
  in
  let p = analyze o g () in
  let r = entry_by p "rec" in
  check_int "external calls" 3 r.e_calls;
  check_int "self calls" 7 r.e_self_calls;
  check_time "parent inherits everything" 1.0 (entry_by p "main").e_child;
  check_int "no cycles" 0 (Array.length p.cycles)

let test_propagate_cycle () =
  (* a <-> b form a cycle; c is the cycle's child; parents split the
     whole-cycle total by external call counts. *)
  let o = synthetic [ "main"; "other"; "a"; "b"; "c" ] in
  let g =
    gmon_of o
      ~ticks:[ ("a", 60); ("b", 120); ("c", 60) ]
      [
        (`Spont, "main", 1); (`Spont, "other", 1);
        (`Site "main", "a", 1); (`Site "other", "a", 3);
        (`Site "a", "b", 5); (`Site "b", "a", 2);
        (`Site "b", "c", 4);
      ]
  in
  let p = analyze o g () in
  check_int "one cycle" 1 (Array.length p.cycles);
  let c = p.cycles.(0) in
  check_time "cycle self" 3.0 c.c_self;
  check_time "cycle child" 1.0 c.c_child;
  check_int "external calls" 4 c.c_calls;
  check_int "intra calls" 7 c.c_intra_calls;
  check_time "main gets 1/4 of 4.0" 1.0 (entry_by p "main").e_child;
  check_time "other gets 3/4" 3.0 (entry_by p "other").e_child;
  (* Intra-cycle arc views are listed but carry no time. *)
  let a = entry_by p "a" in
  let intra =
    List.filter (fun (v : Profile.arc_view) -> v.av_intra) a.e_children
  in
  check_int "intra child view" 1 (List.length intra);
  List.iter
    (fun (v : Profile.arc_view) -> check_time "no time on intra" 0.0 v.av_self)
    intra;
  (* Member names carry the cycle tag. *)
  check_bool "cycle tag" true
    (contains ~needle:"<cycle 1>" (Profile.name_with_cycle p a.e_id))

let test_propagate_static_completes_cycle () =
  (* Dynamic arcs: a -> b only. A static arc b -> a closes the cycle;
     it must affect membership but no time flows on a zero-count arc. *)
  let o = synthetic [ "main"; "a"; "b" ] in
  let g =
    gmon_of o
      ~ticks:[ ("a", 30); ("b", 30) ]
      [ (`Spont, "main", 1); (`Site "main", "a", 2); (`Site "a", "b", 2) ]
  in
  let without = analyze o g () in
  check_int "no cycle without static" 0 (Array.length without.cycles);
  (* Inject the static arc through the arcgraph by hand. *)
  let st = Symtab.of_objfile o in
  let asg = Assign.assign st g.Gmon.hist in
  let ag = Arcgraph.build ~static:[ (2, 1) ] st g.Gmon.arcs in
  let p = Propagate.run st asg ag ~seconds_per_tick:(1.0 /. 60.0) in
  check_int "cycle with static" 1 (Array.length p.cycles);
  check_time "main still inherits all cycle time" 1.0 (entry_by p "main").e_child

let test_propagate_zero_calls_no_crash () =
  (* A function with ticks but no callers at all (dead code that the
     sampler hit — can happen with gaps): denominator 0. *)
  let o = synthetic [ "main"; "ghost" ] in
  let g = gmon_of o ~ticks:[ ("main", 30); ("ghost", 30) ] [ (`Spont, "main", 1) ] in
  let p = analyze o g () in
  check_time "ghost keeps its time" 0.5 (entry_by p "ghost").e_self;
  check_time "main child empty" 0.0 (entry_by p "main").e_child

(* Conservation on random DAGs: total time flowing into spontaneous
   roots equals total self time. *)
let propagate_conservation_prop =
  QCheck.Test.make ~name:"propagation conserves time on random DAGs" ~count:150
    QCheck.(
      pair (int_range 2 8)
        (pair (list_of_size Gen.(int_range 0 20) (pair (int_range 0 7) (int_range 0 7)))
           (list_of_size Gen.(int_range 1 8) (int_range 0 100))))
    (fun (n, (raw_arcs, ticks)) ->
      let names = List.init n (fun i -> Printf.sprintf "f%d" i) in
      let o = synthetic names in
      let st = Symtab.of_objfile o in
      (* Keep only downward arcs (i < j) to guarantee a DAG, count 1-3. *)
      let arcs =
        List.filter_map
          (fun (a, b) ->
            let a = a mod n and b = b mod n in
            if a < b then Some (a, b) else None)
          raw_arcs
        |> List.sort_uniq compare
      in
      let hist = Gmon.make_hist ~lowpc:0 ~highpc:(4 * n) ~bucket_size:1 in
      let counts = Array.copy hist.h_counts in
      List.iteri
        (fun i t -> if i < n then counts.((i * 4) + 1) <- t)
        ticks;
      let gmon_arcs =
        ({ Gmon.a_from = -1; a_self = 0; a_count = 1 }
        :: List.map
             (fun (a, b) ->
               { Gmon.a_from = (a * 4) + 2; a_self = b * 4; a_count = 1 + ((a + b) mod 3) })
             arcs)
        @
        (* every non-root needs a spontaneous parent too, so no time is
           stranded in unreachable nodes *)
        List.init (n - 1) (fun i ->
            { Gmon.a_from = -1; a_self = (i + 1) * 4; a_count = 1 })
      in
      let gmon_arcs =
        List.sort
          (fun (a : Gmon.arc) b -> compare (a.a_from, a.a_self) (b.a_from, b.a_self))
          gmon_arcs
      in
      let asg = Assign.assign st { hist with h_counts = counts } in
      let ag = Arcgraph.build st gmon_arcs in
      let p = Propagate.run st asg ag ~seconds_per_tick:1.0 in
      (* Conservation: sum over functions of (self) equals total, and
         the time propagated to spontaneous callers over all entries
         equals total as well (every root is spontaneous here). *)
      let total = Array.fold_left (fun a e -> a +. e.Profile.e_self) 0.0 p.entries in
      let spont_share =
        Array.fold_left
          (fun acc (e : Profile.entry) ->
            List.fold_left
              (fun acc (v : Profile.arc_view) ->
                if v.av_other = Profile.Spontaneous then
                  acc +. v.av_self +. v.av_child
                else acc)
              acc e.e_parents)
          0.0 p.entries
      in
      abs_float (total -. p.total_time) < 1e-6
      && abs_float (spont_share -. p.total_time) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Figure 4 golden *)

let fig4_profile () =
  match Report.analyze Workloads.Figure4.objfile Workloads.Figure4.gmon with
  | Ok r -> r.profile
  | Error e -> Alcotest.failf "figure4: %s" e

let test_figure4_numbers () =
  let p = fig4_profile () in
  check_time "total run time" Workloads.Figure4.expected_total_seconds p.total_time;
  let e = entry_by p "EXAMPLE" in
  check_time "self 0.50" 0.5 e.e_self;
  check_time "descendants 3.00" 3.0 e.e_child;
  check_int "called 10" 10 e.e_calls;
  check_int "self-recursive 4" 4 e.e_self_calls;
  Alcotest.(check (float 0.05)) "41.5%" 41.5
    (Profile.percent_time p (Profile.Func e.e_id));
  (* Parents: CALLER1 4/10 with 0.20/1.20, CALLER2 6/10 with 0.30/1.80,
     in ascending share order. *)
  (match e.e_parents with
  | [ c1; c2 ] ->
    check_int "caller1 count" 4 c1.av_count;
    check_int "caller1 total" 10 c1.av_total;
    check_time "caller1 self" 0.2 c1.av_self;
    check_time "caller1 desc" 1.2 c1.av_child;
    check_int "caller2 count" 6 c2.av_count;
    check_time "caller2 self" 0.3 c2.av_self;
    check_time "caller2 desc" 1.8 c2.av_child
  | ps -> Alcotest.failf "expected 2 parents, got %d" (List.length ps));
  (* Children: SUB1 in the cycle 20/40 showing the cycle share 1.50/1.00,
     SUB2 1/5 showing 0.00/0.50, SUB3 0/5 showing nothing. *)
  (match e.e_children with
  | [ s1; s2; s3 ] ->
    check_int "sub1 count" 20 s1.av_count;
    check_int "sub1 total (cycle external calls)" 40 s1.av_total;
    check_time "sub1 shows half the cycle's self" 1.5 s1.av_self;
    check_time "sub1 shows half the cycle's desc" 1.0 s1.av_child;
    check_int "sub2 count" 1 s2.av_count;
    check_int "sub2 total" 5 s2.av_total;
    check_time "sub2 self share" 0.0 s2.av_self;
    check_time "sub2 desc share" 0.5 s2.av_child;
    check_int "sub3 zero count" 0 s3.av_count;
    check_int "sub3 total" 5 s3.av_total;
    check_time "sub3 no time" 0.0 (s3.av_self +. s3.av_child)
  | cs -> Alcotest.failf "expected 3 children, got %d" (List.length cs));
  (* The cycle as a whole. *)
  check_int "one cycle" 1 (Array.length p.cycles);
  let c = p.cycles.(0) in
  check_time "cycle self 3.00" 3.0 c.c_self;
  check_time "cycle desc 2.00" 2.0 c.c_child;
  check_int "cycle called 40" 40 c.c_calls;
  check_int "cycle intra 5" 5 c.c_intra_calls

let test_figure4_static_arc_comes_from_scanner () =
  (* Without static augmentation, EXAMPLE has no SUB3 child at all. *)
  let p_without =
    match
      Report.analyze
        ~options:{ Report.default_options with use_static_arcs = false }
        Workloads.Figure4.objfile Workloads.Figure4.gmon
    with
    | Ok r -> r.profile
    | Error e -> Alcotest.failf "figure4: %s" e
  in
  check_int "2 children without static" 2
    (List.length (entry_by p_without "EXAMPLE").e_children);
  let p_with = fig4_profile () in
  check_int "3 children with static" 3
    (List.length (entry_by p_with "EXAMPLE").e_children)

let test_figure4_rendered_block () =
  let p = fig4_profile () in
  let id = Option.get (Symtab.id_of_name p.symtab "EXAMPLE") in
  let block = Graphprof.entry_block p (Profile.Func id) in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "block contains %S" needle) true
        (contains ~needle block))
    [
      "41.5"; "0.50"; "3.00"; "10+4"; "0.20"; "1.20"; "4/10"; "0.30"; "1.80";
      "6/10"; "1.50"; "1.00"; "20/40"; "1/5"; "0/5"; "CALLER1"; "CALLER2";
      "EXAMPLE"; "SUB1 <cycle 1>"; "SUB2"; "SUB3";
    ]

let test_figure4_flat_sums_to_total () =
  let p = fig4_profile () in
  let rows = Flat.rows p in
  let sum = List.fold_left (fun a (_, s, _, _) -> a +. s) 0.0 rows in
  check_time "flat self times sum to total" p.total_time sum;
  (* Cumulative column of the last row is the total. *)
  match List.rev rows with
  | (_, _, cum, _) :: _ -> check_time "cumulative ends at total" p.total_time cum
  | [] -> Alcotest.fail "no rows"

(* ------------------------------------------------------------------ *)
(* Listings and report options *)

let test_never_called_listed () =
  let o = synthetic [ "main"; "used"; "dead" ] in
  let g =
    gmon_of o ~ticks:[ ("used", 30) ]
      [ (`Spont, "main", 1); (`Site "main", "used", 2) ]
  in
  let p = analyze o g () in
  Alcotest.(check (list int)) "dead is never called" [ 2 ] p.never_called;
  check_bool "flat mentions it" true
    (contains ~needle:"routines never called" (Flat.listing p));
  check_bool "flat names it" true (contains ~needle:"dead" (Flat.listing p))

let test_spontaneous_rendered () =
  let o = synthetic [ "main" ] in
  let g = gmon_of o ~ticks:[ ("main", 30) ] [ (`Spont, "main", 1) ] in
  let p = analyze o g () in
  check_bool "graph shows <spontaneous>" true
    (contains ~needle:"<spontaneous>" (Graphprof.listing p))

let test_index_listing () =
  let p = fig4_profile () in
  let listing = Xindex.listing p in
  check_bool "has cycle entry" true (contains ~needle:"<cycle 1>" listing);
  check_bool "alphabetical CALLER1 before CALLER2" true
    (let i1 = ref 0 and i2 = ref 0 in
     String.iteri (fun i _ -> if i + 7 <= String.length listing
                    && String.sub listing i 7 = "CALLER1" then i1 := i) listing;
     String.iteri (fun i _ -> if i + 7 <= String.length listing
                    && String.sub listing i 7 = "CALLER2" then i2 := i) listing;
     !i1 < !i2)

let test_report_focus () =
  let p =
    match
      Report.analyze
        ~options:{ Report.default_options with focus = [ "SUB2" ] }
        Workloads.Figure4.objfile Workloads.Figure4.gmon
    with
    | Ok r -> r.profile
    | Error e -> Alcotest.failf "focus: %s" e
  in
  let listed =
    Array.to_list p.order
    |> List.filter_map (function
         | Profile.Func id -> Some (Symtab.name p.symtab id)
         | _ -> None)
  in
  check_bool "SUB2 kept" true (List.mem "SUB2" listed);
  check_bool "its parent EXAMPLE kept" true (List.mem "EXAMPLE" listed);
  check_bool "its child DEPTH2 kept" true (List.mem "DEPTH2" listed);
  check_bool "unrelated DEPTH1 dropped" true (not (List.mem "DEPTH1" listed))

let test_report_rejects_foreign_gmon () =
  let g = Workloads.Figure4.gmon in
  let foreign =
    { g with Gmon.hist = Gmon.make_hist ~lowpc:0 ~highpc:7 ~bucket_size:1 }
  in
  match Report.analyze Workloads.Figure4.objfile foreign with
  | Error e -> check_bool "explains mismatch" true (contains ~needle:"wrong gmon" e)
  | Ok _ -> Alcotest.fail "accepted a profile for a different binary"

let test_report_exclude () =
  let p =
    match
      Report.analyze
        ~options:{ Report.default_options with exclude = [ "SUB2"; "DEPTH1" ] }
        Workloads.Figure4.objfile Workloads.Figure4.gmon
    with
    | Ok r -> r.profile
    | Error e -> Alcotest.failf "exclude: %s" e
  in
  let listed =
    Array.to_list p.order
    |> List.filter_map (function
         | Profile.Func id -> Some (Symtab.name p.symtab id)
         | _ -> None)
  in
  check_bool "SUB2 gone" true (not (List.mem "SUB2" listed));
  check_bool "DEPTH1 gone" true (not (List.mem "DEPTH1" listed));
  check_bool "EXAMPLE kept" true (List.mem "EXAMPLE" listed);
  (* time still propagates: EXAMPLE's numbers are untouched *)
  check_time "EXAMPLE self unchanged" 0.5 (entry_by p "EXAMPLE").e_self;
  check_time "EXAMPLE descendants unchanged" 3.0 (entry_by p "EXAMPLE").e_child;
  match
    Report.analyze
      ~options:{ Report.default_options with exclude = [ "nope" ] }
      Workloads.Figure4.objfile Workloads.Figure4.gmon
  with
  | Error e -> check_bool "unknown name reported" true (contains ~needle:"nope" e)
  | Ok _ -> Alcotest.fail "unknown exclude accepted"

(* Two routines named [f], which Objfile.validate accepts: main calls
   each once. A name given to --exclude, --focus or --remove-arc
   stands for both. *)
let test_report_duplicate_names () =
  let open Objcode.Instr in
  let o =
    {
      Objcode.Objfile.text =
        [| Mcount; Enter 0; Const 1; Ret;
           Mcount; Enter 0; Const 2; Ret;
           Mcount; Enter 0; Call (0, 0); Pop; Call (4, 0); Pop; Const 0; Ret |];
      symbols =
        [|
          { Objcode.Objfile.name = "f"; addr = 0; size = 4; profiled = true };
          { Objcode.Objfile.name = "f"; addr = 4; size = 4; profiled = true };
          { Objcode.Objfile.name = "main"; addr = 8; size = 8; profiled = true };
        |];
      entry = 8;
      globals = [||];
      global_init = [||];
      arrays = [||];
      lines = [||];
      source_name = "twof";
    }
  in
  Alcotest.(check (result unit (list string))) "validates" (Ok ())
    (Objcode.Objfile.validate o);
  let hist = Gmon.make_hist ~lowpc:0 ~highpc:16 ~bucket_size:1 in
  let counts = Array.copy hist.h_counts in
  counts.(1) <- 2;
  counts.(5) <- 3;
  counts.(9) <- 1;
  let g =
    {
      Gmon.hist = { hist with h_counts = counts };
      arcs =
        [ { Gmon.a_from = -1; a_self = 8; a_count = 1 };
          { Gmon.a_from = 10; a_self = 0; a_count = 1 };
          { Gmon.a_from = 12; a_self = 4; a_count = 1 } ];
      ticks_per_second = 60;
      cycles_per_tick = 16_666;
      runs = 1;
    }
  in
  let st = Symtab.of_objfile o in
  Alcotest.(check (list int)) "both ids of f" [ 0; 1 ] (Symtab.ids_of_name st "f");
  Alcotest.(check (option int)) "the first f, as symbol_by_name" (Some 0)
    (Symtab.id_of_name st "f");
  let analyze options =
    match Report.analyze ~options o g with
    | Ok r -> r
    | Error e -> Alcotest.failf "analyze: %s" e
  in
  let listed r =
    Array.to_list r.Report.profile.order
    |> List.filter_map (function Profile.Func id -> Some id | _ -> None)
    |> List.sort compare
  in
  Alcotest.(check (list int)) "--exclude f drops both" [ 2 ]
    (listed (analyze { Report.default_options with exclude = [ "f" ] }));
  Alcotest.(check (list int)) "--focus f keeps both" [ 0; 1; 2 ]
    (listed (analyze { Report.default_options with focus = [ "f" ] }));
  let r = analyze { Report.default_options with removed_arcs = [ ("main", "f") ] } in
  Alcotest.(check (list (pair int int))) "--remove-arc main:f removes both"
    [ (2, 0); (2, 1) ] r.removed;
  Array.iteri
    (fun id (e : Profile.entry) ->
      if id < 2 then check_int "no calls left into f" 0 e.e_calls)
    r.profile.entries

let test_report_min_percent () =
  let full = fig4_profile () in
  let p =
    match
      Report.analyze
        ~options:{ Report.default_options with min_percent = 25.0 }
        Workloads.Figure4.objfile Workloads.Figure4.gmon
    with
    | Ok r -> r.profile
    | Error e -> Alcotest.failf "min_percent: %s" e
  in
  check_bool "fewer entries" true (Array.length p.order < Array.length full.order);
  Array.iter
    (fun party ->
      check_bool "all above threshold" true (Profile.percent_time p party >= 25.0))
    p.order

let test_report_unknown_names () =
  (match
     Report.analyze
       ~options:{ Report.default_options with removed_arcs = [ ("nope", "SUB2") ] }
       Workloads.Figure4.objfile Workloads.Figure4.gmon
   with
  | Error e -> check_bool "mentions nope" true (contains ~needle:"nope" e)
  | Ok _ -> Alcotest.fail "unknown removal arc accepted");
  match
    Report.analyze
      ~options:{ Report.default_options with focus = [ "ghost" ] }
      Workloads.Figure4.objfile Workloads.Figure4.gmon
  with
  | Error e -> check_bool "mentions ghost" true (contains ~needle:"ghost" e)
  | Ok _ -> Alcotest.fail "unknown focus accepted"

let test_report_arc_removal_breaks_cycle () =
  let r =
    match
      Report.analyze
        ~options:{ Report.default_options with removed_arcs = [ ("SUB1B", "SUB1") ] }
        Workloads.Figure4.objfile Workloads.Figure4.gmon
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "removal: %s" e
  in
  check_int "cycle gone" 0 (Array.length r.profile.cycles);
  Alcotest.(check (list (pair string string))) "reported as removed"
    [ ("SUB1B", "SUB1") ] (Report.removed_arc_names r)

let test_report_heuristic_break () =
  let r =
    match
      Report.analyze
        ~options:{ Report.default_options with auto_break_cycles = Some 3 }
        Workloads.Figure4.objfile Workloads.Figure4.gmon
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "heuristic: %s" e
  in
  check_int "cycle broken" 0 (Array.length r.profile.cycles);
  (* The heuristic prefers the lowest-count arc: SUB1B->SUB1 (2). *)
  Alcotest.(check (list (pair string string))) "chose the cheap arc"
    [ ("SUB1B", "SUB1") ] (Report.removed_arc_names r)

let test_verbose_listings () =
  let p = fig4_profile () in
  let flat = Flat.listing ~verbose:true p in
  check_bool "flat explanation" true (contains ~needle:"cumulative seconds" flat);
  check_bool "plain flat omits it" false
    (contains ~needle:"cumulative seconds    a running sum" (Flat.listing p));
  let graph = Graphprof.listing ~verbose:true p in
  check_bool "graph explanation" true (contains ~needle:"dashed lines" graph)

let test_dot_rendering () =
  let p = fig4_profile () in
  let dot = Dotprof.render p in
  List.iter
    (fun needle -> check_bool needle true (contains ~needle dot))
    [
      "digraph profile"; "EXAMPLE"; "cluster_cycle1"; "<spontaneous>";
      "style=dashed" (* the static-only EXAMPLE -> SUB3 arc *);
      "style=dotted" (* the intra-cycle arcs *);
    ]

let test_diffprof () =
  (* lookup_linear vs lookup_binary: same program, search replaced. *)
  let profile_of w =
    match Workloads.Driver.analyze w with
    | Ok (r, _) -> r.profile
    | Error e -> Alcotest.fail e
  in
  let a = profile_of Workloads.Programs.lookup_linear in
  let b = profile_of Workloads.Programs.lookup_binary in
  let d = Diffprof.diff a b in
  check_bool "total time dropped" true (d.total_b < d.total_a);
  (match d.rows with
  | top :: _ ->
    Alcotest.(check string) "biggest mover is lookup" "lookup" top.d_name;
    check_bool "lookup got faster" true (Diffprof.self_delta top < 0.0)
  | [] -> Alcotest.fail "no rows");
  (* every routine of this program pair exists on both sides *)
  List.iter
    (fun (r : Diffprof.row) ->
      check_bool (r.d_name ^ " on both sides") true
        (r.d_self_a <> None && r.d_self_b <> None))
    d.rows;
  check_bool "listing renders" true
    (contains ~needle:"lookup" (Diffprof.listing d))

let test_diffprof_absent_sides () =
  (* inlined build: the accessors disappear on the after side. *)
  let profile_of options =
    match Workloads.Driver.analyze ~options Workloads.Programs.matrix with
    | Ok (r, _) -> r.profile
    | Error e -> Alcotest.fail e
  in
  let a = profile_of Compile.Codegen.profiling_options in
  let b =
    profile_of
      { Compile.Codegen.profiling_options with inline = [ "get_a"; "get_b" ] }
  in
  let d = Diffprof.diff a b in
  let row name = List.find (fun (r : Diffprof.row) -> r.d_name = name) d.rows in
  check_bool "get_a gone after" true ((row "get_a").d_self_b = None);
  check_bool "get_a present before" true ((row "get_a").d_self_a <> None);
  check_bool "listing marks it gone" true
    (contains ~needle:"[gone]" (Diffprof.listing d))

(* The analyzer must not care about the order of arc records. *)
let analyze_order_invariant =
  QCheck.Test.make ~name:"analysis is invariant under arc-record order" ~count:50
    QCheck.(int_range 0 1000)
    (fun seed ->
      let g = Workloads.Figure4.gmon in
      let prng = Util.Prng.create seed in
      let arcs = Array.of_list g.Gmon.arcs in
      Util.Prng.shuffle prng arcs;
      (* Arcgraph.build takes the records in any order; Report requires
         sorted arcs for validation, so drive the pipeline below it. *)
      let st = Symtab.of_objfile Workloads.Figure4.objfile in
      let asg = Assign.assign st g.Gmon.hist in
      let run arcs =
        let ag = Arcgraph.build st arcs in
        Propagate.run st asg ag ~seconds_per_tick:(1.0 /. 60.0)
      in
      let p1 = run g.Gmon.arcs in
      let p2 = run (Array.to_list arcs) in
      Array.for_all2
        (fun (a : Profile.entry) (b : Profile.entry) ->
          abs_float (a.e_self -. b.e_self) < 1e-9
          && abs_float (a.e_child -. b.e_child) < 1e-9
          && a.e_calls = b.e_calls)
        p1.entries p2.entries)

(* Analyzing a merged profile equals merging the analyses: self times
   and call counts are additive. *)
let merge_analyze_additive =
  QCheck.Test.make ~name:"analyze(merge a b) adds self times and calls" ~count:50
    QCheck.(pair (int_range 1 50) (int_range 1 50))
    (fun (t1, t2) ->
      let o = Workloads.Figure4.objfile in
      let scale g factor =
        {
          g with
          Gmon.hist =
            { g.Gmon.hist with
              h_counts = Array.map (fun c -> c * factor) g.Gmon.hist.h_counts };
        }
      in
      let g1 = scale Workloads.Figure4.gmon t1
      and g2 = scale Workloads.Figure4.gmon t2 in
      let merged = Result.get_ok (Gmon.merge g1 g2) in
      let p g =
        match Report.analyze o g with Ok r -> r.profile | Error e -> failwith e
      in
      let pm = p merged and p1 = p g1 and p2 = p g2 in
      Array.for_all
        (fun (e : Profile.entry) ->
          let e1 = p1.entries.(e.e_id) and e2 = p2.entries.(e.e_id) in
          abs_float (e.e_self -. (e1.e_self +. e2.e_self)) < 1e-6
          && e.e_calls = e1.e_calls + e2.e_calls)
        pm.entries)

(* display_index against a scan of the display order, on stock-workload
   profiles under random focus, exclude and min-percent filters. *)
let stock_runs =
  lazy
    (Array.of_list
       (List.map
          (fun w ->
            match Workloads.Driver.run w with Ok r -> r | Error e -> failwith e)
          Workloads.Programs.all))

let display_index_is_first_position =
  QCheck.Test.make ~name:"display_index is the first position in the display order"
    ~count:150
    QCheck.(
      quad (int_bound (List.length Workloads.Programs.all - 1))
        (list_of_size Gen.(int_range 0 2) small_nat)
        (list_of_size Gen.(int_range 0 6) small_nat)
        (oneofl [ 0.0; 0.5; 2.0; 5.0; 15.0; 40.0 ]))
    (fun (w, focus, exclude, min_percent) ->
      let run = (Lazy.force stock_runs).(w) in
      let st = Symtab.of_objfile run.objfile in
      let names = List.map (fun k -> Symtab.name st (k mod Symtab.n_funcs st)) in
      let options =
        { Report.default_options with
          focus = names focus; exclude = names exclude; min_percent }
      in
      let p = analyze run.objfile run.gmon ~options () in
      let first party =
        let rec go i =
          if i = Array.length p.order then None
          else if p.order.(i) = party then Some (i + 1)
          else go (i + 1)
        in
        go 0
      in
      let n = Array.length p.entries and c = Array.length p.cycles in
      List.for_all
        (fun party -> Profile.display_index p party = first party)
        ((Profile.Spontaneous :: List.init (n + 2) (fun f -> Profile.Func (f - 1)))
        @ List.init (c + 2) (fun no -> Profile.Cycle no)))

let test_full_listing_mentions_everything () =
  let r =
    match Report.analyze Workloads.Figure4.objfile Workloads.Figure4.gmon with
    | Ok r -> r
    | Error e -> Alcotest.failf "analyze: %s" e
  in
  let s = Report.full_listing r in
  List.iter
    (fun needle -> check_bool needle true (contains ~needle s))
    [ "call graph profile"; "flat profile"; "index by function name" ]

let test_report_static_arc_keeps_duplicate_name () =
  (* Two routines named f: main's call to the first sits behind
     [const 0; jumpz], so only the crawl sees it. The arc must land on
     that f as a count-0 parent, not on the second f that shares its
     name. *)
  let open Objcode.Instr in
  let o =
    {
      Objcode.Objfile.text =
        [|
          Mcount; Const 1; Ret;
          Mcount; Const 2; Ret;
          Mcount; Const 0; Jumpz 11; Call (0, 0); Pop; Call (3, 0); Pop;
          Const 0; Ret;
        |];
      symbols =
        [|
          { Objcode.Objfile.name = "f"; addr = 0; size = 3; profiled = true };
          { Objcode.Objfile.name = "f"; addr = 3; size = 3; profiled = true };
          { Objcode.Objfile.name = "main"; addr = 6; size = 9; profiled = true };
        |];
      entry = 6;
      globals = [||];
      global_init = [||];
      arrays = [||];
      lines = [||];
      source_name = "dupname";
    }
  in
  let m = Vm.Machine.create o in
  (match Vm.Machine.run m with
  | Vm.Machine.Halted -> ()
  | _ -> Alcotest.fail "dupname did not halt");
  match Report.analyze o (Vm.Machine.profile m) with
  | Error e -> Alcotest.failf "analyze: %s" e
  | Ok r ->
    let parents id =
      List.map
        (fun (a : Profile.arc_view) -> (a.av_other, a.av_count, a.av_total))
        r.profile.entries.(id).e_parents
    in
    Alcotest.(check (list (triple bool int int)))
      "first f: main's static arc, 0/0"
      [ (true, 0, 0) ]
      (List.map (fun (p, c, t) -> (p = Profile.Func 2, c, t)) (parents 0));
    Alcotest.(check (list (triple bool int int)))
      "second f: main's traversed arc, 1/1"
      [ (true, 1, 1) ]
      (List.map (fun (p, c, t) -> (p = Profile.Func 2, c, t)) (parents 1))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [
      ("symtab", [ Alcotest.test_case "lookups" `Quick test_symtab ]);
      ( "assign",
        [
          Alcotest.test_case "exact buckets" `Quick test_assign_exact_buckets;
          Alcotest.test_case "straddling bucket" `Quick test_assign_straddling_bucket;
          Alcotest.test_case "gap unattributed" `Quick test_assign_gap_unattributed;
          qt assign_conservation_prop;
        ] );
      ( "arcgraph",
        [
          Alcotest.test_case "build" `Quick test_arcgraph_build;
          Alcotest.test_case "static merge" `Quick test_arcgraph_static_merge;
          Alcotest.test_case "dropped records" `Quick test_arcgraph_dropped;
          Alcotest.test_case "remove" `Quick test_arcgraph_remove;
          Alcotest.test_case "remove nothing" `Quick test_arcgraph_remove_nothing;
        ] );
      ( "propagate",
        [
          Alcotest.test_case "chain" `Quick test_propagate_chain;
          Alcotest.test_case "shared callee" `Quick test_propagate_shared_callee;
          Alcotest.test_case "self recursion" `Quick test_propagate_self_recursion;
          Alcotest.test_case "cycle" `Quick test_propagate_cycle;
          Alcotest.test_case "static completes cycle" `Quick
            test_propagate_static_completes_cycle;
          Alcotest.test_case "zero denominators" `Quick test_propagate_zero_calls_no_crash;
          qt propagate_conservation_prop;
        ] );
      ( "figure4",
        [
          Alcotest.test_case "all published numbers" `Quick test_figure4_numbers;
          Alcotest.test_case "static arc via scanner" `Quick
            test_figure4_static_arc_comes_from_scanner;
          Alcotest.test_case "rendered block" `Quick test_figure4_rendered_block;
          Alcotest.test_case "flat sums to total" `Quick test_figure4_flat_sums_to_total;
        ] );
      ( "listings",
        [
          Alcotest.test_case "never called" `Quick test_never_called_listed;
          Alcotest.test_case "spontaneous" `Quick test_spontaneous_rendered;
          Alcotest.test_case "index" `Quick test_index_listing;
          Alcotest.test_case "verbose explanations" `Quick test_verbose_listings;
          Alcotest.test_case "dot rendering" `Quick test_dot_rendering;
        ] );
      ( "diff",
        [
          Alcotest.test_case "lookup replacement" `Slow test_diffprof;
          Alcotest.test_case "absent sides" `Slow test_diffprof_absent_sides;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest analyze_order_invariant;
          QCheck_alcotest.to_alcotest merge_analyze_additive;
          QCheck_alcotest.to_alcotest display_index_is_first_position;
        ] );
      ( "report",
        [
          Alcotest.test_case "focus" `Quick test_report_focus;
          Alcotest.test_case "foreign gmon rejected" `Quick
            test_report_rejects_foreign_gmon;
          Alcotest.test_case "exclude" `Quick test_report_exclude;
          Alcotest.test_case "duplicate names" `Quick test_report_duplicate_names;
          Alcotest.test_case "min percent" `Quick test_report_min_percent;
          Alcotest.test_case "unknown names" `Quick test_report_unknown_names;
          Alcotest.test_case "arc removal" `Quick test_report_arc_removal_breaks_cycle;
          Alcotest.test_case "heuristic break" `Quick test_report_heuristic_break;
          Alcotest.test_case "full listing" `Quick test_full_listing_mentions_everything;
          Alcotest.test_case "static arc keeps a duplicate name apart" `Quick
            test_report_static_arc_keeps_duplicate_name;
        ] );
    ]
