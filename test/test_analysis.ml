(* Tests for the static-analysis subsystem: control-flow graphs,
   indirect-call resolution, reachability with the dynamic
   cross-check, and the profile linter — including one seeded
   corruption per lint rule class. *)

open Objcode

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  nl = 0 || go 0

let run_workload w =
  match Workloads.Driver.run w with
  | Ok r -> r
  | Error e -> Alcotest.failf "run %s: %s" w.Workloads.Programs.w_name e

let workload name src =
  { Workloads.Programs.w_name = name; w_source = src; w_about = name }

(* ------------------------------------------------------------------ *)
(* Cfg *)

(* Each function's blocks partition its range, and its index graph is
   what each block's last instruction says: a jump leads to its target
   block, a conditional to its target and the fall-through block, any
   other instruction falls through, nothing follows a return or halt;
   predecessors invert successors, and the reachable set is forward
   reachability from block 0. *)
let test_cfg_blocks_partition () =
  List.iter
    (fun w ->
      let o = (run_workload w).objfile in
      let cfg = Analysis.Cfg.build o in
      Array.iter
        (fun (f : Analysis.Cfg.func) ->
          let s = f.fn_symbol in
          let g = f.fn_graph in
          let n = Array.length f.fn_blocks in
          let covered = Array.make s.size 0 in
          let block_at a =
            match Analysis.Cfg.block_index f a with
            | Some i when f.fn_blocks.(i).bb_start = a -> i
            | _ -> Alcotest.failf "%s: %d is no block start" s.name a
          in
          Array.iteri
            (fun i (b : Analysis.Cfg.block) ->
              check_bool "block inside function" true
                (b.bb_start >= s.addr && b.bb_start + b.bb_len <= s.addr + s.size);
              for a = b.bb_start to b.bb_start + b.bb_len - 1 do
                covered.(a - s.addr) <- covered.(a - s.addr) + 1
              done;
              let last = b.bb_start + b.bb_len - 1 in
              let fall = if i + 1 < n then [ i + 1 ] else [] in
              let expected =
                match o.text.(last) with
                | Instr.Jump t -> [ block_at t ]
                | Instr.Jumpz t -> List.sort_uniq compare (block_at t :: fall)
                | Instr.Ret | Instr.Halt -> []
                | _ -> fall
              in
              Alcotest.(check (list int))
                (Printf.sprintf "%s block %d successors" s.name i)
                expected (Array.to_list g.g_succs.(i));
              Alcotest.(check (list int))
                (Printf.sprintf "%s block %d predecessors" s.name i)
                (List.filter (fun p -> Array.mem i g.g_succs.(p)) (List.init n Fun.id))
                (Array.to_list g.g_preds.(i)))
            f.fn_blocks;
          let seen = Array.make n false in
          let rec visit i =
            if not seen.(i) then begin
              seen.(i) <- true;
              Array.iter visit g.g_succs.(i)
            end
          in
          visit 0;
          Alcotest.(check (array bool)) (s.name ^ " reachable") seen f.fn_reachable;
          Array.iteri
            (fun off n ->
              check_int (Printf.sprintf "%s+%d covered once" s.name off) 1 n)
            covered)
        cfg.cfg_funcs)
    [ Workloads.Programs.sort; Workloads.Programs.codegen;
      Workloads.Programs.indirect ]

(* ------------------------------------------------------------------ *)
(* Indirect *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_callees_agree_with_arcs () =
  (* the static call graph is stated once, as the id arcs of the crawl
     and of Indirect: every (caller, callee) a call site can take is
     one of those arcs, every arc is taken by some site, and Reach's
     graph holds exactly that arc set, at count 0 *)
  let compiled =
    List.map
      (fun (w : Workloads.Programs.t) ->
        match Workloads.Driver.compile w with
        | Ok o -> (w.w_name, o)
        | Error e -> Alcotest.failf "compile %s: %s" w.w_name e)
      (Workloads.Programs.all
      @ List.map
          (fun f -> workload f (read_file ("fixtures/" ^ f)))
          [ "smoke.mini"; "smoke_slow.mini"; "smoke_mismatched.mini";
            "pgo_matrix.mini" ])
  in
  List.iter
    (fun (name, o) ->
      let ind = Analysis.Indirect.analyze o in
      let arcs = Scan.static_arcs o @ ind.i_arcs in
      let taken =
        List.concat
          (List.mapi
             (fun f (s : Objfile.symbol) ->
               List.concat_map
                 (fun pc ->
                   List.map (fun c -> (f, c)) (Analysis.Indirect.callees o ind ~pc))
                 (List.init s.size (fun i -> s.addr + i)))
             (Array.to_list o.Objfile.symbols))
      in
      let set l = List.sort_uniq compare l in
      Alcotest.(check (list (pair int int)))
        (name ^ ": the sites take exactly the arcs") (set arcs) (set taken);
      let reach = Analysis.Reach.analyze ~indirect:ind (Analysis.Cfg.build o) in
      Alcotest.(check (list (triple int int int)))
        (name ^ ": Reach's graph is the arc set, every arc count 0")
        (List.map (fun (a, b) -> (a, b, 0)) (set arcs))
        (Graphlib.Digraph.arcs reach.r_graph))
    (("figure4", Workloads.Figure4.objfile) :: compiled)

(* ------------------------------------------------------------------ *)
(* Indirect *)

let entry o name =
  match Objfile.symbol_by_name o name with
  | Some s -> s.Objfile.addr
  | None -> Alcotest.failf "no symbol %s" name

(* id arcs as (caller name, callee name) *)
let named o =
  List.map (fun (a, b) ->
      (o.Objfile.symbols.(a).Objfile.name, o.Objfile.symbols.(b).Objfile.name))

let test_indirect_resolves_dispatch_table () =
  let o = (run_workload Workloads.Programs.indirect).objfile in
  let ind = Analysis.Indirect.analyze o in
  let handlers =
    List.sort compare
      [ entry o "on_add"; entry o "on_mul"; entry o "on_neg"; entry o "on_mix" ]
  in
  check_bool "address-taken set is the handler table" true
    (ind.i_address_taken = handlers);
  (* both Calli sites read the handlers array: each resolves to the
     full table, never Unresolved *)
  check_bool "has indirect sites" true (ind.i_sites <> []);
  List.iter
    (fun (site, r) ->
      match r with
      | Analysis.Indirect.Resolved ts ->
        check_bool
          (Printf.sprintf "site %d resolves to the table" site)
          true
          (List.sort compare ts = handlers)
      | Analysis.Indirect.Unresolved ->
        Alcotest.failf "site %d unexpectedly unresolved" site)
    ind.i_sites;
  (* the named arcs cover dispatch -> every handler *)
  List.iter
    (fun callee ->
      check_bool ("dispatch -> " ^ callee) true
        (List.mem ("dispatch", callee) (named o ind.i_arcs)))
    [ "on_add"; "on_mul"; "on_neg"; "on_mix" ]

let test_indirect_recall_of_dynamic_arcs () =
  (* every dynamically-observed indirect arc is predicted statically:
     recall 1.0 on the dispatch workload *)
  let r = run_workload Workloads.Programs.indirect in
  let o = r.objfile in
  let ind = Analysis.Indirect.analyze o in
  let dynamic_indirect =
    List.filter_map
      (fun (a : Gmon.arc) ->
        if a.a_from >= 0 && a.a_from < Array.length o.Objfile.text then
          match o.Objfile.text.(a.a_from) with
          | Instr.Calli _ -> (
            match (Objfile.find_symbol o a.a_from, Objfile.find_symbol o a.a_self) with
            | Some caller, Some callee -> Some (caller.name, callee.name)
            | _ -> None)
          | _ -> None
        else None)
      r.gmon.Gmon.arcs
  in
  check_bool "saw dynamic indirect arcs" true (dynamic_indirect <> []);
  List.iter
    (fun arc ->
      check_bool (fst arc ^ " -> " ^ snd arc) true
        (List.mem arc (named o ind.i_arcs)))
    dynamic_indirect

let test_indirect_static_arc_count0_in_report () =
  (* A handler that sits in the table but is never dynamically picked
     must still appear as a child of its caller, with count 0 — the
     functional-parameter analogue of Figure 4's EXAMPLE -> SUB3. *)
  let w =
    workload "unpicked"
      {|
array tab[2];
var sink;

fun used(x) { return x + 1; }
fun unpicked(x) { return x + 2; }

fun main() {
  var i;
  var f;
  tab[0] = used;
  tab[1] = unpicked;
  for (i = 0; i < 20000; i = i + 1) { f = tab[0]; sink = sink + f(i); }
  print(sink);
  return 0;
}
|}
  in
  let r = run_workload w in
  (match Gprof_core.Report.analyze r.objfile r.gmon with
  | Error e -> Alcotest.fail e
  | Ok rep ->
    let listing = Gprof_core.Report.graph_listing rep in
    check_bool "unpicked appears in the call graph listing" true
      (contains ~needle:"unpicked" listing);
    let p = rep.Gprof_core.Report.profile in
    let id name =
      Option.get (Gprof_core.Symtab.id_of_name p.Gprof_core.Profile.symtab name)
    in
    let e = p.Gprof_core.Profile.entries.(id "unpicked") in
    check_int "unpicked called 0 times" 0 e.Gprof_core.Profile.e_calls);
  (* without the indirect augmentation the arc is invisible *)
  check_bool "scan alone misses the arc" true
    (not
       (List.mem ("main", "unpicked")
          (named r.objfile (Scan.static_arcs r.objfile))));
  check_bool "indirect analysis finds it" true
    (List.mem ("main", "unpicked")
       (named r.objfile (Analysis.Indirect.analyze r.objfile).i_arcs))

(* ------------------------------------------------------------------ *)
(* Reach *)

let dead_src =
  {|
var sink;

fun live(x) { return x + 1; }
fun dead(x) { return x * 2; }

fun main() {
  var i;
  for (i = 0; i < 30000; i = i + 1) { sink = sink + live(i); }
  print(sink);
  return 0;
}
|}

let test_reach_dead_function () =
  let r = run_workload (workload "deadfn" dead_src) in
  let cfg = Analysis.Cfg.build r.objfile in
  let reach = Analysis.Reach.analyze cfg in
  check_bool "dead is unreachable" true
    (List.mem "dead" reach.r_unreachable);
  check_bool "dead is profiled-but-dead" true
    (List.mem "dead" reach.r_dead_profiled);
  check_bool "live is reachable" true
    (not (List.mem "live" reach.r_unreachable));
  (* the real run never contradicts the static verdict *)
  check_int "clean crosscheck" 0
    (List.length (Analysis.Reach.crosscheck reach r.objfile r.gmon))

let test_reach_crosscheck_contradiction () =
  let r = run_workload (workload "deadfn" dead_src) in
  let o = r.objfile in
  let cfg = Analysis.Cfg.build o in
  let reach = Analysis.Reach.analyze cfg in
  (* seed ticks inside the dead function: the profile now claims
     statically-impossible execution, with no arc to explain it *)
  let g = r.gmon in
  let counts = Array.copy g.Gmon.hist.h_counts in
  let daddr = entry o "dead" in
  counts.(daddr + 1) <- counts.(daddr + 1) + 25;
  let g' = { g with Gmon.hist = { g.Gmon.hist with h_counts = counts } } in
  match Analysis.Reach.crosscheck reach o g' with
  | [ c ] ->
    check_bool "names the function" true (c.c_func = "dead");
    check_int "sees the ticks" 25 c.c_ticks
  | cs -> Alcotest.failf "expected one contradiction, got %d" (List.length cs)

(* ------------------------------------------------------------------ *)
(* Properties of the bucket visits and the crosscheck. Each input is
   drawn from one integer seed, which a failure prints. *)

(* A histogram of 1-8 addresses per bucket over part of a text of up to
   200 addresses, a third of its buckets empty, and a range that may
   be empty, inverted, or reach past either end. *)
let geometry_of_seed seed =
  let st = Random.State.make [| seed |] in
  let text = 1 + Random.State.int st 200 in
  let lowpc = Random.State.int st text in
  let highpc = lowpc + 1 + Random.State.int st (text - lowpc) in
  let h =
    Gmon.make_hist ~lowpc ~highpc ~bucket_size:(1 + Random.State.int st 8)
  in
  Array.iteri
    (fun i _ ->
      if Random.State.int st 3 > 0 then h.h_counts.(i) <- Random.State.int st 9)
    h.h_counts;
  let lo = Random.State.int st (text + 20) - 10 in
  (h, lo, lo + Random.State.int st 48 - 8)

let bucket_visits =
  QCheck.Test.make ~name:"bucket helper = full scan" ~count:3000
    (QCheck.make
       ~print:(fun seed ->
         let h, lo, hi = geometry_of_seed seed in
         Printf.sprintf "seed %d: buckets of %d over [%d,%d), range [%d,%d)"
           seed h.h_bucket_size h.h_lowpc h.h_highpc lo hi)
       QCheck.Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let h, lo, hi = geometry_of_seed seed in
      let visited = ref [] in
      Gmon.iter_overlapping h ~lo ~hi (fun i c -> visited := (i, c) :: !visited);
      let scanned =
        List.filter_map
          (fun i ->
            let blo, bhi = Gmon.bucket_range h i in
            if blo < hi && bhi > lo then Some (i, h.h_counts.(i)) else None)
          (List.init (Array.length h.h_counts) Fun.id)
      in
      List.rev !visited = scanned)

(* Three routines no path from main reaches: [island] calls [atoll],
   [reef] stands alone. *)
let islands_src =
  {|
var sink;

fun leaf(x) { return x + 1; }
fun live(x) { var j; var s; s = x; for (j = 0; j < 8; j = j + 1) { s = s + leaf(j); } return s; }
fun island(x) { return atoll(x) * 3; }
fun atoll(x) { return x - 7; }
fun reef(x) { var j; for (j = 0; j < x; j = j + 1) { sink = sink + j; } return sink; }

fun main() {
  var i;
  for (i = 0; i < 3000; i = i + 1) { sink = sink + live(i); }
  print(sink);
  return 0;
}
|}

(* one run per bucket size *)
let islands_runs =
  lazy
    (List.map
       (fun bucket ->
         let config = { Vm.Machine.default_config with hist_bucket_size = bucket } in
         match Workloads.Driver.run ~config (workload "islands" islands_src) with
         | Ok r -> (bucket, r)
         | Error e -> Alcotest.failf "islands: %s" e)
       [ 1; 4 ])

(* The crosscheck as a whole-histogram scan per routine and an arc-list
   fold per routine, over a copy of the static graph with the dynamic
   arcs added. *)
let brute_crosscheck (t : Analysis.Reach.t) (o : Objfile.t) (g : Gmon.t) =
  let len = Array.length o.Objfile.text in
  let union = Graphlib.Digraph.copy t.r_graph in
  let roots = ref (Option.to_list (Objfile.func_id_of_addr o o.Objfile.entry)) in
  List.iter
    (fun (a : Gmon.arc) ->
      match Objfile.func_id_of_addr o a.a_self with
      | None -> ()
      | Some dst -> (
        if a.a_from < 0 || a.a_from >= len then roots := dst :: !roots
        else
          match Objfile.symbol_index o a.a_from with
          | Some src -> Graphlib.Digraph.add_arc union ~src ~dst ~count:0
          | None -> ()))
    g.arcs;
  let explained = Graphlib.Reach.forward union !roots in
  List.filter_map
    (fun (id, (s : Objfile.symbol)) ->
      let ticks = ref 0 in
      Array.iteri
        (fun i count ->
          let lo, hi = Gmon.bucket_range g.hist i in
          if count > 0 && lo < s.addr + s.size && hi > s.addr then
            ticks := !ticks + count)
        g.hist.h_counts;
      let calls = Gmon.arc_count_into g s.addr in
      if explained.(id) || (!ticks = 0 && calls = 0) then None
      else
        Some { Analysis.Reach.c_func = s.name; c_ticks = !ticks; c_calls = calls })
    (List.mapi (fun id s -> (id, s)) (Array.to_list o.Objfile.symbols))

(* The run's profile with ticks seeded at random addresses, most of
   them inside the unreachable routines, and a few random arcs: from a
   call site, from a pseudo-site, into an entry or mid-routine. *)
let seeded_profile seed =
  let bucket, r = List.nth (Lazy.force islands_runs) (seed mod 2) in
  let st = Random.State.make [| seed |] in
  let o = r.objfile and g = r.gmon in
  let len = Array.length o.Objfile.text in
  let unreachable =
    List.filter
      (fun (s : Objfile.symbol) -> List.mem s.name [ "island"; "atoll"; "reef" ])
      (Array.to_list o.Objfile.symbols)
  in
  let counts = Array.copy g.hist.h_counts in
  for _ = 1 to Random.State.int st 6 do
    let pc =
      if Random.State.int st 4 = 0 then Random.State.int st len
      else
        let s = List.nth unreachable (Random.State.int st 3) in
        s.addr + Random.State.int st s.size
    in
    Option.iter
      (fun i -> counts.(i) <- counts.(i) + 1 + Random.State.int st 20)
      (Gmon.bucket_of_pc g.hist pc)
  done;
  let entries = Array.map (fun (s : Objfile.symbol) -> s.addr) o.Objfile.symbols in
  let arcs =
    List.init (Random.State.int st 3) (fun _ ->
        {
          Gmon.a_from = Random.State.int st (len + 4) - 2;
          a_self =
            (if Random.State.bool st then
               entries.(Random.State.int st (Array.length entries))
             else Random.State.int st len);
          a_count = Random.State.int st 5;
        })
  in
  ( bucket,
    o,
    { g with Gmon.hist = { g.hist with h_counts = counts }; arcs = arcs @ g.arcs } )

let crosscheck_brute_force =
  QCheck.Test.make ~name:"crosscheck = brute force, bucket sizes 1 and 4"
    ~count:400
    (QCheck.make
       ~print:(fun seed ->
         let bucket, _, g = seeded_profile seed in
         Printf.sprintf "seed %d: bucket size %d, %d ticks, %d arcs" seed bucket
           (Gmon.total_ticks g) (List.length g.arcs))
       QCheck.Gen.(int_bound 1_000_000_000))
    (fun seed ->
      let _, o, g = seeded_profile seed in
      let reach = Analysis.Reach.analyze (Analysis.Cfg.build o) in
      Analysis.Reach.crosscheck reach o g = brute_crosscheck reach o g)

(* ------------------------------------------------------------------ *)
(* Proflint *)

let rules_of (l : Analysis.Proflint.t) =
  List.map (fun f -> f.Analysis.Proflint.f_rule) l.l_findings

let errors_of (l : Analysis.Proflint.t) =
  List.filter
    (fun f -> f.Analysis.Proflint.f_severity = Analysis.Proflint.Error)
    l.l_findings

let test_proflint_intact_runs_pass () =
  List.iter
    (fun w ->
      let r = run_workload w in
      let l = Analysis.Proflint.lint r.objfile r.gmon in
      (match errors_of l with
      | [] -> ()
      | f :: _ ->
        Alcotest.failf "%s: unexpected %s: %s" w.Workloads.Programs.w_name
          f.f_rule f.f_msg);
      check_int
        (w.Workloads.Programs.w_name ^ " exits 0")
        0
        (Analysis.Proflint.exit_code ~strict:true l))
    [ Workloads.Programs.quick; Workloads.Programs.sort;
      Workloads.Programs.indirect; Workloads.Programs.recursive ]

let test_proflint_figure4_intact () =
  let l =
    Analysis.Proflint.lint Workloads.Figure4.objfile Workloads.Figure4.gmon
  in
  (match Analysis.Proflint.worst l with
  | None | Some Analysis.Proflint.Info -> ()
  | Some s ->
    Alcotest.failf "figure4 worst severity %s"
      (Analysis.Proflint.severity_to_string s));
  check_int "figure4 exits 0 even under --strict" 0
    (Analysis.Proflint.exit_code ~strict:true l);
  (* the three pseudo-site roots are declared spontaneous *)
  check_int "spontaneous notes" 3
    (List.length
       (List.filter (fun r -> r = "arc-spontaneous") (rules_of l)))

(* One seeded corruption per rule class, each on a genuine run. *)

let sort_run = lazy (run_workload Workloads.Programs.sort)

let expect_rule gmon rule =
  let r = Lazy.force sort_run in
  let l = Analysis.Proflint.lint r.objfile gmon in
  check_bool (rule ^ " flagged") true (List.mem rule (rules_of l));
  check_int (rule ^ " fails strict") 2 (Analysis.Proflint.exit_code ~strict:true l)

let direct_call_arc o (g : Gmon.t) =
  (* an arc whose recorded site holds a direct Call instruction *)
  match
    List.find_opt
      (fun (a : Gmon.arc) ->
        a.a_from >= 0
        && a.a_from < Array.length o.Objfile.text
        &&
        match o.Objfile.text.(a.a_from) with
        | Instr.Call _ -> true
        | _ -> false)
      g.arcs
  with
  | Some a -> a
  | None -> Alcotest.fail "no direct-call arc in the profile"

let replace_arc (g : Gmon.t) old arc =
  { g with Gmon.arcs = arc :: List.filter (fun a -> a <> old) g.Gmon.arcs }

let test_proflint_arc_from_non_call () =
  let r = Lazy.force sort_run in
  let a = direct_call_arc r.objfile r.gmon in
  (* entry + 1 holds the Enter, never a call *)
  let bad = { a with Gmon.a_from = entry r.objfile "main" + 1 } in
  expect_rule (replace_arc r.gmon a bad) "arc-from-non-call"

let test_proflint_arc_into_non_entry () =
  let r = Lazy.force sort_run in
  let a = direct_call_arc r.objfile r.gmon in
  let bad = { a with Gmon.a_self = a.a_self + 1 } in
  expect_rule (replace_arc r.gmon a bad) "arc-into-non-entry"

let test_proflint_arc_infeasible () =
  let r = Lazy.force sort_run in
  let a = direct_call_arc r.objfile r.gmon in
  (* retarget the callee to a different (real) entry: the site's Call
     instruction contradicts the claim *)
  let other =
    let victim =
      Array.to_list r.objfile.Objfile.symbols
      |> List.find (fun (s : Objfile.symbol) -> s.addr <> a.Gmon.a_self)
    in
    victim.addr
  in
  let bad = { a with Gmon.a_self = other } in
  expect_rule (replace_arc r.gmon a bad) "arc-infeasible"

let test_proflint_bucket_outside_text () =
  let r = Lazy.force sort_run in
  let g = r.gmon in
  let h = g.Gmon.hist in
  (* stretch the histogram past the text segment and claim ticks there *)
  let h' =
    {
      h with
      Gmon.h_highpc = h.h_highpc + (4 * h.h_bucket_size);
      h_counts = Array.append h.h_counts [| 0; 0; 0; 9 |];
    }
  in
  expect_rule { g with Gmon.hist = h' } "hist-geometry"

(* A bucket size of 0 or below gives no bucket an address range: the
   lint refuses the histogram with one finding and reads none of its
   buckets, so changing every count changes nothing. *)
let test_proflint_nonpositive_bucket_size () =
  let r = run_workload Workloads.Programs.matrix in
  List.iter
    (fun size ->
      let lint counts =
        let h = r.gmon.Gmon.hist in
        Analysis.Proflint.lint r.objfile
          { r.gmon with
            Gmon.hist =
              { h with Gmon.h_bucket_size = size; h_counts = Array.map counts h.h_counts } }
      in
      let l = lint Fun.id in
      (match
         List.filter
           (fun f -> f.Analysis.Proflint.f_rule = "hist-geometry")
           l.l_findings
       with
      | [ f ] ->
        check_bool
          (Printf.sprintf "size %d named" size)
          true
          (contains ~needle:(Printf.sprintf "bucket size %d " size) f.f_msg);
        check_bool "an error" true (f.f_severity = Analysis.Proflint.Error)
      | fs ->
        Alcotest.failf "size %d: %d hist-geometry findings" size (List.length fs));
      check_int "no bucket checked" 0 l.l_buckets_checked;
      Alcotest.(check string)
        (Printf.sprintf "size %d: counts unread" size)
        (Analysis.Proflint.render l)
        (Analysis.Proflint.render (lint (fun c -> (3 * c) + 5))))
    [ 0; -1 ]

let test_proflint_dead_code_ticks () =
  let r = run_workload (workload "deadfn" dead_src) in
  let g = r.gmon in
  let counts = Array.copy g.Gmon.hist.h_counts in
  counts.(entry r.objfile "dead" + 1) <- 31;
  let g' = { g with Gmon.hist = { g.Gmon.hist with h_counts = counts } } in
  let l = Analysis.Proflint.lint r.objfile g' in
  check_bool "dead-code-ticks flagged" true
    (List.mem "dead-code-ticks" (rules_of l));
  check_int "warning fails strict" 2 (Analysis.Proflint.exit_code ~strict:true l);
  check_int "warning passes lenient" 0
    (Analysis.Proflint.exit_code ~strict:false l)

let test_proflint_render () =
  let r = Lazy.force sort_run in
  let a = direct_call_arc r.objfile r.gmon in
  let bad = { a with Gmon.a_from = entry r.objfile "main" + 1 } in
  let l = Analysis.Proflint.lint r.objfile (replace_arc r.gmon a bad) in
  let s = Analysis.Proflint.render l in
  check_bool "renders the rule id" true (contains ~needle:"[arc-from-non-call]" s);
  check_bool "renders the summary" true (contains ~needle:"proflint:" s);
  (* errors sort before notes *)
  match l.l_findings with
  | f :: _ -> check_bool "errors first" true (f.f_severity = Analysis.Proflint.Error)
  | [] -> Alcotest.fail "expected findings"

(* ------------------------------------------------------------------ *)
(* Scan anomalies and Disasm annotations *)

let anomalous_obj () =
  let text =
    [|
      (* f: a call into g's middle and a funref off the table *)
      Instr.Mcount; Instr.Call (5, 0); Instr.Funref 99; Instr.Ret;
      (* g *)
      Instr.Mcount; Instr.Nop; Instr.Ret;
    |]
  in
  {
    Objfile.text;
    symbols =
      [|
        { Objfile.name = "f"; addr = 0; size = 4; profiled = true };
        { Objfile.name = "g"; addr = 4; size = 3; profiled = true };
      |];
    entry = 0;
    globals = [||];
    global_init = [||];
    arrays = [||];
    lines = [||];
    source_name = "anomalous";
  }

let test_scan_anomalies_surfaced () =
  let o = anomalous_obj () in
  let anomalies = Scan.anomalies o in
  check_int "two anomalies" 2 (List.length anomalies);
  (match anomalies with
  | [ a1; a2 ] ->
    check_int "call anomaly at 1" 1 a1.an_addr;
    check_bool "call kind" true (a1.an_instr = `Call);
    check_bool "mid-function kind" true (a1.an_kind = Scan.Mid_function "g");
    check_bool "caller recorded" true (a1.an_caller = Some "f");
    check_bool "funref kind" true (a2.an_instr = `Funref);
    check_bool "outside table" true (a2.an_kind = Scan.Outside_table)
  | _ -> Alcotest.fail "expected exactly two anomalies");
  (* the static graph stays silent, the listing does not *)
  check_int "no static arcs" 0 (List.length (Scan.static_arcs o));
  let listing = Disasm.program_listing o in
  check_bool "listing flags the mid-function target" true
    (contains ~needle:"! mid-g target" listing);
  check_bool "listing flags the wild funref" true
    (contains ~needle:"! target outside the symbol table" listing);
  check_bool "listing has the anomaly section" true
    (contains ~needle:"anomalous targets:" listing);
  (* and proflint reports them as call-anomaly warnings *)
  let l = Analysis.Proflint.lint_binary o in
  check_int "two call-anomaly findings" 2
    (List.length (List.filter (fun r -> r = "call-anomaly") (rules_of l)))

let test_scan_referenced_functions () =
  let o = (run_workload Workloads.Programs.indirect).objfile in
  let refs = Scan.referenced_functions o in
  List.iter
    (fun name -> check_bool ("referenced " ^ name) true (List.mem name refs))
    [ "on_add"; "on_mul"; "on_neg"; "on_mix" ];
  check_bool "dispatch itself is not address-taken" true
    (not (List.mem "dispatch" refs));
  (* deduplicated even when a funref appears repeatedly *)
  check_int "no duplicates" (List.length refs)
    (List.length (List.sort_uniq compare refs))

let test_disasm_out_of_range_guards () =
  let o =
    {
      Objfile.text = [| Instr.Gload 7; Instr.Aload 3; Instr.Ret |];
      symbols = [| { Objfile.name = "f"; addr = 0; size = 3; profiled = false } |];
      entry = 0;
      globals = [||];
      global_init = [||];
      arrays = [||];
      lines = [||];
      source_name = "oob";
    }
  in
  let listing = Disasm.program_listing o in
  check_bool "global guard" true (contains ~needle:"! global 7 out of range" listing);
  check_bool "array guard" true (contains ~needle:"! array 3 out of range" listing)

(* ------------------------------------------------------------------ *)
(* The warnings minic prints: Proflint's warning-severity static rules
   over the compiled source *)

let static_warnings ?(options = Compile.Codegen.default_options) src =
  match Compile.Codegen.compile_source ~options src with
  | Ok o -> Analysis.Proflint.static_warnings (Analysis.Proflint.prepare o)
  | Error e -> Alcotest.failf "compile %S: %s" src e

let fired rule ws =
  List.filter (fun (f : Analysis.Proflint.finding) -> f.f_rule = rule) ws

let expect_warning rule src fragment =
  let ws = static_warnings src in
  if
    not
      (List.exists
         (fun (f : Analysis.Proflint.finding) -> contains ~needle:fragment f.f_msg)
         (fired rule ws))
  then
    Alcotest.failf "%s: expected [%s] containing %S; got: %s" src rule fragment
      (String.concat " | "
         (List.map (fun (f : Analysis.Proflint.finding) -> f.f_msg) ws))

let test_warnings_clean_workloads () =
  List.iter
    (fun (w : Workloads.Programs.t) ->
      let ws = static_warnings w.w_source in
      match fired "const-branch" ws @ fired "calli-no-callee" ws with
      | [] -> ()
      | ws ->
        Alcotest.failf "workload %s: %s" w.w_name
          (String.concat "; "
             (List.map (fun (f : Analysis.Proflint.finding) -> f.f_msg) ws)))
    Workloads.Programs.all

let test_warnings_never_a_function () =
  expect_warning "calli-no-callee"
    "var v; fun f() { return v(1); } fun main() { return f(); }"
    "never assigned a function value";
  expect_warning "calli-no-callee"
    "fun f() { var x = 3; return x(1); } fun main() { return f(); }"
    "never assigned a function value"

let test_warnings_constant_conditions () =
  expect_warning "const-branch" "fun main() { if (0) { return 1; } return 0; }"
    "always jumps";
  expect_warning "const-branch" "fun main() { if (3) { return 1; } return 0; }"
    "always falls through";
  expect_warning "const-branch" "fun main() { while (0) { return 1; } return 0; }"
    "always jumps";
  expect_warning "const-branch"
    "fun main() { var i; for (i = 0; 0; i = i + 1) { } return 0; }"
    "always jumps";
  (* the deliberate infinite loop is idiom, not a bug, even where its
     continue jump is unreachable *)
  (match
     fired "const-branch"
       (static_warnings "fun main() { while (1) { return 0; } return 1; }")
   with
  | [] -> ()
  | ws ->
    Alcotest.failf "while (1) should be quiet, got: %s"
      (String.concat " | "
         (List.map (fun (f : Analysis.Proflint.finding) -> f.f_msg) ws)));
  (* a foldable condition is the folder's business: built with -O it
     leaves no branch to warn about *)
  match
    fired "const-branch"
      (static_warnings
         ~options:{ Compile.Codegen.default_options with fold = true }
         "fun main() { if (1 < 2) { return 1; } return 0; }")
  with
  | [] -> ()
  | _ -> Alcotest.fail "if (1 < 2) built with -O leaves a constant branch"

let () =
  Alcotest.run "analysis"
    [
      ( "cfg",
        [
          Alcotest.test_case "blocks partition functions" `Quick
            test_cfg_blocks_partition;
        ] );
      ( "indirect",
        [
          Alcotest.test_case "callees agree with the arcs" `Quick
            test_callees_agree_with_arcs;
          Alcotest.test_case "resolves the dispatch table" `Quick
            test_indirect_resolves_dispatch_table;
          Alcotest.test_case "full recall of dynamic arcs" `Quick
            test_indirect_recall_of_dynamic_arcs;
          Alcotest.test_case "count-0 arc reaches the report" `Quick
            test_indirect_static_arc_count0_in_report;
        ] );
      ( "reach",
        [
          Alcotest.test_case "dead function found" `Quick test_reach_dead_function;
          Alcotest.test_case "crosscheck contradiction" `Quick
            test_reach_crosscheck_contradiction;
          QCheck_alcotest.to_alcotest bucket_visits;
          QCheck_alcotest.to_alcotest crosscheck_brute_force;
        ] );
      ( "proflint",
        [
          Alcotest.test_case "intact runs pass" `Quick test_proflint_intact_runs_pass;
          Alcotest.test_case "figure4 intact" `Quick test_proflint_figure4_intact;
          Alcotest.test_case "arc from non-call" `Quick
            test_proflint_arc_from_non_call;
          Alcotest.test_case "arc into non-entry" `Quick
            test_proflint_arc_into_non_entry;
          Alcotest.test_case "infeasible arc" `Quick test_proflint_arc_infeasible;
          Alcotest.test_case "bucket outside text" `Quick
            test_proflint_bucket_outside_text;
          Alcotest.test_case "nonpositive bucket size" `Quick
            test_proflint_nonpositive_bucket_size;
          Alcotest.test_case "dead code ticks" `Quick test_proflint_dead_code_ticks;
          Alcotest.test_case "render" `Quick test_proflint_render;
        ] );
      ( "warnings",
        [
          Alcotest.test_case "workloads are warning-free" `Quick
            test_warnings_clean_workloads;
          Alcotest.test_case "never a function" `Quick
            test_warnings_never_a_function;
          Alcotest.test_case "constant conditions" `Quick
            test_warnings_constant_conditions;
        ] );
      ( "scan",
        [
          Alcotest.test_case "anomalies surfaced" `Quick test_scan_anomalies_surfaced;
          Alcotest.test_case "referenced functions" `Quick
            test_scan_referenced_functions;
          Alcotest.test_case "disasm out-of-range guards" `Quick
            test_disasm_out_of_range_guards;
        ] );
    ]
