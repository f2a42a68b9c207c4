(* The static-analysis subsystem: how the cost of the CFG build, the
   indirect-call fixpoint, and the full lint scale with text size, and
   whether the functional-parameter resolution actually recovers the
   arcs the paper's crawl concedes it misses ("calls to routines
   passed as parameters", §2). *)

open Harness

let time_of f =
  (* Median of repeated runs; these passes are microseconds to
     milliseconds, so a handful of repetitions is enough to shrug off
     a scheduler hiccup. *)
  let reps = 9 in
  let samples =
    List.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (f ());
        Unix.gettimeofday () -. t0)
  in
  List.nth (List.sort compare samples) (reps / 2)

(* best-of-N: timing noise (preemption, GC slices landing in the
   window) only adds, so the minimum is the estimator of the pass's
   own cost *)
let best_of f =
  List.fold_left min infinity
    (List.init 9 (fun _ ->
         let t0 = Unix.gettimeofday () in
         ignore (f ());
         Unix.gettimeofday () -. t0))

(* A Mini program of [n] routines in which every sixth is never
   called: [main] calls each of the others four times, and each runs a
   short loop, so the histogram ticks across the whole text. *)
let generated n : Workloads.Programs.t =
  let b = Buffer.create (n * 128) in
  Buffer.add_string b "var sink;\n\n";
  for i = 0 to n - 1 do
    Printf.bprintf b
      "fun f%d(x) {\n  var s;\n  var j;\n  s = x;\n  for (j = 0; j < 6; j = j + 1) { s = (s * %d + j) %% 1009; }\n  return s;\n}\n\n"
      i (3 + (i mod 7))
  done;
  Buffer.add_string b "fun main() {\n  var i;\n  for (i = 0; i < 4; i = i + 1) {\n";
  for i = 0 to n - 1 do
    if i mod 6 <> 5 then Printf.bprintf b "    sink = sink + f%d(i);\n" i
  done;
  Buffer.add_string b "  }\n  print(sink);\n  return 0;\n}\n";
  {
    w_name = Printf.sprintf "generated-%d" n;
    w_source = Buffer.contents b;
    w_about = "generated: a sixth of the routines never called";
  }

let t_analysis () =
  section "analysis cost vs text size (every workload)";
  Printf.printf "  %-16s %6s %6s %6s %10s %10s %10s %10s\n" "workload" "text"
    "blocks" "edges" "cfg us" "indir us" "prep us" "lint us";
  let rows =
    List.map
      (fun (w : Workloads.Programs.t) ->
        let r = run_workload w in
        let o = r.objfile in
        (* the whole analysis is [prepare] (the CFG, Indirect and the
           per-function passes) plus the lint over its statics; the CFG
           and Indirect columns break out two parts of [prepare] *)
        let statics = Analysis.Proflint.prepare o in
        let cfg = statics.s_cfg in
        let t_cfg = time_of (fun () -> Analysis.Cfg.build o) in
        let t_ind = time_of (fun () -> Analysis.Indirect.analyze o) in
        let t_prep = time_of (fun () -> Analysis.Proflint.prepare o) in
        let t_lint =
          time_of (fun () -> Analysis.Proflint.lint ~statics o r.gmon)
        in
        let result = Analysis.Proflint.lint ~statics o r.gmon in
        Printf.printf "  %-16s %6d %6d %6d %10.1f %10.1f %10.1f %10.1f\n" w.w_name
          (Array.length o.Objcode.Objfile.text)
          (Analysis.Cfg.n_blocks cfg) (Analysis.Cfg.n_edges cfg) (t_cfg *. 1e6)
          (t_ind *. 1e6) (t_prep *. 1e6) (t_lint *. 1e6);
        (w.w_name, Array.length o.Objcode.Objfile.text, t_prep +. t_lint, result))
      Workloads.Programs.all
  in
  expect "every intact workload lints clean (no errors)"
    (List.for_all
       (fun (_, _, _, result) ->
         match Analysis.Proflint.worst result with
         | Some Analysis.Proflint.Error -> false
         | _ -> true)
       rows);
  (* The passes are a linear scan plus a small fixpoint; on these
     workloads (tens to hundreds of instructions) the whole stack
     should stay comfortably in the sub-10ms regime. *)
  expect "full analysis of every workload under 10 ms"
    (List.for_all (fun (_, _, t, _) -> t < 0.010) rows);
  let cost_per_instr (_, n, t, _) = t /. float_of_int (max 1 n) in
  let costs = List.map cost_per_instr rows in
  let lo = List.fold_left min infinity costs
  and hi = List.fold_left max 0.0 costs in
  Printf.printf "  per-instruction cost: %.0f..%.0f ns\n" (lo *. 1e9)
    (hi *. 1e9);
  (* A loose super-linearity guard: if the per-instruction cost of the
     dearest workload dwarfs the cheapest by orders of magnitude, a
     pass has gone quadratic. *)
  expect "per-instruction cost spread within 100x" (hi <= 100.0 *. lo);

  (* The stock workloads are too small for that guard to catch a pass
     that is quadratic in the program: the crosscheck once scanned the
     whole histogram for every unreachable routine and passed it, and
     lint_pgo once rebuilt the baseline's callee list and scanned the
     rebuild's symbols for every baseline routine. Two generated
     programs 32x apart in size, each with a sixth of its routines
     unreachable, time the profile side of the lint (its statics
     prepared once, outside the timing) and lint_pgo pairing each
     program with itself. *)
  let programs =
    List.map
      (fun n ->
        let r = run_workload (generated n) in
        let o = r.objfile in
        let statics = Analysis.Proflint.prepare o in
        let unreachable =
          List.length
            (Analysis.Reach.analyze ~indirect:statics.s_indirect statics.s_cfg)
              .r_unreachable
        in
        (n, r, statics, unreachable))
      [ 50; 1600 ]
  in
  let text (_, (r : Workloads.Driver.run), _, _) =
    Array.length r.objfile.Objcode.Objfile.text
  in
  (* best of 9 per program; a sweep can land on a steal window on a
     shared box, so while the ratio is over [bound], re-time up to 3
     more times, keeping each row's best *)
  let per_instruction ~bound f =
    let rows = List.map (fun p -> (p, ref (best_of (fun () -> f p)))) programs in
    let per (p, t) = !t /. float_of_int (text p) in
    let ratio () =
      match rows with [ small; large ] -> per large /. per small | _ -> infinity
    in
    let sweeps = ref 1 in
    while ratio () > bound && !sweeps < 4 do
      incr sweeps;
      List.iter (fun (p, t) -> t := min !t (best_of (fun () -> f p))) rows
    done;
    (rows, per, ratio (), !sweeps)
  in
  let report what ~bound (_, _, ratio, sweeps) =
    Printf.printf "  per-instruction %s cost, largest / smallest: %.2fx%s\n" what
      ratio
      (if sweeps > 1 then Printf.sprintf " (best of %d sweeps)" sweeps else "");
    expect
      (Printf.sprintf "%s cost per instruction, 1600 routines vs 50, within %.0fx"
         what bound)
      (ratio <= bound)
  in
  section "lint cost per instruction on generated programs";
  let bound = 3.0 in
  let ((rows, per, _, _) as lint) =
    per_instruction ~bound (fun (_, (r : Workloads.Driver.run), statics, _) ->
        Analysis.Proflint.lint ~statics r.objfile r.gmon)
  in
  Printf.printf "  %-16s %6s %8s %11s %8s %10s %8s\n" "program" "text"
    "routines" "unreachable" "buckets" "lint us" "ns/instr";
  List.iter
    (fun ((((n, (r : Workloads.Driver.run), _, unreachable) as p), t) as row) ->
      Printf.printf "  %-16s %6d %8d %11d %8d %10.1f %8.0f\n"
        (Printf.sprintf "generated-%d" n) (text p) (n + 1) unreachable
        (Array.length r.gmon.hist.h_counts) (!t *. 1e6) (per row *. 1e9))
    rows;
  report "lint" ~bound lint;

  section "lint_pgo cost per instruction on generated programs";
  let bound = 4.0 in
  let ((rows, per, _, _) as pgo) =
    per_instruction ~bound (fun (_, (r : Workloads.Driver.run), _, _) ->
        Analysis.Proflint.lint_pgo ~baseline:r.objfile r.objfile)
  in
  Printf.printf "  %-16s %6s %8s %10s %8s\n" "program" "text" "routines"
    "lint_pgo us" "ns/instr";
  List.iter
    (fun ((((n, _, _, _) as p), t) as row) ->
      Printf.printf "  %-16s %6d %8d %10.1f %8.0f\n"
        (Printf.sprintf "generated-%d" n) (text p) (n + 1) (!t *. 1e6)
        (per row *. 1e9))
    rows;
  report "lint_pgo" ~bound pgo;

  section "indirect-arc recall (the 'functional parameter' blind spot)";
  let r = run_workload Workloads.Programs.indirect in
  let o = r.objfile in
  let ind = Analysis.Indirect.analyze o in
  let name_of addr =
    match Objcode.Objfile.find_symbol o addr with
    | Some s -> s.Objcode.Objfile.name
    | None -> "?"
  in
  (* Dynamic arcs whose call site holds a Calli are exactly the arcs
     the paper's crawl cannot see. Sound resolution must predict every
     one of them. *)
  let dynamic_indirect =
    List.filter_map
      (fun (a : Gmon.arc) ->
        if
          a.Gmon.a_from >= 0
          && a.Gmon.a_from < Array.length o.Objcode.Objfile.text
        then
          match o.Objcode.Objfile.text.(a.Gmon.a_from) with
          | Objcode.Instr.Calli _ ->
            Some (name_of a.Gmon.a_from, name_of a.Gmon.a_self)
          | _ -> None
        else None)
      r.gmon.Gmon.arcs
    |> List.sort_uniq compare
  in
  let predicted =
    List.map
      (fun (a, b) ->
        (o.Objcode.Objfile.symbols.(a).name, o.Objcode.Objfile.symbols.(b).name))
      ind.Analysis.Indirect.i_arcs
  in
  let recalled =
    List.filter (fun arc -> List.mem arc predicted) dynamic_indirect
  in
  Printf.printf
    "  dynamic indirect arcs: %d   predicted static arcs: %d   recalled: %d\n"
    (List.length dynamic_indirect) (List.length predicted)
    (List.length recalled);
  List.iter
    (fun (src, dst) ->
      Printf.printf "    %s -> %s%s\n" src dst
        (if List.mem (src, dst) predicted then "" else "   [MISSED]"))
    dynamic_indirect;
  expect "workload exercises indirect calls" (dynamic_indirect <> []);
  expect "recall = 1.0: every dynamic indirect arc is predicted"
    (List.length recalled = List.length dynamic_indirect);
  (* Over-approximation is allowed, silence is not: the resolved set
     may exceed what one run exercised, but a pass that predicted
     nothing would trivially "never miss". *)
  expect "prediction is an over-approximation (>= dynamic set)"
    (List.length predicted >= List.length dynamic_indirect);
  Obs.Metrics.set
    (Obs.Metrics.gauge Obs.Metrics.default "bench.analysis.indirect_recall_ppm"
       ~help:
         "share of dynamically observed indirect arcs predicted by the \
          static resolution, parts per million")
    (if dynamic_indirect = [] then 0
     else 1_000_000 * List.length recalled / List.length dynamic_indirect);

  section "count-0 arcs reach the report (use_static_arcs)";
  (* A dispatch table with an entry this run never picks: the arc to
     the unpicked handler exists only statically, so it can enter the
     listing only through the augmentation, and only at count 0. *)
  let unpicked : Workloads.Programs.t =
    {
      w_name = "unpicked";
      w_about = "dispatch table with a handler this run never selects";
      w_source =
        {|
array tab[2];
var sink;

fun used(x) { return x + 1; }
fun unpicked(x) { return x - 1; }

fun main() {
  var i;
  var f;
  tab[0] = used;
  tab[1] = unpicked;
  for (i = 0; i < 4000; i = i + 1) { f = tab[0]; sink = sink + f(i); }
  print(sink);
  return 0;
}
|};
    }
  in
  let r = run_workload unpicked in
  let options =
    { Gprof_core.Report.default_options with use_static_arcs = true }
  in
  let rep = analyze_run ~report:options r in
  let p = rep.Gprof_core.Report.profile in
  let statically_only =
    (* Child lines with zero traversals: the paper's "never
       responsible for any time propagation" arcs, visible in the
       call-graph listing only because the static augmentation added
       them. *)
    Array.fold_left
      (fun acc (e : Gprof_core.Profile.entry) ->
        acc
        + List.length
            (List.filter
               (fun (av : Gprof_core.Profile.arc_view) ->
                 av.Gprof_core.Profile.av_count = 0)
               e.Gprof_core.Profile.e_children))
      0 p.Gprof_core.Profile.entries
  in
  Printf.printf "  count-0 arcs in the augmented call graph: %d\n"
    statically_only;
  expect "static augmentation contributes count-0 arcs" (statically_only > 0)

let register () =
  register "t-analysis"
    "static analysis: pass cost vs text size, indirect-arc recall, count-0 arcs"
    t_analysis
