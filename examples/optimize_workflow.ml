(* The full §6 workflow, end to end: profile, find the bottleneck,
   apply the two optimizations the paper discusses (replace the
   algorithm; inline the hot accessor), and re-profile after each step
   — "profiling the program, eliminating one bottleneck, then finding
   some other part of the program that begins to dominate execution
   time". Along the way we use the line-level annotated listing, the
   finest view the era's profilers offered.

       dune exec examples/optimize_workflow.exe
*)

let run ?(options = Compile.Codegen.profiling_options) source =
  let o =
    match Compile.Codegen.compile_source ~options source with
    | Ok o -> o
    | Error e -> failwith e
  in
  let m = Vm.Machine.create o in
  (match Vm.Machine.run m with
  | Vm.Machine.Halted -> ()
  | Vm.Machine.Faulted f -> failwith (Format.asprintf "%a" Vm.Machine.pp_fault f)
  | Vm.Machine.Running -> assert false);
  (o, m)

let top_of_flat o m =
  match Gprof_core.Report.analyze o (Vm.Machine.profile m) with
  | Error e -> failwith e
  | Ok r -> (
    let p = r.profile in
    match Gprof_core.Flat.rows p with
    | (id, self, _, _) :: _ ->
      (Gprof_core.Symtab.name p.symtab id, 100.0 *. self /. p.total_time)
    | [] -> ("-", 0.0))

let () =
  let before = Workloads.Programs.lookup_linear in
  let after = Workloads.Programs.lookup_binary in

  print_endline "step 1: profile the program as written";
  let o1, m1 = run before.w_source in
  let name1, pct1 = top_of_flat o1 m1 in
  Printf.printf "  %.2f simulated seconds; hottest routine: %s (%.0f%% of time)\n\n"
    (float_of_int (Vm.Machine.ticks m1) /. 60.0)
    name1 pct1;

  print_endline "step 2: zoom in with the annotated source (hottest lines)";
  let ic1 = Gmon.Icount.of_counts (Vm.Machine.instruction_counts m1) in
  (match
     Gprof_core.Annotate.analyze ~icounts:ic1 ~source:before.w_source o1
       (Vm.Machine.profile m1)
   with
  | Error e -> failwith e
  | Ok t ->
    List.iter
      (fun (li : Gprof_core.Annotate.line_info) ->
        Printf.printf "  line %3d  %9s execs  %5.1f%%  %s\n" li.li_line
          (match li.li_execs with Some n -> string_of_int n | None -> "?")
          (100.0 *. li.li_ticks /. t.total_ticks)
          (String.trim li.li_text))
      (Gprof_core.Annotate.hottest t 3));
  print_endline "  -> the linear scan inside lookup dominates everything.\n";

  print_endline "step 3: replace the algorithm (linear search -> bisection)";
  let o2, m2 = run after.w_source in
  let name2, pct2 = top_of_flat o2 m2 in
  Printf.printf "  %.2fs -> %.2fs; the bottleneck moved to %s (%.0f%%)\n\n"
    (float_of_int (Vm.Machine.ticks m1) /. 60.0)
    (float_of_int (Vm.Machine.ticks m2) /. 60.0)
    name2 pct2;

  print_endline
    "step 4: close the loop — let the profile itself drive the optimizer";
  let m = Workloads.Programs.matrix in
  let o3, m3 = run m.w_source in
  ignore o3;
  (* No hand-picked --inline list: Pgo.optimize reads the profile we
     just took, decides which accessors are hot and small enough to
     expand, lays blocks out by measured heat, and orders functions by
     inclusive time. The decision log says exactly why. *)
  let o4, report =
    match
      Pgo.optimize ~options:Compile.Codegen.profiling_options
        ~source_name:m.w_name
        (Mini.Parser.parse_program m.w_source)
        (Vm.Machine.profile m3)
    with
    | Ok r -> r
    | Error e -> failwith e
  in
  let m4 = Vm.Machine.create o4 in
  (match Vm.Machine.run m4 with
  | Vm.Machine.Halted -> ()
  | Vm.Machine.Faulted f -> failwith (Format.asprintf "%a" Vm.Machine.pp_fault f)
  | Vm.Machine.Running -> assert false);
  Printf.printf
    "  matrix workload: %.2fs as written, %.2fs profile-optimized (%.2fx)\n"
    (float_of_int (Vm.Machine.ticks m3) /. 60.0)
    (float_of_int (Vm.Machine.ticks m4) /. 60.0)
    (float_of_int (Vm.Machine.cycles m3) /. float_of_int (Vm.Machine.cycles m4));
  Printf.printf "  it chose to expand: %s\n"
    (String.concat ", " report.Pgo.p_inline_names);
  print_endline
    "  ...and the paper's caveat: in the inlined build the accessors no longer\n\
    \  appear in the profile; their cost is merged into dot's self time.\n";

  print_endline "step 5: verify nothing changed semantically";
  Printf.printf "  outputs identical: %b\n"
    (Vm.Machine.output m3 = Vm.Machine.output m4)
