(* Close the loop: feed each workload's own profile back into the
   compiler and measure, honestly, what the rebuild buys — executed
   instructions and simulated time against the baseline — then
   re-profile the optimized binary and lint the pairing, since a PGO
   build that can no longer be profiled has traded away the paper's
   whole subject. *)

open Harness

let workloads =
  Workloads.Programs.[ quick; matrix; sort; short; skewed ]

let optimize (w : Workloads.Programs.t) gmon =
  let p = Mini.Parser.parse_program w.w_source in
  match
    Pgo.optimize ~options:Compile.Codegen.profiling_options
      ~source_name:w.w_name p gmon
  with
  | Ok (obj, report) -> (obj, report)
  | Error e ->
    Printf.eprintf "pgo %s failed: %s\n" w.w_name e;
    exit 3

let run_obj name obj =
  let machine = Vm.Machine.create obj in
  match Vm.Machine.run machine with
  | Vm.Machine.Halted -> machine
  | Vm.Machine.Faulted f ->
    Printf.eprintf "optimized %s faulted: %s\n" name
      (Format.asprintf "%a" Vm.Machine.pp_fault f);
    exit 3
  | Vm.Machine.Running ->
    Printf.eprintf "optimized %s did not terminate\n" name;
    exit 3

type row = {
  w : Workloads.Programs.t;
  base : Workloads.Driver.run;
  obj : Objcode.Objfile.t;
  report : Pgo.report;
  machine : Vm.Machine.t;
  fresh : Gmon.t;
}

let t_pgo () =
  section "profile-guided rebuild vs baseline (instructions and simulated time)";
  Printf.printf "  %-10s %12s %12s %7s %12s %12s %7s\n" "workload" "base instr"
    "pgo instr" "delta" "base cyc" "pgo cyc" "delta";
  let rows =
    List.map
      (fun (w : Workloads.Programs.t) ->
        let base = run_workload w in
        let obj, report = optimize w base.gmon in
        let machine = run_obj w.w_name obj in
        let fresh = Vm.Machine.profile machine in
        let bi = Vm.Machine.instructions_executed base.machine
        and oi = Vm.Machine.instructions_executed machine
        and bc = Vm.Machine.cycles base.machine
        and oc = Vm.Machine.cycles machine in
        let pct a b = 100.0 *. float_of_int (b - a) /. float_of_int a in
        Printf.printf "  %-10s %12d %12d %6.2f%% %12d %12d %6.2f%%\n" w.w_name
          bi oi (pct bi oi) bc oc (pct bc oc);
        { w; base; obj; report; machine; fresh })
      workloads
  in
  let instr r = Vm.Machine.instructions_executed r.machine
  and base_instr r = Vm.Machine.instructions_executed r.base.machine
  and cyc r = Vm.Machine.cycles r.machine
  and base_cyc r = Vm.Machine.cycles r.base.machine in
  expect "no workload executes more instructions after PGO"
    (List.for_all (fun r -> instr r <= base_instr r) rows);
  expect "at least 2 workloads execute strictly fewer instructions"
    (List.length (List.filter (fun r -> instr r < base_instr r) rows) >= 2);
  expect "no workload takes more simulated time after PGO"
    (List.for_all (fun r -> cyc r <= base_cyc r) rows);
  expect "at least 2 workloads take strictly less simulated time"
    (List.length (List.filter (fun r -> cyc r < base_cyc r) rows) >= 2);
  expect "every optimized build prints the baseline's output"
    (List.for_all
       (fun r -> Vm.Machine.output r.machine = Vm.Machine.output r.base.machine)
       rows);

  section "the optimized binaries still profile cleanly";
  let lints =
    List.map
      (fun r ->
        ( r,
          Result.fold (Analysis.Proflint.prepare r.obj) ~error:Fun.id
            ~ok:(fun st -> Analysis.Proflint.lint st r.fresh) ))
      rows
  in
  List.iter
    (fun ((r : row), lint) ->
      Printf.printf "  %-10s fresh-profile lint exit %d\n" r.w.w_name
        (Analysis.Proflint.exit_code ~strict:true lint))
    lints;
  expect "fresh profile of every optimized binary lints clean (strict)"
    (List.for_all
       (fun (_, lint) -> Analysis.Proflint.exit_code ~strict:true lint = 0)
       lints);
  expect "pgo pairing rules find no errors or warnings against the baseline"
    (List.for_all
       (fun r ->
         Analysis.Proflint.exit_code ~strict:true
           (Analysis.Proflint.lint_pgo ~baseline:r.base.objfile r.obj)
         = 0)
       rows);

  section "decisions are deterministic";
  expect "a second optimization run reproduces binary and log byte-for-byte"
    (List.for_all
       (fun r ->
         let obj2, report2 = optimize r.w r.base.gmon in
         Objcode.Objfile.equal r.obj obj2
         && Pgo.report_listing r.report = Pgo.report_listing report2)
       rows);
  expect "the inliner fired on at least 2 workloads"
    (List.length (List.filter (fun r -> r.report.Pgo.p_inline_names <> []) rows)
    >= 2);
  expect "block layout changed somewhere"
    (List.exists (fun r -> r.report.Pgo.p_reorder <> []) rows);

  section "what the optimizer decided (sort workload)";
  (match List.find_opt (fun r -> r.w.Workloads.Programs.w_name = "sort") rows with
  | Some r -> print_string (Pgo.report_listing r.report)
  | None -> ())

let register () =
  register "t-pgo"
    "profile-guided optimization: optimized vs baseline, re-profiled and linted"
    t_pgo
