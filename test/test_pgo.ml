(* Tests for the profile-guided optimization subsystem: the
   profile-to-program pairing guard, the inline/layout/order decisions,
   determinism of the decision log, and the proflint pairing rules. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let profile_of (w : Workloads.Programs.t) =
  match Workloads.Driver.run w with
  | Ok r -> r
  | Error e -> Alcotest.failf "driver %s: %s" w.w_name e

let optimize (w : Workloads.Programs.t) gmon =
  let p = Mini.Parser.parse_program w.w_source in
  match
    Pgo.optimize ~options:Compile.Codegen.profiling_options
      ~source_name:w.w_name p gmon
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "optimize %s: %s" w.w_name e

let run_halted obj =
  let m = Vm.Machine.create obj in
  match Vm.Machine.run m with
  | Vm.Machine.Halted -> m
  | Vm.Machine.Faulted f -> Alcotest.failf "fault: %a" Vm.Machine.pp_fault f
  | Vm.Machine.Running -> Alcotest.fail "did not halt"

(* ------------------------------------------------------------------ *)

let test_optimize_improves_matrix () =
  let base = profile_of Workloads.Programs.matrix in
  let obj, report = optimize Workloads.Programs.matrix base.gmon in
  let m = run_halted obj in
  check_bool "fewer instructions" true
    (Vm.Machine.instructions_executed m
    < Vm.Machine.instructions_executed base.machine);
  check_bool "fewer cycles" true
    (Vm.Machine.cycles m < Vm.Machine.cycles base.machine);
  check_string "same output" (Vm.Machine.output base.machine)
    (Vm.Machine.output m);
  check_bool "the accessors were inlined" true
    (List.mem "get_a" report.Pgo.p_inline_names
    && List.mem "get_b" report.Pgo.p_inline_names);
  (* every baseline routine keeps a slot in the emitted order *)
  check_int "order covers all functions"
    (Array.length base.objfile.Objcode.Objfile.symbols)
    (List.length report.Pgo.p_order)

let test_report_is_deterministic () =
  let base = profile_of Workloads.Programs.sort in
  let obj1, r1 = optimize Workloads.Programs.sort base.gmon in
  let obj2, r2 = optimize Workloads.Programs.sort base.gmon in
  check_bool "binaries byte-identical" true (Objcode.Objfile.equal obj1 obj2);
  check_string "decision logs byte-identical" (Pgo.report_listing r1)
    (Pgo.report_listing r2);
  (* the log names its inputs, so a stale one cannot masquerade *)
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "log names the source" true
    (contains "sort" (Pgo.report_listing r1))

let test_mismatched_profile_refused () =
  (* a profile of one program must not silently optimize another *)
  let base = profile_of Workloads.Programs.quick in
  let p = Mini.Parser.parse_program Workloads.Programs.sort.w_source in
  match
    Pgo.optimize ~options:Compile.Codegen.profiling_options ~source_name:"sort"
      p base.gmon
  with
  | Ok _ -> Alcotest.fail "mismatched profile accepted"
  | Error e ->
    check_bool "refusal explains the pairing failure" true
      (String.length e > 0)

let test_nonpositive_bucket_size_refused () =
  (* the lint refuses the histogram before anything divides by its
     bucket size *)
  let base = profile_of Workloads.Programs.matrix in
  let p = Mini.Parser.parse_program Workloads.Programs.matrix.w_source in
  List.iter
    (fun size ->
      let gmon =
        { base.gmon with
          Gmon.hist = { base.gmon.Gmon.hist with Gmon.h_bucket_size = size } }
      in
      match
        Pgo.optimize ~options:Compile.Codegen.profiling_options
          ~source_name:"matrix" p gmon
      with
      | Ok _ -> Alcotest.failf "bucket size %d accepted" size
      | Error e ->
        let needle = "[hist-geometry]" in
        let n = String.length needle in
        check_bool
          (Printf.sprintf "size %d: %s names hist-geometry" size e)
          true
          (List.exists
             (fun i -> String.sub e i n = needle)
             (List.init (String.length e - n + 1) Fun.id)))
    [ 0; -1 ]

let test_optimized_binary_reprofiles_cleanly () =
  let base = profile_of Workloads.Programs.sort in
  let obj, _ = optimize Workloads.Programs.sort base.gmon in
  let m = run_halted obj in
  let fresh = Vm.Machine.profile m in
  check_int "fresh profile lints clean (strict)" 0
    (Analysis.Proflint.exit_code ~strict:true
       (Result.fold (Analysis.Proflint.prepare obj) ~error:Fun.id ~ok:(fun st ->
            Analysis.Proflint.lint st fresh)))

(* A round builds one CFG, the reference build's, which the lint reads;
   the block layout finds its blocks on the Asm items it rewrites. *)
let test_one_cfg_per_round () =
  let base = profile_of Workloads.Programs.sort in
  let t = Obs.Trace.default in
  Obs.Trace.clear t;
  Obs.Trace.set_enabled t true;
  let _, report =
    Fun.protect
      ~finally:(fun () -> Obs.Trace.set_enabled t false)
      (fun () -> optimize Workloads.Programs.sort base.gmon)
  in
  let builds =
    List.filter (fun s -> s.Obs.Trace.s_name = "cfg-build") (Obs.Trace.spans t)
  in
  Obs.Trace.clear t;
  check_bool "the layout rewrote a function" true (report.Pgo.p_reorder <> []);
  check_int "cfg-build spans" 1 (List.length builds)

let test_lint_pgo_pairing_rules () =
  let base = profile_of Workloads.Programs.matrix in
  let obj, _ = optimize Workloads.Programs.matrix base.gmon in
  let lint = Analysis.Proflint.lint_pgo ~baseline:base.objfile obj in
  check_int "no errors or warnings" 0
    (Analysis.Proflint.exit_code ~strict:true lint);
  check_bool "inlined-away accessors are noted" true
    (List.exists
       (fun (f : Analysis.Proflint.finding) ->
         f.f_rule = "pgo-inlined-away" && f.f_func = Some "get_a")
       lint.l_findings);
  (* an unrelated binary is no rebuild of the baseline: symbols differ *)
  let other = profile_of Workloads.Programs.sort in
  let cross = Analysis.Proflint.lint_pgo ~baseline:base.objfile other.objfile in
  check_bool "missing symbols are errors" true
    (List.exists
       (fun (f : Analysis.Proflint.finding) ->
         f.f_rule = "pgo-symbol-missing"
         && f.f_severity = Analysis.Proflint.Error)
       cross.l_findings)

let test_forced_inline_overrides_heat () =
  (* --inline names must be honoured even when the profile says cold *)
  let base = profile_of Workloads.Programs.sort in
  let p = Mini.Parser.parse_program Workloads.Programs.sort.w_source in
  let options =
    { Compile.Codegen.profiling_options with inline = [ "less" ] }
  in
  match Pgo.optimize ~options ~source_name:"sort" p base.gmon with
  | Error e -> Alcotest.failf "optimize: %s" e
  | Ok (_, report) ->
    let d =
      List.find
        (fun (d : Pgo.inline_decision) -> d.i_callee = "less")
        report.Pgo.p_inline
    in
    check_bool "taken" true d.Pgo.i_taken;
    check_string "reason records the flag" "forced by --inline"
      d.Pgo.i_why

let () =
  Alcotest.run "pgo"
    [
      ( "optimize",
        [
          Alcotest.test_case "improves matrix" `Slow test_optimize_improves_matrix;
          Alcotest.test_case "report deterministic" `Slow
            test_report_is_deterministic;
          Alcotest.test_case "mismatched profile refused" `Slow
            test_mismatched_profile_refused;
          Alcotest.test_case "nonpositive bucket size refused" `Quick
            test_nonpositive_bucket_size_refused;
          Alcotest.test_case "optimized binary reprofiles cleanly" `Slow
            test_optimized_binary_reprofiles_cleanly;
          Alcotest.test_case "forced inline overrides heat" `Slow
            test_forced_inline_overrides_heat;
          Alcotest.test_case "one CFG per round" `Quick test_one_cfg_per_round;
        ] );
      ( "lint",
        [ Alcotest.test_case "pairing rules" `Slow test_lint_pgo_pairing_rules ] );
    ]
