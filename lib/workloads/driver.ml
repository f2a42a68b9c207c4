type run = {
  objfile : Objcode.Objfile.t;
  machine : Vm.Machine.t;
  gmon : Gmon.t;
}

let compile ?(options = Compile.Codegen.profiling_options) (w : Programs.t) =
  Compile.Codegen.compile_source ~options ~source_name:w.w_name w.w_source

let run ?(options = Compile.Codegen.profiling_options)
    ?(config = Vm.Machine.default_config) w =
  match compile ~options w with
  | Error e -> Error (Printf.sprintf "%s: compile: %s" w.Programs.w_name e)
  | Ok objfile -> (
    let machine = Vm.Machine.create ~config objfile in
    match Vm.Machine.run machine with
    | Vm.Machine.Halted ->
      Ok { objfile; machine; gmon = Vm.Machine.profile machine }
    | Vm.Machine.Faulted f ->
      Error (Format.asprintf "%s: %a" w.Programs.w_name Vm.Machine.pp_fault f)
    | Vm.Machine.Running -> Error (w.Programs.w_name ^ ": did not terminate"))

let analyze ?options ?config ?(report = Gprof_core.Report.default_options) w =
  match run ?options ?config w with
  | Error e -> Error e
  | Ok r -> (
    match Gprof_core.Report.analyze ~options:report r.objfile r.gmon with
    | Error e -> Error (Printf.sprintf "%s: analyze: %s" w.Programs.w_name e)
    | Ok rep -> Ok (rep, r))
