(* kgmonx — control the profiler of a "running kernel".

   Runs an executable under a control script that toggles, resets,
   and extracts profiles mid-run, the way kgmon drove the Berkeley
   kernel's profiler. Each `dump LABEL` writes LABEL.gmon (or LABEL
   verbatim when it already ends in .gmon). *)

open Cmdliner

let run obj_path script seed quiet =
  match Objcode.Verify.load obj_path with
  | Error es ->
    List.iter (Printf.eprintf "kgmonx: %s: %s\n" obj_path) es;
    1
  | Ok o -> (
    match Vm.Kscript.parse script with
    | Error e ->
      Printf.eprintf "kgmonx: script: %s\n" e;
      1
    | Ok cmds ->
      let m =
        Vm.Machine.create ~config:{ Vm.Machine.default_config with seed } o
      in
      let outcome = Vm.Kscript.execute m cmds in
      let dump_failed = ref false in
      List.iter
        (fun (label, g) ->
          let path =
            if Filename.check_suffix label ".gmon" then label
            else label ^ ".gmon"
          in
          match Gmon.save g path with
          | Ok () ->
            Printf.eprintf "kgmonx: %s: %d ticks, %d arcs\n" path
              (Gmon.total_ticks g)
              (List.length g.Gmon.arcs)
          | Error e ->
            Printf.eprintf "kgmonx: %s\n" e;
            dump_failed := true)
        outcome.dumps;
      if not quiet then print_string (Vm.Machine.output m);
      let code =
        match outcome.status with
        | Vm.Machine.Halted ->
          Printf.eprintf "kgmonx: halted after %d cycles\n" (Vm.Machine.cycles m);
          0
        | Vm.Machine.Running ->
          Printf.eprintf "kgmonx: still running at %d cycles (script ended)\n"
            (Vm.Machine.cycles m);
          0
        | Vm.Machine.Faulted f ->
          Format.eprintf "kgmonx: %a@." Vm.Machine.pp_fault f;
          125
      in
      if code = 0 && !dump_failed then 1 else code)

let obj =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"OBJ" ~doc:"Executable.")

let script =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"SCRIPT"
         ~doc:"Control script, e.g. \
               'off; run 500000; on; run 2000000; dump boot; reset; \
               run-to-end; dump steady'.")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress program output.")

let cmd =
  Cmd.v
    (Cmd.info "kgmonx" ~doc:"runtime profiler control (the kgmon workflow)")
    Term.(const run $ obj $ script $ seed $ quiet)

let () = exit (Cmd.eval' cmd)
