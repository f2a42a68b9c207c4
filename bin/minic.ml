(* minic — compile Mini source to an executable object file.

   The -pg/-p flags mirror the historical compiler options: -pg
   inserts the gprof monitoring prologue, -p the prof counter. *)

open Cmdliner

let read_file path =
  try Ok (In_channel.with_open_text path In_channel.input_all)
  with Sys_error e -> Error e

let run src_path out profile count skip inline fold listing dump_static werror
    profile_use pgo_report =
  let options =
    {
      Compile.Codegen.profile;
      count;
      profiled = (fun name -> not (List.mem name skip));
      inline;
      fold;
    }
  in
  match read_file src_path with
  | Error e ->
    Printf.eprintf "minic: %s\n" e;
    1
  | Ok src -> (
    match Mini.Parser.parse_program src with
    | exception Mini.Parser.Error (msg, loc) ->
      Printf.eprintf "minic: %s: %s: %s\n" src_path
        (Format.asprintf "%a" Mini.Ast.pp_loc loc)
        msg;
      1
    | p -> (
    let compiled =
      match profile_use with
      | None ->
        Result.map
          (fun o -> (o, None))
          (Compile.Codegen.compile_program ~options ~source_name:src_path p)
      | Some gmon_path -> (
        match Gmon.load gmon_path with
        | Error e -> Error e
        | Ok gmon ->
          Result.map
            (fun (o, r) -> (o, Some r))
            (Pgo.optimize ~options ~source_name:src_path p gmon))
    in
    match compiled with
    | Error e ->
      Printf.eprintf "minic: %s: %s\n" src_path e;
      1
    | Ok (o, pgo) ->
      (* the warnings come from the lint's statics of the generated
         code, which [assemble] validated, so the compiler flags what
         proflint would; the source adds each function's parameter
         count *)
      let warns =
        Analysis.Proflint.compiler_warnings
          (Result.get_ok (Analysis.Proflint.prepare o))
          ~params:
            (List.map
               (fun (f : Mini.Ast.fundef) -> (f.fname, List.length f.params))
               p.funs)
      in
      List.iter (Printf.eprintf "minic: %s: warning: %s\n" src_path) warns;
      if werror && warns <> [] then begin
        Printf.eprintf "minic: %s: %d warning(s) promoted to errors (--werror)\n"
          src_path (List.length warns);
        1
      end
      else
      let out =
        match out with
        | Some p -> p
        | None -> Filename.remove_extension src_path ^ ".obj"
      in
      Objcode.Objfile.save o out;
      (match pgo with
      | Some r when pgo_report -> print_string (Pgo.report_listing r)
      | _ -> ());
      if listing then print_string (Objcode.Disasm.program_listing o);
      if dump_static then begin
        print_endline "static call graph:";
        List.iter
          (fun (a, b) ->
            Printf.printf "    %s -> %s\n" o.Objcode.Objfile.symbols.(a).name
              o.Objcode.Objfile.symbols.(b).name)
          (Objcode.Scan.static_arcs o);
        match Objcode.Scan.referenced_functions o with
        | [] -> ()
        | fs ->
          print_endline "functions whose address is taken (indirect-call targets):";
          List.iter (fun f -> Printf.printf "    %s\n" f) fs
      end;
      0))

let src =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SOURCE" ~doc:"Mini source file.")

let out =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Output object file (default: source with .obj).")

let profile =
  Arg.(value & flag & info [ "pg"; "profile" ]
         ~doc:"Insert the call-graph monitoring prologue (gprof).")

let count =
  Arg.(value & flag & info [ "p"; "count" ]
         ~doc:"Insert per-function call counters (prof).")

let skip =
  Arg.(value & opt_all string [] & info [ "skip" ] ~docv:"NAME"
         ~doc:"Leave $(docv) uninstrumented; it runs at full speed. Repeatable.")

let inline =
  Arg.(value & opt_all string [] & info [ "inline" ] ~docv:"NAME"
         ~doc:"Expand calls to $(docv) at their call sites. Repeatable.")

let fold =
  Arg.(value & flag & info [ "O"; "fold" ] ~doc:"Fold constant expressions.")

let listing =
  Arg.(value & flag & info [ "S"; "listing" ] ~doc:"Print the assembly listing.")

let dump_static =
  Arg.(value & flag & info [ "static" ]
         ~doc:"Print the statically-discovered call graph.")

let werror =
  Arg.(value & flag & info [ "werror" ]
         ~doc:"Promote warnings to errors: report them and fail without \
               writing the object file. The warnings are proflint's \
               warning-severity checks on the generated code (dead stores, \
               dead parameters, constant branches except a loop's nonzero \
               condition, irreducible loops, indirect calls that reach no \
               function) and indirect calls whose argument count no \
               possible callee declares.")

let profile_use =
  Arg.(value & opt (some file) None & info [ "profile-use" ] ~docv:"GMON"
         ~doc:"Optimize with profile feedback from $(docv): inline hot \
               small callees, lay each function out so the hot path falls \
               through, and order functions by inclusive time. The profile \
               must come from a build of this program with the same flags \
               (minus $(b,--inline)/$(b,--profile-use)); a mismatched \
               profile is refused.")

let pgo_report =
  Arg.(value & flag & info [ "pgo-report" ]
         ~doc:"With $(b,--profile-use), print the deterministic decision \
               log: every inline decision with the numbers behind it, \
               per-function layout changes, and the final function order.")

let cmd =
  Cmd.v
    (Cmd.info "minic" ~doc:"Mini compiler targeting the profiling VM")
    Term.(const run $ src $ out $ profile $ count $ skip $ inline $ fold
          $ listing $ dump_static $ werror $ profile_use $ pgo_report)

let () = exit (Cmd.eval' cmd)
