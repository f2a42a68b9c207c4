(* proflint — the profile-vs-binary consistency linter.

   Verifies every claim a gmon file makes against the executable it
   supposedly profiles (call sites hold calls, arc endpoints are
   entries, buckets map into text, arcs are feasible in the static
   graph) plus the binary-only checks (validation, call anomalies,
   reachability). With no profile arguments only the binary is
   linted. *)

open Cmdliner

let load_profile path =
  if Gmon.Epoch.sniff_file path then
    Result.bind (Gmon.Epoch.load path) Gmon.Epoch.sum
  else Gmon.load path

let run figure4 obj_path gmon_paths strict json obs_metrics pgo_baseline =
  let finish code =
    try
      Option.iter (Obs.Snapshot.save Obs.Metrics.default) obs_metrics;
      code
    with Sys_error e ->
      Printf.eprintf "proflint: %s\n" e;
      1
  in
  finish
  @@
  let inputs =
    if figure4 then
      Ok (Workloads.Figure4.objfile, [ ("figure4", Workloads.Figure4.gmon) ])
    else
      match obj_path with
      | None -> Error "an executable is required (or use --figure4)"
      | Some p -> (
        match Objcode.Objfile.load p with
        | Error e -> Error (Printf.sprintf "%s: %s" p e)
        | Ok o -> (
          let rec load acc = function
            | [] -> Ok (List.rev acc)
            | path :: rest -> (
              match load_profile path with
              | Error e -> Error (Printf.sprintf "%s: %s" path e)
              | Ok g -> load ((path, g) :: acc) rest)
          in
          match load [] gmon_paths with
          | Error e -> Error e
          | Ok gs -> Ok (o, gs)))
  in
  match inputs with
  | Error e ->
    Printf.eprintf "proflint: %s\n" e;
    1
  | Ok (obj, profiles) ->
    (* one preparation serves every profile; an invalid image's result
       is the lint of each *)
    let prepared = Analysis.Proflint.prepare obj in
    let lint f = Result.fold prepared ~ok:f ~error:Fun.id in
    let pgo =
      match pgo_baseline with
      | None -> Ok []
      | Some p -> (
        match Objcode.Objfile.load p with
        | Error e -> Error (Printf.sprintf "%s: %s" p e)
        | Ok baseline ->
          Ok [ ("pgo-baseline", Analysis.Proflint.lint_pgo ~baseline obj) ])
    in
    match pgo with
    | Error e ->
      Printf.eprintf "proflint: %s\n" e;
      1
    | Ok pgo ->
    let results =
      pgo
      @
      match profiles with
      | [] -> [ ("binary", lint Analysis.Proflint.lint_binary) ]
      | ps ->
        List.map
          (fun (name, g) ->
            (name, lint (fun st -> Analysis.Proflint.lint st g)))
          ps
    in
    (if json then
       let binary =
         if figure4 then "figure4" else Option.value obj_path ~default:"?"
       in
       print_string
         (Analysis.Proflint.to_json ~binary
            ~profiles:(List.map fst profiles)
            (List.map snd results))
     else
       match results with
       | [ (_, r) ] -> print_string (Analysis.Proflint.render r)
       | rs ->
         (* duplicate findings across N profiles collapse to one line *)
         print_string
           (Analysis.Proflint.render_aggregate ~nprofiles:(List.length rs)
              (List.map snd rs)));
    List.fold_left
      (fun c (_, r) -> max c (Analysis.Proflint.exit_code ~strict r))
      0 results

let figure4 =
  Arg.(value & flag & info [ "figure4" ]
         ~doc:"Lint the built-in Figure 4 fixture (executable and profile) \
               instead of the positional arguments.")

let obj =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"OBJ" ~doc:"Executable.")

let gmons =
  Arg.(value & pos_right 0 file [] & info [] ~docv:"GMON"
         ~doc:"Profile data files; each is linted against OBJ separately. \
               Epoch containers contribute the sum of their windows. With \
               none, only the binary-side rules run.")

let strict =
  Arg.(value
       & vflag true
           [
             ( true,
               info [ "strict" ]
                 ~doc:"Fail (exit 2) on warnings as well as errors (default)." );
             ( false,
               info [ "lenient" ]
                 ~doc:"Fail (exit 2) only on errors; warnings and notes are \
                       reported but do not affect the exit code." );
           ])

let json =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Emit the machine-readable report (schema gprof-repro.lint/1, \
               see docs/json-report.md) instead of the human listing: \
               aggregated findings sorted by (rule, function, pc), \
               byte-identical across runs on equal inputs. The exit code is \
               unchanged.")

let obs_metrics =
  Arg.(value & opt (some string) None & info [ "obs-metrics" ] ~docv:"FILE"
         ~doc:"Write proflint's own metrics registry as JSON to $(docv) \
               ('-' for stdout).")

let pgo_baseline =
  Arg.(value & opt (some file) None & info [ "pgo-baseline" ] ~docv:"OBJ"
         ~doc:"Treat the executable as a profile-guided rebuild of $(docv) \
               and run the pgo pairing rules: every baseline routine must \
               survive ([pgo-symbol-missing]), the entry must match \
               ([pgo-entry-mismatch]), instrumentation must not silently \
               drop ([pgo-profiled-dropped]), and inlined-away routines are \
               noted ([pgo-inlined-away]).")

let cmd =
  Cmd.v
    (Cmd.info "proflint" ~doc:"profile-vs-binary consistency linter")
    Term.(const run $ figure4 $ obj $ gmons $ strict $ json $ obs_metrics
          $ pgo_baseline)

let () = exit (Cmd.eval' cmd)
