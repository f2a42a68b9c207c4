(* profdiff — compare two profiled runs, routine by routine.

   The two executables may differ (that is the point: one is the
   optimized rebuild), so routines are matched by name. Either side
   may be arc profile data (gmon) or a sampled-profile container
   (sprof, from minirun --sample-ticks); the magic decides, so the
   two estimators can be diffed against each other directly. *)

open Cmdliner

(* each side reduces to Diffprof's generic accounting: per-routine
   self and total seconds, plus the side's total *)
let analyze ~lenient obj_path prof_path =
  match Objcode.Objfile.load_valid obj_path with
  | Error es -> Error (Printf.sprintf "%s: %s" obj_path (String.concat "; " es))
  | Ok o -> (
    let mode = if lenient then `Salvage else `Strict in
    if Gmon.Sprof.sniff_file prof_path then
      match Gmon.Sprof.load_report ~mode prof_path with
      | Error e -> Error (Gmon.decode_error_to_string e)
      | Ok (sp, rep) ->
        if Gmon.report_degraded rep then
          Printf.eprintf "profdiff: salvaged %s: %s\n" prof_path
            (Gmon.report_summary rep);
        let s = Stacksample.Stackprof.of_sprof o sp in
        let rows =
          List.map
            (fun (r : Stacksample.Stackprof.row) ->
              {
                Gprof_core.Diffprof.s_name = r.s_name;
                s_self = r.s_exclusive;
                s_total = r.s_inclusive;
                s_calls = None;
              })
            s.rows
        in
        Ok (rows, s.total_seconds, Gmon.report_degraded rep)
    else
      (* the decode error already names the file and byte offset *)
      match Gmon.load_report ~mode prof_path with
      | Error e -> Error (Gmon.decode_error_to_string e)
      | Ok (g, rep) -> (
        if Gmon.report_degraded rep then
          Printf.eprintf "profdiff: salvaged %s: %s\n" prof_path
            (Gmon.report_summary rep);
        let options = { Gprof_core.Report.default_options with lenient } in
        match Gprof_core.Report.analyze ~options o g with
        | Error e -> Error e
        | Ok r ->
          Ok
            ( Gprof_core.Diffprof.side_rows r.profile,
              r.profile.total_time,
              Gmon.report_degraded rep || Gprof_core.Report.degraded r )))

let run obj_a gmon_a obj_b gmon_b lenient =
  match (analyze ~lenient obj_a gmon_a, analyze ~lenient obj_b gmon_b) with
  | Error e, _ | _, Error e ->
    Printf.eprintf "profdiff: %s\n" e;
    1
  | Ok (a, total_a, deg_a), Ok (b, total_b, deg_b) ->
    print_string
      (Gprof_core.Diffprof.listing
         (Gprof_core.Diffprof.diff_sides ~total_a a ~total_b b));
    if deg_a || deg_b then begin
      Printf.eprintf "profdiff: comparison degraded (salvaged data)\n";
      2
    end
    else 0

let pos_file i docv doc = Arg.(required & pos i (some file) None & info [] ~docv ~doc)

let lenient =
  Arg.(value
       & vflag false
           [
             ( true,
               info [ "lenient" ]
                 ~doc:
                   "Salvage damaged profile data instead of failing: \
                    truncated files contribute their valid prefix and \
                    unresolvable records fold into <unknown>. Exits 2 \
                    when either side was salvaged, 0 when both were \
                    clean." );
             ( false,
               info [ "strict" ]
                 ~doc:"Reject damaged profile data outright (default)." );
           ])

let cmd =
  Cmd.v
    (Cmd.info "profdiff" ~doc:"diff two profiled runs by routine")
    Term.(
      const run
      $ pos_file 0 "OBJ_A" "Executable of the first (before) run."
      $ pos_file 1 "GMON_A" "Profile data of the first run (gmon or sprof)."
      $ pos_file 2 "OBJ_B" "Executable of the second (after) run."
      $ pos_file 3 "GMON_B" "Profile data of the second run (gmon or sprof)."
      $ lenient)

let () = exit (Cmd.eval' cmd)
