(* profx — the baseline flat profiler, prof(1).

   Histogram from the gmon file, call counts from the counter file
   that minirun --prof-out wrote. No arcs, no propagation. *)

open Cmdliner

let run obj_path gmon_path counts_path lenient obs_metrics obs_trace =
  if obs_trace <> None then Obs.Trace.set_enabled Obs.Trace.default true;
  let finish code =
    try
      Option.iter (Obs.Snapshot.save Obs.Metrics.default) obs_metrics;
      Option.iter (Obs.Trace.save_chrome Obs.Trace.default) obs_trace;
      code
    with Sys_error e ->
      Printf.eprintf "profx: %s\n" e;
      1
  in
  finish
  @@
  match
    Obs.Trace.with_span ~cat:"prof" "load-objfile" (fun () ->
        Objcode.Objfile.load_valid obj_path)
  with
  | Error es ->
    List.iter (Printf.eprintf "profx: %s: %s\n" obj_path) es;
    1
  | Ok o -> (
    let mode = if lenient then `Salvage else `Strict in
    match Gmon.load_report ~mode gmon_path with
    | Error e ->
      (* the decode error already names the file and byte offset *)
      Printf.eprintf "profx: %s\n" (Gmon.decode_error_to_string e);
      1
    | Ok (gmon, rep) -> (
      if Gmon.report_degraded rep then
        Printf.eprintf "profx: salvaged %s: %s\n" gmon_path
          (Gmon.report_summary rep);
      let counts =
        match counts_path with
        | Some p -> Profbase.Profcounts.load o p
        | None -> Ok (Array.make (Array.length o.Objcode.Objfile.symbols) 0)
      in
      match counts with
      | Error e ->
        Printf.eprintf "profx: %s\n" e;
        1
      | Ok counts ->
        let t =
          Obs.Trace.with_span ~cat:"prof" "analyze" (fun () ->
              Profbase.Prof.analyze o ~hist:gmon.Gmon.hist ~counts
                ~ticks_per_second:gmon.Gmon.ticks_per_second)
        in
        print_string
          (Obs.Trace.with_span ~cat:"prof" "listing" (fun () ->
               Profbase.Prof.listing t));
        if Gmon.report_degraded rep then begin
          Printf.eprintf "profx: analysis degraded (salvaged data)\n";
          2
        end
        else 0))

let obj =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"OBJ" ~doc:"Executable.")

let gmon =
  Arg.(required & pos 1 (some file) None & info [] ~docv:"GMON" ~doc:"Profile data.")

let counts =
  Arg.(value & pos 2 (some file) None & info [] ~docv:"COUNTS"
         ~doc:"Per-function counter file from minirun --prof-out.")

let lenient =
  Arg.(value
       & vflag false
           [
             ( true,
               info [ "lenient" ]
                 ~doc:
                   "Salvage a damaged profile data file instead of \
                    failing: a truncated file contributes its valid \
                    prefix. Exits 2 when anything was salvaged." );
             ( false,
               info [ "strict" ]
                 ~doc:"Reject damaged profile data outright (default)." );
           ])

let obs_metrics =
  Arg.(value & opt (some string) None & info [ "obs-metrics" ] ~docv:"FILE"
         ~doc:"Write profx's own metrics registry as JSON to $(docv) \
               ('-' for stdout).")

let obs_trace =
  Arg.(value & opt (some string) None & info [ "obs-trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace_event JSON of profx's phases to $(docv).")

let cmd =
  Cmd.v
    (Cmd.info "profx" ~doc:"flat execution profiler (the prof(1) baseline)")
    Term.(const run $ obj $ gmon $ counts $ lenient $ obs_metrics $ obs_trace)

let () = exit (Cmd.eval' cmd)
