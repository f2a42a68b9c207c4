(* profwatch — a continuous regression gate over profile data.

   Section 6's loop (profile, change something, re-profile) usually
   runs by hand; profwatch runs it as a gate. Point it at a directory
   that accumulates profile data files — one per CI run, say — and it
   analyzes them in filename order, compares each consecutive pair
   with the Regress policy, and exits non-zero when a routine's time
   grew past the threshold. Epoch containers from minirun
   --epoch-ticks expand into one comparison point per window, so a
   single long run can be gated on its own timeline. *)

open Cmdliner

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

(* Each profile data file is analyzed against the executable it came
   from: a sibling <base>.obj when present, the default otherwise.
   (Builds drift; that is the point of watching.) *)
let obj_for ~cache ~default_obj path =
  let sibling = Filename.remove_extension path ^ ".obj" in
  let chosen = if Sys.file_exists sibling then sibling else default_obj in
  match Hashtbl.find_opt cache chosen with
  | Some o -> Ok (chosen, o)
  | None -> (
    match Objcode.Objfile.load_valid chosen with
    | Error es -> fail "%s: %s" chosen (String.concat "; " es)
    | Ok o ->
      Hashtbl.add cache chosen o;
      Ok (chosen, o))

let analyze ~options o gmon =
  match Gprof_core.Report.analyze ~options o gmon with
  | Error e -> Error e
  | Ok r -> Ok r.Gprof_core.Report.profile

(* A data file yields one labeled profile — or, for an epoch
   container, one per window ("file#3"). *)
let points_of_file ~lenient ~options ~cache ~default_obj path =
  let mode = if lenient then `Salvage else `Strict in
  match obj_for ~cache ~default_obj path with
  | Error e -> Error e
  | Ok (_, o) ->
    if Gmon.Epoch.sniff_file path then
      match Gmon.Epoch.load_report ~mode path with
      | Error e -> Error (Gmon.decode_error_to_string e)
      | Ok (c, rep) ->
        if Gmon.report_degraded rep then
          Printf.eprintf "profwatch: salvaged %s: %s\n%!" path
            (Gmon.report_summary rep);
        let rec go k acc = function
          | [] -> Ok (List.rev acc)
          | e :: rest -> (
            match
              analyze ~options o (Gmon.Epoch.profile_of c e)
            with
            | Error msg -> fail "%s#%d: %s" path k msg
            | Ok p -> go (k + 1) ((Printf.sprintf "%s#%d" path k, p) :: acc) rest)
        in
        go 1 [] c.Gmon.Epoch.e_epochs
    else
      match Gmon.load_report ~mode path with
      | Error e -> Error (Gmon.decode_error_to_string e)
      | Ok (g, rep) ->
        if Gmon.report_degraded rep then
          Printf.eprintf "profwatch: salvaged %s: %s\n%!" path
            (Gmon.report_summary rep);
        (match analyze ~options o g with
        | Error msg -> fail "%s: %s" path msg
        | Ok p -> Ok [ (path, p) ])

let data_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         Filename.check_suffix f ".gmon" || Filename.check_suffix f ".epochs")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let scan_once ~policy ~lenient ~options ~cache ~default_obj dir =
  let rec collect acc = function
    | [] -> Ok (List.concat (List.rev acc))
    | f :: rest -> (
      match points_of_file ~lenient ~options ~cache ~default_obj f with
      | Error e -> Error e
      | Ok pts -> collect (pts :: acc) rest)
  in
  match collect [] (data_files dir) with
  | Error e -> Error e
  | Ok points -> Ok (points, Gprof_core.Regress.scan policy points)

let run default_obj dir min_seconds min_ratio self_only lenient poll =
  let policy =
    {
      Gprof_core.Regress.p_min_seconds = min_seconds;
      p_min_ratio = min_ratio;
      p_descendants = not self_only;
    }
  in
  let options = { Gprof_core.Report.default_options with lenient } in
  let cache = Hashtbl.create 8 in
  let once () = scan_once ~policy ~lenient ~options ~cache ~default_obj dir in
  match poll with
  | None -> (
    match once () with
    | Error e ->
      Printf.eprintf "profwatch: %s\n" e;
      1
    | Ok (points, findings) ->
      Printf.eprintf "profwatch: %d profile point(s) in %s\n%!"
        (List.length points) dir;
      if findings = [] then begin
        print_string "profwatch: steady\n";
        0
      end
      else begin
        print_string (Gprof_core.Regress.listing findings);
        2
      end)
  | Some secs ->
    (* Tail the directory: re-scan when the set of data files grows,
       exit 2 at the first regression, keep watching otherwise. *)
    let rec watch seen =
      let files = data_files dir in
      if files = seen then begin
        Unix.sleepf secs;
        watch seen
      end
      else
        match once () with
        | Error e ->
          Printf.eprintf "profwatch: %s\n" e;
          1
        | Ok (points, findings) ->
          Printf.eprintf "profwatch: %d profile point(s) in %s\n%!"
            (List.length points) dir;
          if findings = [] then begin
            Unix.sleepf secs;
            watch files
          end
          else begin
            print_string (Gprof_core.Regress.listing findings);
            2
          end
    in
    watch []

let obj =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"OBJ"
         ~doc:"Default executable, used for data files without a sibling \
               .obj file.")

let dir =
  Arg.(required & pos 1 (some dir) None & info [] ~docv:"DIR"
         ~doc:"Directory of profile data files (*.gmon, *.epochs), \
               compared in filename order.")

let min_seconds =
  Arg.(value & opt float 0.05 & info [ "min-seconds" ] ~docv:"S"
         ~doc:"Flag a routine only when its time grew by at least $(docv) \
               simulated seconds.")

let min_ratio =
  Arg.(value & opt float 0.25 & info [ "min-ratio" ] ~docv:"R"
         ~doc:"Flag a routine only when its time grew by at least the \
               fraction $(docv) (0.25 = 25%%).")

let self_only =
  Arg.(value & flag & info [ "self-only" ]
         ~doc:"Gate on self time only; skip the self+descendants check.")

let lenient =
  Arg.(value & flag & info [ "lenient" ]
         ~doc:"Salvage damaged data files (valid prefixes contribute; \
               unresolvable records fold into <unknown>) instead of \
               failing the scan.")

let poll =
  Arg.(value & opt (some float) None & info [ "poll" ] ~docv:"SECS"
         ~doc:"Keep watching: re-scan whenever the directory gains or \
               loses data files, checking every $(docv) seconds, and exit \
               at the first regression.")

let cmd =
  Cmd.v
    (Cmd.info "profwatch"
       ~doc:"watch a directory of profiles and gate on regressions"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P "0 on a steady profile sequence; 2 when a regression was \
               flagged; 1 on errors.";
         ])
    Term.(const run $ obj $ dir $ min_seconds $ min_ratio $ self_only
          $ lenient $ poll)

let () = exit (Cmd.eval' cmd)
