(* gprofx — the call graph execution profiler.

   Post-processes an executable plus one or more profile data files
   (several files are summed, gprof's -s). The arc-removal, cycle-
   breaking, and filtering options are the retrospective's additions. *)

open Cmdliner

let parse_arc s =
  match String.split_on_char ':' s with
  | [ a; b ] when a <> "" && b <> "" -> Ok (a, b)
  | _ -> Error (`Msg (Printf.sprintf "expected CALLER:CALLEE, got %S" s))

let arc_conv = Arg.conv (parse_arc, fun ppf (a, b) -> Format.fprintf ppf "%s:%s" a b)

(* Rerun the PGO pipeline from Mini source + merged profile — the same
   decisions minic --profile-use would act on, without rebuilding. *)
let pgo_of_source src_path gmon =
  match In_channel.with_open_text src_path In_channel.input_all with
  | exception Sys_error e -> Error e
  | src -> (
    match Mini.Parser.parse_program src with
    | exception Mini.Parser.Error (msg, loc) ->
      Error
        (Printf.sprintf "%s: %s: %s" src_path
           (Format.asprintf "%a" Mini.Ast.pp_loc loc)
           msg)
    | p ->
      Pgo.optimize ~options:Compile.Codegen.profiling_options
        ~source_name:src_path p gmon)

let run obj_path gmon_paths store_dir no_static removed break focus exclude
    min_percent lenient view format epoch timeline lint cost divergence annotate
    icount_path verbose dot_out obs_metrics obs_trace self_profile pgo_advise
    profile_use =
  if obs_trace <> None || self_profile then
    Obs.Trace.set_enabled Obs.Trace.default true;
  let finish code =
    (* Exports happen last so the spans and counters of every pass —
       including the listing renderers — are included. *)
    if self_profile then begin
      print_newline ();
      print_string "gprofx self-profile (wall time of its own passes):\n";
      print_string (Obs.Trace.summary Obs.Trace.default)
    end;
    try
      Option.iter (Obs.Snapshot.save Obs.Metrics.default) obs_metrics;
      Option.iter (Obs.Trace.save_chrome Obs.Trace.default) obs_trace;
      code
    with Sys_error e ->
      Printf.eprintf "gprofx: %s\n" e;
      1
  in
  finish
  @@
  match Objcode.Objfile.load_valid obj_path with
  | Error es ->
    List.iter (Printf.eprintf "gprofx: %s: %s\n" obj_path) es;
    1
  | Ok o -> (
    let mode = if lenient then `Salvage else `Strict in
    let options =
      {
        Gprof_core.Report.use_static_arcs = not no_static;
        removed_arcs = removed;
        auto_break_cycles = break;
        focus;
        exclude;
        min_percent;
        lenient;
      }
    in
    (* A positional file may be a plain profile, an epoch container, or
       a sampled-profile (sprof) container; the magic decides. *)
    let sprof_paths, gmon_paths =
      List.partition Gmon.Sprof.sniff_file gmon_paths
    in
    if timeline && store_dir <> None then begin
      Printf.eprintf "gprofx: --timeline analyzes an epoch container, not a store\n";
      1
    end
    else if gmon_paths = [] && sprof_paths = [] && store_dir = None then begin
      Printf.eprintf "gprofx: no profile data (give GMON files, or --store DIR)\n";
      1
    end
    else if timeline then begin
      (* The timeline digest analyzes each window of one epoch
         container; it replaces the listings entirely. *)
      match gmon_paths with
      | [ path ] when Gmon.Epoch.sniff_file path -> (
        match Gmon.Epoch.load_report ~mode path with
        | Error e ->
          Printf.eprintf "gprofx: %s\n" (Gmon.decode_error_to_string e);
          1
        | Ok (c, rep) -> (
          if Gmon.report_degraded rep then
            Printf.eprintf "gprofx: salvaged %s: %s\n" path
              (Gmon.report_summary rep);
          match Gprof_core.Export.timeline ~options o c with
          | Error e ->
            Printf.eprintf "gprofx: %s\n" e;
            1
          | Ok digest ->
            print_string digest;
            if Gmon.report_degraded rep then begin
              Printf.eprintf
                "gprofx: analysis degraded (salvaged or quarantined data)\n";
              2
            end
            else 0))
      | _ ->
        Printf.eprintf
          "gprofx: --timeline takes exactly one epoch container (from \
           minirun --epoch-ticks)\n";
        1
    end
    else
    (* Strict mode (the default) fails the whole run on the first
       undecodable file. Lenient mode salvages what it can, quarantines
       what it cannot, reports both on stderr, and turns any data loss
       into the "degraded" exit code 2 rather than a failure.

       A positional file may also be an epoch container; it contributes
       the epoch selected with --epoch, or the sum of all its epochs
       (identical to the profile of the whole run). *)
    let load_one path =
      if Gmon.Epoch.sniff_file path then
        match Gmon.Epoch.load_report ~mode path with
        | Error e -> Error (Gmon.decode_error_to_string e)
        | Ok (c, rep) -> (
          let selected =
            match epoch with
            | Some n ->
              Result.map (Gmon.Epoch.profile_of c) (Gmon.Epoch.nth c n)
            | None -> Gmon.Epoch.sum c
          in
          match selected with
          | Error e -> Error (Printf.sprintf "%s: %s" path e)
          | Ok g -> Ok (g, rep))
      else if epoch <> None then
        Error
          (Printf.sprintf
             "%s: --epoch applies to epoch containers, and this is a plain \
              profile"
             path)
      else
        match Gmon.load_report ~mode path with
        | Error e -> Error (Gmon.decode_error_to_string e)
        | Ok gr -> Ok gr
    in
    let per_file = List.map (fun p -> (p, load_one p)) gmon_paths in
    let loaded =
      if lenient then begin
        List.iter
          (fun (path, r) ->
            match r with
            | Ok (_, rep) when Gmon.report_degraded rep ->
              Printf.eprintf "gprofx: salvaged %s: %s\n" path
                (Gmon.report_summary rep)
            | _ -> ())
          per_file;
        match
          Gmon.merge_all_quarantine
            (List.map (fun (p, r) -> (p, Result.map fst r)) per_file)
        with
        | Error e -> Error e
        | Ok (gmon, quarantined) ->
          List.iter
            (fun (q : Gmon.quarantined) ->
              Printf.eprintf "gprofx: quarantined %s: %s\n" q.q_path q.q_reason)
            quarantined;
          let degraded =
            quarantined <> []
            || List.exists
                 (fun (_, r) ->
                   match r with
                   | Ok (_, rep) -> Gmon.report_degraded rep
                   | Error _ -> false)
                 per_file
          in
          Ok (gmon, degraded)
      end
      else
        let rec collect acc = function
          | [] -> Result.map (fun g -> (g, false)) (Gmon.merge_all (List.rev acc))
          | (_, Ok (g, _)) :: rest -> collect (g :: acc) rest
          | (_, Error e) :: _ -> Error e
        in
        collect [] per_file
    in
    (* --store contributes the store's merged view, summed with any
       positional files. A store that needed salvage or quarantine on
       open degrades the analysis exactly like a salvaged file. *)
    let store_handle =
      match store_dir with
      | None -> Ok None
      | Some dir -> (
        match Store.open_ dir with
        | Error e -> Error (Printf.sprintf "store %s: %s" dir e)
        | Ok (st, rep) ->
          let deg = Store.open_report_degraded rep in
          if deg then
            Printf.eprintf "gprofx: store %s recovered with losses: %s\n" dir
              (Store.open_report_summary rep);
          Ok (Some (dir, st, deg)))
    in
    let store_view =
      match store_handle with
      | Error e -> Error e
      | Ok None -> Ok None
      | Ok (Some (dir, st, deg)) -> (
        match Store.merged st with
        | Error e -> Error (Printf.sprintf "store %s: %s" dir e)
        | Ok None -> Error (Printf.sprintf "store %s is empty" dir)
        | Ok (Some g) -> Ok (Some (g, deg)))
    in
    let loaded =
      match (store_view, gmon_paths) with
      | Error e, _ -> Error e
      | Ok None, _ -> loaded
      | Ok (Some sv), [] -> Ok sv
      | Ok (Some (sg, sdeg)), _ :: _ ->
        Result.bind loaded (fun (g, deg) ->
            Result.map (fun m -> (m, deg || sdeg)) (Gmon.merge sg g))
    in
    (* The sampled side: positional sprof files summed, or — when none
       were given — the store's merged sampled view. *)
    let sampled =
      let rec collect acc deg = function
        | [] -> (
          match Gmon.Sprof.merge_all (List.rev acc) with
          | Error e -> Error e
          | Ok sp -> Ok (Some (sp, deg)))
        | path :: rest -> (
          match Gmon.Sprof.load_report ~mode path with
          | Error e ->
            Error (Printf.sprintf "%s: %s" path (Gmon.decode_error_to_string e))
          | Ok (sp, rep) ->
            let d = Gmon.report_degraded rep in
            if d then
              Printf.eprintf "gprofx: salvaged %s: %s\n" path
                (Gmon.report_summary rep);
            collect (sp :: acc) (deg || d) rest)
      in
      match (sprof_paths, store_handle) with
      | _ :: _, _ -> collect [] false sprof_paths
      | [], Ok (Some (dir, st, deg)) -> (
        match Store.merged_sprof st with
        | Error e -> Error (Printf.sprintf "store %s: %s" dir e)
        | Ok None -> Ok None
        | Ok (Some sp) -> Ok (Some (sp, deg)))
      | [], _ -> Ok None
    in
    let symtab = lazy (Gprof_core.Symtab.of_objfile o) in
    let degraded_exit () =
      Printf.eprintf "gprofx: analysis degraded (salvaged or quarantined data)\n";
      2
    in
    if divergence then begin
      (* the divergence report replaces the listings entirely *)
      if gmon_paths = [] && store_dir = None then begin
        Printf.eprintf
          "gprofx: --divergence needs arc profile data (GMON files or \
           --store) next to the sampled data\n";
        1
      end
      else
        match sampled with
        | Error e ->
          Printf.eprintf "gprofx: %s\n" e;
          1
        | Ok None ->
          Printf.eprintf
            "gprofx: --divergence needs sampled profile data (an sprof file \
             from minirun --sample-ticks, or a --store holding one)\n";
          1
        | Ok (Some (sp, sdeg)) -> (
          match loaded with
          | Error e ->
            Printf.eprintf "gprofx: %s\n" e;
            1
          | Ok (gmon, deg) -> (
            match Gprof_core.Report.analyze ~options o gmon with
            | Error e ->
              Printf.eprintf "gprofx: %s\n" e;
              1
            | Ok r ->
              let stp =
                Stacksample.Stackprof.of_sprof ~symtab:(Lazy.force symtab) o sp
              in
              let d =
                Stacksample.Divergence.compute r.Gprof_core.Report.profile stp
              in
              print_string (Stacksample.Divergence.listing d);
              if deg || sdeg || Gprof_core.Report.degraded r then
                degraded_exit ()
              else 0))
    end
    else if sprof_paths <> [] && (gmon_paths <> [] || store_dir <> None) then begin
      Printf.eprintf
        "gprofx: arc and sampled profile data mixed; give --divergence to \
         compare them\n";
      1
    end
    else if sprof_paths <> [] then begin
      (* sampled-only: the direct estimator's flat listing, or folded
         stacks straight from the container *)
      match sampled with
      | Error e ->
        Printf.eprintf "gprofx: %s\n" e;
        1
      | Ok None -> assert false (* sprof_paths <> [] *)
      | Ok (Some (sp, sdeg)) -> (
        let rendered =
          match format with
          | `Listing -> (
            match view with
            | `Full | `Flat ->
              let stp =
                Stacksample.Stackprof.of_sprof ~symtab:(Lazy.force symtab) o sp
              in
              Ok (Stacksample.Stackprof.listing stp)
            | `Graph | `Index ->
              Error
                "sampled profiles have no propagated call graph (inclusive \
                 time is measured directly); use the flat listing, --format \
                 flame, or --divergence")
          | `Flame -> Ok (Gprof_core.Export.folded_sampled (Lazy.force symtab) sp)
          | `Callgrind | `Json ->
            Error
              "sampled profiles render as the flat listing or --format flame"
        in
        match rendered with
        | Error e ->
          Printf.eprintf "gprofx: %s\n" e;
          1
        | Ok s ->
          print_string s;
          if sdeg then degraded_exit () else 0)
    end
    else
    match loaded with
    | Error e ->
      Printf.eprintf "gprofx: %s\n" e;
      1
    | Ok (gmon, ingest_degraded) -> (
      match pgo_advise with
      | Some src_path -> (
        (* print the decision log and stop; the profile pairs with the
           instrumented baseline build of the source *)
        match pgo_of_source src_path gmon with
        | Error e ->
          Printf.eprintf "gprofx: %s\n" e;
          1
        | Ok (_, report) ->
          print_string (Pgo.report_listing report);
          if ingest_degraded then degraded_exit () else 0)
      | None ->
      if lint then begin
        (* the consistency linter replaces the listings entirely; [o]
           was validated on load *)
        let statics = Result.get_ok (Analysis.Proflint.prepare o) in
        let result = Analysis.Proflint.lint statics gmon in
        print_string (Analysis.Proflint.render result);
        let code = Analysis.Proflint.exit_code ~strict:(not lenient) result in
        if code = 0 && ingest_degraded then 2 else code
      end
      else if cost then begin
        (* static bounds beside the measured columns, over the report's
           Indirect resolution; replaces the listings like --lint does *)
        let indirect = Analysis.Indirect.analyze o in
        match Gprof_core.Report.analyze ~options ~indirect o gmon with
        | Error e ->
          Printf.eprintf "gprofx: %s\n" e;
          1
        | Ok r ->
          let p = r.Gprof_core.Report.profile in
          let measured name =
            match Gprof_core.Symtab.id_of_name p.Gprof_core.Profile.symtab name with
            | Some id when id < Array.length p.Gprof_core.Profile.entries ->
              let e = p.Gprof_core.Profile.entries.(id) in
              Some
                ( e.Gprof_core.Profile.e_self,
                  e.Gprof_core.Profile.e_self +. e.Gprof_core.Profile.e_child )
            | _ -> None
          in
          let est = Analysis.Cost.static_estimate ~indirect (Analysis.Cfg.build o) in
          print_string (Analysis.Cost.listing ~measured est);
          let recompute_code =
            match profile_use with
            | None -> 0
            | Some src_path -> (
              (* the bounds above describe the baseline; rebuild with
                 this profile and bound the binary users would ship *)
              match pgo_of_source src_path gmon with
              | Error e ->
                Printf.eprintf "gprofx: %s\n" e;
                1
              | Ok (obj', _) ->
                Printf.printf
                  "\nstatic cost bounds recomputed on the profile-guided \
                   rebuild of %s:\n"
                  src_path;
                print_string
                  (Analysis.Cost.listing
                     (Analysis.Cost.static_estimate
                        ~indirect:(Analysis.Indirect.analyze obj')
                        (Analysis.Cfg.build obj')));
                0)
          in
          if recompute_code <> 0 then recompute_code
          else if ingest_degraded || Gprof_core.Report.degraded r then 2
          else 0
      end
      else
      match Gprof_core.Report.analyze ~options o gmon with
      | Error e ->
        Printf.eprintf "gprofx: %s\n" e;
        1
      | Ok r ->
        (match format with
        | `Listing -> (
          match view with
          | `Full -> print_string (Gprof_core.Report.full_listing ~verbose r)
          | `Flat -> print_string (Gprof_core.Report.flat_listing ~verbose r)
          | `Graph -> print_string (Gprof_core.Report.graph_listing ~verbose r)
          | `Index -> print_string (Gprof_core.Report.index_listing r))
        | `Flame ->
          print_string
            (Gprof_core.Export.folded_stacks r.Gprof_core.Report.profile)
        | `Callgrind ->
          print_string
            (Gprof_core.Export.callgrind r.Gprof_core.Report.profile)
        | `Json -> print_string (Gprof_core.Export.json_report r));
        Option.iter
          (fun path ->
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc (Gprof_core.Report.dot_graph r)))
          dot_out;
        let annotate_code =
          match annotate with
          | None -> 0
          | Some src_path -> (
            let icounts =
              match icount_path with
              | None -> Ok None
              | Some p -> Result.map Option.some (Gmon.Icount.load p)
            in
            match
              Result.bind icounts (fun icounts ->
                  let source =
                    In_channel.with_open_text src_path In_channel.input_all
                  in
                  Gprof_core.Annotate.analyze ?icounts ~source o gmon)
            with
            | Ok ann ->
              print_newline ();
              print_string (Gprof_core.Annotate.listing ann);
              0
            | Error e ->
              Printf.eprintf "gprofx: %s\n" e;
              1)
        in
        if annotate_code <> 0 then annotate_code
        else if ingest_degraded || Gprof_core.Report.degraded r then begin
          Printf.eprintf
            "gprofx: analysis degraded (salvaged or quarantined data)\n";
          2
        end
        else 0))

let obj =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"OBJ" ~doc:"Executable.")

let gmons =
  Arg.(value & pos_right 0 file [] & info [] ~docv:"GMON"
         ~doc:"Profile data files; several are summed. May be omitted when \
               --store supplies the data.")

let store_dir =
  Arg.(value & opt (some dir) None & info [ "store" ] ~docv:"DIR"
         ~doc:"Analyze the merged view of the profile store at $(docv) \
               (built by profd), summed with any positional $(i,GMON) \
               files.")

let no_static =
  Arg.(value & flag & info [ "no-static" ]
         ~doc:"Do not augment the graph with statically-discovered arcs.")

let removed =
  Arg.(value & opt_all arc_conv [] & info [ "e"; "remove-arc" ] ~docv:"CALLER:CALLEE"
         ~doc:"Remove the arc from the analysis. Repeatable.")

let break =
  Arg.(value & opt (some Cliconv.non_negative) None
       & info [ "break-cycles" ] ~docv:"N"
         ~doc:"Heuristically remove up to N low-count arcs to break cycles.")

let focus =
  Arg.(value & opt_all string [] & info [ "f"; "focus" ] ~docv:"NAME"
         ~doc:"Show only the parts of the graph containing $(docv). Repeatable.")

let exclude =
  Arg.(value & opt_all string [] & info [ "x"; "exclude" ] ~docv:"NAME"
         ~doc:"Drop $(docv)'s own entry from the listings (its time still \
               propagates to its callers). Repeatable.")

let min_percent =
  Arg.(value & opt float 0.0 & info [ "min-percent" ] ~docv:"P"
         ~doc:"Hide entries below P%% of total time.")

let lenient =
  Arg.(value
       & vflag false
           [
             ( true,
               info [ "lenient" ]
                 ~doc:
                   "Salvage damaged profile data instead of failing: \
                    undecodable files are quarantined (and reported on \
                    stderr), truncated files contribute their valid prefix, \
                    and samples outside the symbol table fold into a \
                    synthetic <unknown> entry. Exits 2 when anything was \
                    salvaged or quarantined, 0 when the data was clean." );
             ( false,
               info [ "strict" ]
                 ~doc:
                   "Reject any damaged profile data file outright (default)." );
           ])

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ]
         ~doc:"Print the field explanations before each listing.")

let dot_out =
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE"
         ~doc:"Also write a Graphviz rendering of the analyzed graph to $(docv).")

let annotate =
  Arg.(value & opt (some file) None & info [ "annotate" ] ~docv:"SOURCE"
         ~doc:"Append an annotated listing of $(docv) with per-line time \
               (and execution counts when --icount is given).")

let icount =
  Arg.(value & opt (some file) None & info [ "icount" ] ~docv:"FILE"
         ~doc:"Per-instruction execution counts from minirun --icount.")

let view =
  Arg.(value
       & vflag `Full
           [
             (`Flat, info [ "flat" ] ~doc:"Flat profile only.");
             (`Graph, info [ "graph" ] ~doc:"Call graph profile only.");
             (`Index, info [ "index" ] ~doc:"Index only.");
           ])

let format =
  Arg.(value
       & opt
           (enum
              [
                ("listing", `Listing); ("flame", `Flame);
                ("callgrind", `Callgrind); ("json", `Json);
              ])
           `Listing
       & info [ "format" ] ~docv:"FMT"
           ~doc:
             "Output format: $(b,listing) (the paper's profile listings, \
              default), $(b,flame) (folded stacks for flamegraph.pl or \
              speedscope), $(b,callgrind) (kcachegrind), or $(b,json) \
              (stable machine-readable report, schema \
              gprof-repro.report/1).")

let epoch =
  Arg.(value & opt (some int) None & info [ "epoch" ] ~docv:"N"
         ~doc:"When a profile data file is an epoch container (minirun \
               --epoch-ticks), analyze only its $(docv)-th window \
               (1-based) instead of the sum of all windows.")

let timeline =
  Arg.(value & flag & info [ "timeline" ]
         ~doc:"Analyze each window of an epoch container and print a \
               per-epoch digest — the busiest routines and the biggest \
               movers between windows — instead of the listings. Takes \
               exactly one epoch container.")

let lint =
  Arg.(value & flag & info [ "lint" ]
         ~doc:"Lint the profile data against the executable instead of \
               printing listings: verify call sites hold calls, arc \
               endpoints are function entries, histogram buckets map into \
               the text segment, and every arc is feasible in the static \
               call graph. Exits 0 when clean, 2 on findings (warnings \
               count unless --lenient).")

let cost =
  Arg.(value & flag & info [ "cost" ]
         ~doc:"Print the static cost table instead of the listings: \
               per-routine loop-weighted instruction-cost bounds (self and \
               worst-case descendants, 'unbounded' across call-graph \
               cycles) beside the measured self/descendant seconds. A \
               routine whose measured share dwarfs its static bound is \
               being called too much, not doing too much.")

let divergence =
  Arg.(value & flag & info [ "divergence" ]
         ~doc:"Compare gprof's propagated inclusive times against \
               stack-sampled inclusive times for the same run and print a \
               per-routine divergence report — absolute gap and rank \
               displacement — instead of the listings. Needs both arc data \
               (GMON files or --store) and sampled data (an sprof file from \
               minirun --sample-ticks, or the store's sampled view).")

let obs_metrics =
  Arg.(value & opt (some string) None & info [ "obs-metrics" ] ~docv:"FILE"
         ~doc:"Write gprofx's own metrics registry as JSON to $(docv) \
               ('-' for stdout).")

let obs_trace =
  Arg.(value & opt (some string) None & info [ "obs-trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace_event JSON of gprofx's own analysis \
               passes to $(docv) — open it in chrome://tracing or Perfetto.")

let self_profile =
  Arg.(value & flag & info [ "self-profile" ]
         ~doc:"Append the wall time of gprofx's own passes to the output — \
               the profiler profiled, as the paper does in its section 7.")

let pgo_advise =
  Arg.(value & opt (some file) None & info [ "pgo-advise" ] ~docv:"SOURCE"
         ~doc:"Print the profile-guided optimization decision log for the \
               Mini source $(docv) — exactly what minic --profile-use would \
               inline, reorder, and split given this profile data — without \
               building anything. The profile must pair with the \
               instrumented (-pg) build of $(docv).")

let profile_use =
  Arg.(value & opt (some file) None & info [ "profile-use" ] ~docv:"SOURCE"
         ~doc:"With --cost: also rebuild the Mini source $(docv) with \
               profile feedback and append the static cost bounds of the \
               optimized binary — catching a bound regression the measured \
               columns (gathered on the baseline) cannot show.")

let cmd =
  Cmd.v
    (Cmd.info "gprofx" ~doc:"call graph execution profiler")
    Term.(const run $ obj $ gmons $ store_dir $ no_static $ removed $ break
          $ focus $ exclude $ min_percent $ lenient $ view $ format $ epoch
          $ timeline $ lint $ cost $ divergence $ annotate $ icount $ verbose
          $ dot_out $ obs_metrics $ obs_trace $ self_profile $ pgo_advise
          $ profile_use)

let () = exit (Cmd.eval' cmd)
