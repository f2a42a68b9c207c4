(* minirun — execute an object file on the profiling VM.

   On a normal exit the gathered profile is condensed to a gmon file,
   "as the profiled program exits"; with --prof-out the prof-style
   per-function counters are saved too. *)

open Cmdliner

let run obj_path gmon_out submit_sock submit_label submit_retries spool_dir
    prof_out icount_out epoch_ticks epochs_out sample_ticks sample_out
    sample_capacity hz cpt bucket callee_primary seed jitter quiet max_cycles
    fault_after torn_save obs_metrics obs_trace =
  if obs_trace <> None then Obs.Trace.set_enabled Obs.Trace.default true;
  let finish code =
    try
      Option.iter (Obs.Snapshot.save Obs.Metrics.default) obs_metrics;
      Option.iter (Obs.Trace.save_chrome Obs.Trace.default) obs_trace;
      code
    with Sys_error e ->
      Printf.eprintf "minirun: %s\n" e;
      1
  in
  finish
  @@
  match
    Obs.Trace.with_span ~cat:"minirun" "load-objfile" (fun () ->
        Objcode.Verify.load obj_path)
  with
  | Error es ->
    List.iter (Printf.eprintf "minirun: %s: %s\n" obj_path) es;
    1
  | Ok o -> (
    let config =
      {
        Vm.Machine.default_config with
        ticks_per_second = hz;
        cycles_per_tick = cpt;
        hist_bucket_size = bucket;
        keying =
          (if callee_primary then Vm.Monitor.Callee_primary
           else Vm.Monitor.Site_primary);
        seed;
        tick_jitter = jitter;
        max_cycles;
        fault_after_instr = fault_after;
        epoch_ticks;
        stack_interval = sample_ticks;
        stack_capacity = sample_capacity;
      }
    in
    let m = Vm.Machine.create ~config o in
    let status = Obs.Trace.with_span ~cat:"minirun" "vm-run" (fun () -> Vm.Machine.run m) in
    Vm.Machine.observe m Obs.Metrics.default;
    let explicit_gmon = gmon_out <> None in
    let gmon_out =
      match gmon_out with
      | Some p -> p
      | None -> Filename.remove_extension obj_path ^ ".gmon"
    in
    let save_gmon () =
      Option.iter (fun n -> Gmon.inject_torn_save (Some n)) torn_save;
      match Gmon.save (Vm.Machine.profile m) gmon_out with
      | Ok () -> true
      | Error e ->
        (* the save error already names the path *)
        Printf.eprintf "minirun: %s\n" e;
        false
    in
    let explicit_sample = sample_out <> None in
    let sample_out =
      match sample_out with
      | Some p -> p
      | None -> Filename.remove_extension obj_path ^ ".sprof"
    in
    let save_sprof () =
      match Vm.Machine.sprof m with
      | None -> true
      | Some sp -> (
        Option.iter (fun n -> Gmon.inject_torn_save (Some n)) torn_save;
        match Gmon.Sprof.save sp sample_out with
        | Ok () ->
          Printf.eprintf
            "minirun: %d sample(s) over %d stack(s) written to %s\n"
            (Gmon.Sprof.n_samples sp) (Gmon.Sprof.n_stacks sp) sample_out;
          true
        | Error e ->
          Printf.eprintf "minirun: %s\n" e;
          false)
    in
    (* A fleet member ships its profile to profd instead of leaving a
       gmon file behind — unless --gmon asked for one explicitly. The
       sampled profile rides along under the same label; the daemon
       routes the two container families by magic. *)
    let submit_profile () =
      match submit_sock with
      | None -> true
      | Some socket -> (
        let label =
          match submit_label with
          | Some l -> l
          | None -> Filename.remove_extension (Filename.basename obj_path)
        in
        let attempts = max 1 submit_retries in
        (* When the daemon is unreachable or overloaded past our
           patience, the profile must not be lost: spool it locally
           and let a later `profd --drain-spool` ship it. A spooled
           run is still a successful run. *)
        let spool what payload reason =
          match spool_dir with
          | None ->
            Printf.eprintf "minirun: submit: %s\n" reason;
            false
          | Some dir -> (
            match Spool.add ~dir ~label payload with
            | Ok id ->
              Printf.eprintf
                "minirun: %s spooled to %s (%s) after: %s\n" what dir id
                reason;
              true
            | Error e ->
              Printf.eprintf "minirun: submit: %s; spool: %s\n" reason e;
              false)
        in
        let send what payload =
          let id = Some (Proto.fresh_id ()) in
          match Proto.rpc ~attempts ~socket (Submit { label; id; payload }) with
          | Ok (Proto.Resp_ok reply) ->
            Printf.eprintf "minirun: %s submitted to %s: %s" what socket reply;
            true
          | Ok (Proto.Resp_busy retry_after) ->
            spool what payload
              (Printf.sprintf
                 "daemon overloaded (retry after %.3gs, %d attempt(s))"
                 retry_after attempts)
          | Ok (Proto.Resp_err e) ->
            Printf.eprintf "minirun: submit: daemon: %s\n" e;
            false
          | Error e -> spool what payload e
        in
        let ok = send "profile" (Gmon.to_bytes (Vm.Machine.profile m)) in
        match Vm.Machine.sprof m with
        | None -> ok
        | Some sp -> send "sampled profile" (Gmon.Sprof.to_bytes sp) && ok)
    in
    (* The timeline is condensed alongside the profile — on crashed
       runs too, so the epochs gathered before the fault survive. *)
    let save_epochs () =
      match Vm.Machine.epochs m with
      | None -> true
      | Some c -> (
        let path =
          match epochs_out with
          | Some p -> p
          | None -> Filename.remove_extension obj_path ^ ".epochs"
        in
        match Gmon.Epoch.save c path with
        | Ok () ->
          Printf.eprintf "minirun: %d epoch(s) written to %s\n"
            (Gmon.Epoch.n_epochs c) path;
          true
        | Error e ->
          Printf.eprintf "minirun: %s\n" e;
          false)
    in
    match status with
    | Vm.Machine.Halted ->
      if not quiet then print_string (Vm.Machine.output m);
      let saved =
        ref
          (if submit_sock <> None && not explicit_gmon then true
           else save_gmon ())
      in
      if
        not
          (if submit_sock <> None && not explicit_sample then true
           else save_sprof ())
      then saved := false;
      if not (submit_profile ()) then saved := false;
      if not (save_epochs ()) then saved := false;
      Option.iter
        (fun p -> Profbase.Profcounts.save o (Vm.Machine.pcounts m) p)
        prof_out;
      Option.iter
        (fun p ->
          match
            Gmon.Icount.save (Gmon.Icount.of_counts (Vm.Machine.instruction_counts m)) p
          with
          | Ok () -> ()
          | Error e ->
            Printf.eprintf "minirun: %s\n" e;
            saved := false)
        icount_out;
      if not !saved then 1
      else begin
        let dest =
          if submit_sock <> None && not explicit_gmon then
            "submitted to " ^ Option.get submit_sock
          else "written to " ^ gmon_out
        in
        Printf.eprintf
          "minirun: %d cycles, %d ticks (%.2f simulated seconds); profile %s\n"
          (Vm.Machine.cycles m) (Vm.Machine.ticks m)
          (float_of_int (Vm.Machine.ticks m) /. float_of_int hz)
          dest;
        Option.value ~default:0 (Vm.Machine.result m) land 255
      end
    | Vm.Machine.Faulted f ->
      if not quiet then print_string (Vm.Machine.output m);
      Format.eprintf "minirun: %a@." Vm.Machine.pp_fault f;
      (* Even a crashed run flushes the profile gathered so far: the
         atomic writer guarantees the file is either complete and
         checksummed or not there at all. *)
      if save_gmon () then
        Printf.eprintf "minirun: partial profile written to %s\n" gmon_out;
      ignore (save_sprof ());
      ignore (save_epochs ());
      125
    | Vm.Machine.Running ->
      Printf.eprintf "minirun: internal error: still running\n";
      125)

let obj =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"OBJ" ~doc:"Object file.")

let gmon_out =
  Arg.(value & opt (some string) None & info [ "gmon" ] ~docv:"FILE"
         ~doc:"Profile data output (default: object with .gmon).")

let submit_sock =
  Arg.(value & opt (some string) None & info [ "submit" ] ~docv:"SOCK"
         ~doc:"Submit the profile to the profd daemon listening on the \
               Unix-domain socket $(docv) instead of writing a local gmon \
               file (give --gmon as well to do both).")

let submit_label =
  Arg.(value & opt (some string) None & info [ "submit-label" ] ~docv:"LABEL"
         ~doc:"Label for --submit (the store's shard key); defaults to the \
               object file's basename.")

let submit_retries =
  Arg.(value & opt int 3 & info [ "submit-retries" ] ~docv:"N"
         ~doc:"Attempts per --submit request, with capped exponential \
               backoff and deterministic jitter; BUSY responses honor the \
               daemon's retry-after hint. Each submission carries an id, \
               so a retried request is never counted twice.")

let spool_dir =
  Arg.(value & opt (some string) None & info [ "spool" ] ~docv:"DIR"
         ~doc:"When --submit still cannot reach the daemon (or it stays \
               overloaded) after the retries, spool the profile into \
               $(docv) instead of failing; a later $(b,profd --drain-spool \
               DIR) ships everything that accumulated. The run exits 0 — \
               a spooled profile is safe, not lost.")

let prof_out =
  Arg.(value & opt (some string) None & info [ "prof-out" ] ~docv:"FILE"
         ~doc:"Also save prof-style per-function counters to $(docv).")

let icount_out =
  Arg.(value & opt (some string) None & info [ "icount" ] ~docv:"FILE"
         ~doc:"Gather exact per-instruction execution counts and save them to \
               $(docv) (for annotated-source listings).")

let epoch_ticks =
  Arg.(value & opt (some Cliconv.positive) None
       & info [ "epoch-ticks" ] ~docv:"N"
         ~doc:"Snapshot the profile every $(docv) clock ticks and write the \
               resulting timeline (one delta-encoded epoch per window) to \
               the --epochs file.")

let epochs_out =
  Arg.(value & opt (some string) None & info [ "epochs" ] ~docv:"FILE"
         ~doc:"Epoch container output (default: object with .epochs). \
               Only written when --epoch-ticks is given.")

let sample_ticks =
  Arg.(value & opt (some Cliconv.positive) None
       & info [ "sample-ticks" ] ~docv:"N"
         ~doc:"Walk and record the whole call stack every $(docv) clock \
               ticks (1 = every tick). Distinct stacks are interned in a \
               bounded buffer; the result is saved as an sprof container \
               (see --sample-out) and rides along with --submit.")

let sample_out =
  Arg.(value & opt (some string) None & info [ "sample-out" ] ~docv:"FILE"
         ~doc:"Sampled-profile output (default: object with .sprof). Only \
               written when --sample-ticks is given.")

let sample_capacity =
  Arg.(value & opt (some Cliconv.positive) None
       & info [ "sample-capacity" ] ~docv:"N"
         ~doc:"Cap on distinct interned stacks; once full, new stacks are \
               dropped and counted as skipped (vm.sample.skipped).")

let hz =
  Arg.(value & opt Cliconv.positive 60 & info [ "hz" ] ~docv:"N"
         ~doc:"Clock ticks per second.")

let cpt =
  Arg.(value & opt Cliconv.positive 16_666 & info [ "cycles-per-tick" ] ~docv:"N"
         ~doc:"Simulated cycles between clock ticks.")

let bucket =
  Arg.(value & opt Cliconv.positive 1 & info [ "bucket-size" ] ~docv:"N"
         ~doc:"Histogram granularity: addresses per bucket.")

let callee_primary =
  Arg.(value & flag & info [ "callee-primary" ]
         ~doc:"Key the arc table by callee instead of call site (ablation).")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let jitter =
  Arg.(value & opt float 0.0 & info [ "jitter" ] ~docv:"Q"
         ~doc:"Randomize tick intervals within ±Q/2 of their length.")

let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress program output.")

let max_cycles =
  Arg.(value & opt (some int) None & info [ "max-cycles" ] ~docv:"N"
         ~doc:"Fault after N simulated cycles.")

let fault_after =
  Arg.(value & opt (some int) None & info [ "fault-after" ] ~docv:"N"
         ~doc:"Fault injection: abort the program with a VM fault after N \
               executed instructions (the gathered profile is still \
               flushed, exercising the crash-safe writer).")

let torn_save =
  Arg.(value & opt (some int) None & info [ "torn-save" ] ~docv:"N"
         ~doc:"Fault injection: make the profile writer die after emitting \
               N bytes, leaving a torn file (as a non-atomic writer \
               would).")

let obs_metrics =
  Arg.(value & opt (some string) None & info [ "obs-metrics" ] ~docv:"FILE"
         ~doc:"Write the VM's self-observability metrics (instructions by \
               dispatch group, monitor probe-depth histogram, histogram \
               ticks/overflow) as JSON to $(docv) ('-' for stdout).")

let obs_trace =
  Arg.(value & opt (some string) None & info [ "obs-trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace_event JSON of minirun's phases to \
               $(docv) — open it in chrome://tracing or Perfetto.")

let cmd =
  Cmd.v
    (Cmd.info "minirun" ~doc:"profiling virtual machine")
    Term.(const run $ obj $ gmon_out $ submit_sock $ submit_label
          $ submit_retries $ spool_dir $ prof_out
          $ icount_out $ epoch_ticks $ epochs_out $ sample_ticks $ sample_out
          $ sample_capacity $ hz $ cpt $ bucket $ callee_primary $ seed
          $ jitter $ quiet $ max_cycles $ fault_after $ torn_save
          $ obs_metrics $ obs_trace)

let () = exit (Cmd.eval' cmd)
