(* profd — the profile aggregation daemon.

   Serves the sharded profile store over a Unix-domain socket with the
   length-prefixed protocol in Ingest.Proto: fleet clients SUBMIT gmon
   payloads (minirun --submit does), operators FLUSH, COMPACT, and
   QUERY the merged view. The daemon engine itself — the hardened
   multi-connection event loop with deadlines, the bounded queue, and
   overload shedding — lives in Ingest.Server; this binary is the
   configuration and the client.

   The same binary is its own client: --submit, --query, --flush,
   --compact, --shutdown, --wait, and --drain-spool talk to a running
   daemon, and --merge-offline performs the equivalence baseline (a
   plain Gmon.merge_all of files) that tests, among them test_cli's
   "profd daemon" case, compare a daemon-ingested store against. *)

open Cmdliner

(* --- the daemon ------------------------------------------------------- *)

let stop_requested = ref false

let serve ~socket ~store_dir ~shards ~batch ~max_age ~queue_cap ~conn_timeout
    ~max_conns ~retry_after ~drain_grace ~telemetry_out ~telemetry_interval
    ~events =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let request_stop _ = stop_requested := true in
  (* SIGTERM and SIGINT mean drain, not die: refuse new connections,
     finish in-flight requests, flush the batcher, fsync the store *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  match Store.open_ ~shards store_dir with
  | Error e ->
    Printf.eprintf "profd: %s\n" e;
    1
  | Ok (store, report) -> (
    if Store.open_report_degraded report then
      Obs.Eventlog.warn events "store.recovered_with_losses"
        [ ("summary", S (Store.open_report_summary report)) ]
    else if not report.or_created then
      Obs.Eventlog.info events "store.recovered"
        [
          ("segments", I report.or_segments);
          ("compacted_shards", I report.or_compacted);
        ];
    let ingest = Ingest.create ~max_batch:batch ~max_age ~queue_cap store in
    let config =
      {
        Server.socket;
        conn_timeout;
        max_conns;
        retry_after;
        drain_grace;
        telemetry_out;
        telemetry_interval;
      }
    in
    match
      Server.serve config ingest
        ~stop_requested:(fun () -> !stop_requested)
        ~events
    with
    | Error e ->
      Printf.eprintf "profd: %s\n" e;
      1
    | Ok () ->
      Obs.Eventlog.info events "stopped" [];
      0)

(* --- client actions --------------------------------------------------- *)

let rpc_or_fail ?(attempts = 1) ~socket req =
  match Proto.rpc ~attempts ~socket req with
  | Error e ->
    Printf.eprintf "profd: %s\n" e;
    Error 1
  | Ok (Resp_busy retry_after) ->
    Printf.eprintf
      "profd: daemon overloaded (asked to retry after %.3gs); giving up after \
       %d attempt(s)\n"
      retry_after attempts;
    Error 1
  | Ok (Resp_err e) ->
    Printf.eprintf "profd: daemon: %s\n" e;
    Error 1
  | Ok (Resp_ok payload) -> Ok payload

let submit_files ~socket ~attempts ~label files =
  let quarantined = ref 0 in
  let rec go = function
    | [] -> if !quarantined > 0 then Error 2 else Ok ()
    | file :: rest -> (
      match In_channel.with_open_bin file In_channel.input_all with
      | exception Sys_error e ->
        Printf.eprintf "profd: %s\n" e;
        Error 1
      | payload -> (
        let label =
          match label with
          | Some l -> l
          | None -> Filename.remove_extension (Filename.basename file)
        in
        (* a fresh id per file, reused across this submission's
           retries, so a lost response never double-counts the run *)
        let id = Some (Proto.fresh_id ()) in
        match
          rpc_or_fail ~attempts ~socket (Submit { label; id; payload })
        with
        | Error c -> Error c
        | Ok reply ->
          Printf.printf "%s: %s" file reply;
          if String.length reply >= 11 && String.sub reply 0 11 = "quarantined"
          then incr quarantined;
          go rest))
  in
  go files

let drain_spool ~socket ~attempts dir =
  let submit ~label ~id payload =
    match
      Proto.rpc ~attempts ~socket (Submit { label; id = Some id; payload })
    with
    | Ok (Resp_ok _) -> Ok `Accepted
    | Ok (Resp_busy _) -> Ok `Retry
    | Ok (Resp_err e) ->
      Printf.eprintf "profd: daemon: %s\n" e;
      Ok `Retry
    | Error e ->
      Printf.eprintf "profd: %s\n" e;
      Ok `Retry
  in
  match Spool.drain ~dir ~submit with
  | Error e ->
    Printf.eprintf "profd: %s\n" e;
    1
  | Ok (drained, remaining) ->
    Printf.printf "profd: drained %d spooled profile(s), %d remaining\n"
      drained remaining;
    if remaining > 0 then 2 else 0

let write_out out payload =
  match out with
  | None | Some "-" ->
    print_string payload;
    Ok ()
  | Some path -> (
    match
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc payload)
    with
    | () -> Ok ()
    | exception Sys_error e ->
      Printf.eprintf "profd: %s\n" e;
      Error 1)

let merge_offline ~out files =
  (* the baseline merges whatever the daemon would have stored: sniff
     the container family and merge within it *)
  let sampled, arcs = List.partition Gmon.Sprof.sniff_file files in
  let finish kind merged save =
    match merged with
    | Error e ->
      Printf.eprintf "profd: %s\n" e;
      1
    | Ok m -> (
      match save m out with
      | Ok () ->
        Printf.eprintf "profd: %d %s file(s) merged offline into %s\n"
          (List.length files) kind out;
        0
      | Error e ->
        Printf.eprintf "profd: %s\n" e;
        1)
  in
  match (sampled, arcs) with
  | _ :: _, _ :: _ ->
    Printf.eprintf
      "profd: --merge-offline cannot mix sprof and gmon inputs (the two \
       families do not sum)\n";
    1
  | _ :: _, [] -> (
    let loaded = List.map (fun p -> (p, Gmon.Sprof.load p)) files in
    match List.find_opt (fun (_, r) -> Result.is_error r) loaded with
    | Some (p, Error e) ->
      Printf.eprintf "profd: %s: %s\n" p e;
      1
    | _ ->
      finish "sprof"
        (Gmon.Sprof.merge_all (List.map (fun (_, r) -> Result.get_ok r) loaded))
        Gmon.Sprof.save)
  | [], _ -> (
    let loaded = List.map (fun p -> (p, Gmon.load p)) files in
    match List.find_opt (fun (_, r) -> Result.is_error r) loaded with
    | Some (p, Error e) ->
      Printf.eprintf "profd: %s: %s\n" p e;
      1
    | _ ->
      finish "gmon"
        (Gmon.merge_all (List.map (fun (_, r) -> Result.get_ok r) loaded))
        Gmon.save)

(* --- command line ----------------------------------------------------- *)

let run serve_flag socket store_dir shards batch max_age queue_cap conn_timeout
    max_conns retry_after drain_grace telemetry_out telemetry_interval log_file
    log_level wait timeout retries files label spool_dir query top_n out
    do_flush do_compact do_shutdown offline_out obs_metrics obs_trace =
  if obs_trace <> None then Obs.Trace.set_enabled Obs.Trace.default true;
  let finish code =
    try
      Option.iter (Obs.Snapshot.save Obs.Metrics.default) obs_metrics;
      Option.iter (Obs.Trace.save_chrome Obs.Trace.default) obs_trace;
      code
    with Sys_error e ->
      Printf.eprintf "profd: %s\n" e;
      1
  in
  finish
  @@
  match Faultplane.configure_from_env () with
  | Error e ->
    Printf.eprintf "profd: %s\n" e;
    1
  | Ok () -> (
    if Faultplane.active () then
      Printf.eprintf "profd: FAULT PLANE ACTIVE: %s\n%!"
        (Option.value ~default:"?" (Sys.getenv_opt "PROFD_FAULTS"));
    match offline_out with
    | Some out ->
      if files = [] then begin
        Printf.eprintf "profd: --merge-offline needs at least one gmon file\n";
        1
      end
      else merge_offline ~out files
    | None -> (
      if serve_flag then
        match store_dir with
        | None ->
          Printf.eprintf "profd: --serve needs --store DIR\n";
          1
        | Some dir -> (
          (* the daemon's lifecycle reporting is the structured event
             log: JSONL on stderr by default, --log FILE to a file *)
          let events =
            match log_file with
            | None -> Ok (Obs.Eventlog.to_stderr ~level:log_level ())
            | Some path -> Obs.Eventlog.open_file ~level:log_level path
          in
          match events with
          | Error e ->
            Printf.eprintf "profd: %s\n" e;
            1
          | Ok events ->
            let code =
              serve ~socket ~store_dir:dir ~shards ~batch ~max_age ~queue_cap
                ~conn_timeout ~max_conns ~retry_after ~drain_grace
                ~telemetry_out ~telemetry_interval ~events
            in
            Obs.Eventlog.close events;
            code)
      else
        (* client mode: run the requested actions in a fixed, sensible
           order — wait, drain-spool, submit, flush, compact, query,
           shutdown *)
        let attempts = max 1 retries in
        let some_action =
          wait || files <> [] || do_flush || do_compact || do_shutdown
          || query <> None || spool_dir <> None
        in
        if not some_action then begin
          Printf.eprintf
            "profd: nothing to do (try --serve, --submit, --drain-spool, \
             --query, --flush, --compact, --shutdown, or --wait)\n";
          1
        end
        else
          let ( >>> ) prev next = match prev with Ok () -> next () | e -> e in
          let simple req () =
            Result.map ignore (rpc_or_fail ~attempts ~socket req)
          in
          let degraded = ref false in
          let result =
            (if wait then
               match Proto.wait_ready ~socket ~timeout with
               | Ok () -> Ok ()
               | Error e ->
                 Printf.eprintf "profd: %s\n" e;
                 Error 1
             else Ok ())
            >>> (fun () ->
                  match spool_dir with
                  | None -> Ok ()
                  | Some dir -> (
                    match drain_spool ~socket ~attempts dir with
                    | 0 -> Ok ()
                    | 2 ->
                      degraded := true;
                      Ok ()
                    | c -> Error c))
            >>> (fun () ->
                  if files = [] then Ok ()
                  else
                    match submit_files ~socket ~attempts ~label files with
                    | Ok () -> Ok ()
                    | Error 2 ->
                      degraded := true;
                      Ok ()
                    | Error c -> Error c)
            >>> (fun () -> if do_flush then simple Flush () else Ok ())
            >>> (fun () -> if do_compact then simple Compact () else Ok ())
            >>> (fun () ->
                  match query with
                  | None -> Ok ()
                  | Some `Top ->
                    Result.bind
                      (rpc_or_fail ~attempts ~socket (Query_top top_n))
                      (write_out out)
                  | Some `Report ->
                    Result.bind
                      (rpc_or_fail ~attempts ~socket Query_report)
                      (write_out out)
                  | Some `Sreport ->
                    Result.bind
                      (rpc_or_fail ~attempts ~socket Query_sreport)
                      (write_out out)
                  | Some `Stats ->
                    Result.bind
                      (rpc_or_fail ~attempts ~socket Query_stats)
                      (write_out out))
            >>> fun () -> if do_shutdown then simple Shutdown () else Ok ()
          in
          match result with
          | Ok () -> if !degraded then 2 else 0
          | Error c -> c))

let serve_flag =
  Arg.(value & flag & info [ "serve" ]
         ~doc:"Run as the aggregation daemon (requires --store).")

let socket =
  Arg.(value & opt string "profd.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path to serve on or connect to.")

let store_dir =
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR"
         ~doc:"Profile store directory (created on first --serve).")

let shards =
  Arg.(value & opt int Store.default_shards & info [ "shards" ] ~docv:"N"
         ~doc:"Shard count when creating a new store (an existing store \
               keeps the count in its manifest).")

let batch =
  Arg.(value & opt int 64 & info [ "batch" ] ~docv:"N"
         ~doc:"Ingest queue size trigger: flush after $(docv) buffered \
               profiles (1 = every submission is durable immediately).")

let max_age =
  Arg.(value & opt float 5.0 & info [ "max-age" ] ~docv:"SECONDS"
         ~doc:"Ingest queue age trigger: flush when the oldest buffered \
               profile has waited $(docv) seconds.")

let queue_cap =
  Arg.(value & opt int 256 & info [ "queue-cap" ] ~docv:"N"
         ~doc:"Bound on the ingest queue: once $(docv) profiles are \
               buffered and the store cannot drain them, further \
               submissions are answered BUSY (explicit load shedding, \
               counted in profd.shed.overload) instead of growing memory \
               without bound.")

let conn_timeout =
  Arg.(value & opt float 10.0 & info [ "conn-timeout" ] ~docv:"SECONDS"
         ~doc:"Per-connection IO deadline: a peer that does not finish its \
               current frame (either direction) within $(docv) seconds is \
               disconnected (slowloris defense).")

(* A cap of zero would refuse every connection, the daemon's own
   --shutdown among them. *)
let max_conns =
  Arg.(value & opt Cliconv.positive 64 & info [ "max-conns" ] ~docv:"N"
         ~doc:"Concurrent-connection cap; peers beyond it are answered \
               BUSY and closed.")

let retry_after =
  Arg.(value & opt float 0.1 & info [ "retry-after" ] ~docv:"SECONDS"
         ~doc:"The hint carried by BUSY responses; retrying clients wait at \
               least this long.")

let drain_grace =
  Arg.(value & opt float 5.0 & info [ "drain-grace" ] ~docv:"SECONDS"
         ~doc:"On SIGTERM/SIGINT/SHUTDOWN: how long the daemon lets \
               in-flight connections finish before closing them.")

let telemetry_out =
  Arg.(value & opt (some string) None & info [ "telemetry-out" ] ~docv:"FILE"
         ~doc:"Daemon: append a checksummed JSONL metrics snapshot to \
               $(docv) every --telemetry-interval seconds (and once at \
               drain). Each line carries a crc and a monotonic seq; the \
               series resumes across restarts. proftop --telemetry reads \
               and verifies it.")

let telemetry_interval =
  Arg.(value & opt float 1.0 & info [ "telemetry-interval" ] ~docv:"SECONDS"
         ~doc:"Seconds between telemetry snapshots (with --telemetry-out).")

let log_file =
  Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE"
         ~doc:"Daemon: append the structured JSONL event log to $(docv) \
               instead of stderr. Every record carries a monotonic seq, a \
               timestamp, a level, and an event kind.")

let log_level =
  Arg.(value
       & opt
           (enum
              [
                ("debug", Obs.Eventlog.Debug);
                ("info", Obs.Eventlog.Info);
                ("warn", Obs.Eventlog.Warn);
                ("error", Obs.Eventlog.Error);
              ])
           Obs.Eventlog.Info
       & info [ "log-level" ] ~docv:"LEVEL"
           ~doc:"Minimum event level written to the log: $(b,debug), \
                 $(b,info), $(b,warn), or $(b,error).")

let wait =
  Arg.(value & flag & info [ "wait" ]
         ~doc:"Client: poll until the daemon answers (readiness gate for \
               scripts).")

let timeout =
  Arg.(value & opt float 30.0 & info [ "timeout" ] ~docv:"SECONDS"
         ~doc:"How long --wait polls before giving up.")

let retries =
  Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N"
         ~doc:"Client: attempts per request, with capped exponential \
               backoff and deterministic jitter between them; BUSY \
               responses honor the daemon's retry-after floor. Submissions \
               carry an id so retries never double-count.")

let files =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE"
         ~doc:"Profile data files (for --submit batches and \
               --merge-offline).")

let submit =
  Arg.(value & flag & info [ "submit" ]
         ~doc:"Client: send each positional $(i,FILE) to the daemon as one \
               submission. Exits 2 when any was quarantined.")

let label =
  Arg.(value & opt (some string) None & info [ "label" ] ~docv:"LABEL"
         ~doc:"Submission label (the shard key); defaults to each file's \
               basename.")

let spool_dir =
  Arg.(value & opt (some string) None & info [ "drain-spool" ] ~docv:"DIR"
         ~doc:"Client: resubmit every profile a producer spooled into \
               $(docv) (minirun --spool) while the daemon was unreachable, \
               deleting the acknowledged entries. Exits 2 when some \
               entries remain.")

let query =
  Arg.(value
       & opt
           (some
              (enum
                 [
                   ("top", `Top);
                   ("report", `Report);
                   ("sreport", `Sreport);
                   ("stats", `Stats);
                 ]))
           None
       & info [ "query" ] ~docv:"WHAT"
           ~doc:"Client: query the daemon — $(b,top) (heaviest histogram \
                 buckets), $(b,report) (the merged profile as gmon bytes; \
                 use --out), $(b,sreport) (the merged sampled profile as \
                 sprof bytes), or $(b,stats) (JSON).")

let top_n =
  Arg.(value & opt int 10 & info [ "top-n" ] ~docv:"N"
         ~doc:"Bucket count for --query top.")

let out =
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
         ~doc:"Write the query response to $(docv) ('-' = stdout).")

let do_flush =
  Arg.(value & flag & info [ "flush" ]
         ~doc:"Client: force the daemon's ingest queue to the store.")

let do_compact =
  Arg.(value & flag & info [ "compact" ]
         ~doc:"Client: fold every shard's segment tail into its compacted \
               profile.")

let do_shutdown =
  Arg.(value & flag & info [ "shutdown" ]
         ~doc:"Client: drain, flush, then stop the daemon.")

let offline_out =
  Arg.(value & opt (some string) None & info [ "merge-offline" ] ~docv:"OUT"
         ~doc:"No daemon: merge the positional $(i,FILE)s with \
               Gmon.merge_all and save the sum to $(docv) — the baseline \
               the store's merged view must equal.")

let obs_metrics =
  Arg.(value & opt (some string) None & info [ "obs-metrics" ] ~docv:"FILE"
         ~doc:"Write the metrics registry (store.*, ingest.*, profd.*) as \
               JSON to $(docv) ('-' for stdout) on exit.")

let obs_trace =
  Arg.(value & opt (some string) None & info [ "obs-trace" ] ~docv:"FILE"
         ~doc:"Write internal spans as a Chrome trace (chrome://tracing, \
               Perfetto) to $(docv) on exit.")

let cmd =
  Cmd.v
    (Cmd.info "profd" ~doc:"profile aggregation daemon"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "profd ingests gmon profile payloads from many runs into a \
              sharded on-disk store, compacts them with balanced pairwise \
              merging, and serves merged views — the paper's 'data from \
              several runs can be summed', run as a service. One binary is \
              both the daemon (--serve) and its client (--submit, --query, \
              --flush, --compact, --shutdown, --wait, --drain-spool). The \
              daemon survives hostile peers: per-connection deadlines, a \
              connection cap, a bounded ingest queue with explicit BUSY \
              shedding, and graceful drain on SIGTERM. Set PROFD_FAULTS to \
              arm the deterministic fault plane for chaos testing.";
         ])
    Term.(
      const run $ serve_flag $ socket $ store_dir $ shards $ batch $ max_age
      $ queue_cap $ conn_timeout $ max_conns $ retry_after $ drain_grace
      $ telemetry_out $ telemetry_interval $ log_file $ log_level
      $ wait $ timeout $ retries
      $ (const (fun submit files ->
             ignore submit;
             files)
         $ submit $ files)
      $ label $ spool_dir $ query $ top_n $ out $ do_flush $ do_compact
      $ do_shutdown $ offline_out $ obs_metrics $ obs_trace)

let () = exit (Cmd.eval' cmd)
