(* Tests for the chaos-hardened fleet pipeline: the Proto transport
   under deadlines, oversize frames, and injected faults; the Server
   event loop's backpressure, duplicate suppression, slowloris
   defense, and graceful drain (a real forked daemon per test); and
   the client-side spool, including the QCheck equivalence property
   spool → drain → store ≡ direct submission for both container
   families. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qt = QCheck_alcotest.to_alcotest

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let with_dir f =
  let dir = Filename.temp_file "chaos_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

(* the same small profile family the store tests use *)
let mk_gmon i =
  let hist = Gmon.make_hist ~lowpc:0 ~highpc:20 ~bucket_size:1 in
  let counts = Array.copy hist.Gmon.h_counts in
  counts.(i mod 20) <- i + 1;
  counts.((i * 7) mod 20) <- (2 * i) + 3;
  {
    Gmon.hist = { hist with h_counts = counts };
    arcs =
      [
        { Gmon.a_from = 1; a_self = 10; a_count = i + 1 };
        { Gmon.a_from = (i mod 5) + 2; a_self = 11; a_count = i + 2 };
      ]
      |> List.sort (fun (a : Gmon.arc) b ->
             compare (a.a_from, a.a_self) (b.a_from, b.a_self));
    ticks_per_second = 60;
    cycles_per_tick = 16_666;
    runs = 1;
  }

let mk_sprof i =
  {
    Gmon.Sprof.sp_sample_interval = 2;
    sp_ticks_per_second = 60;
    sp_cycles_per_tick = 16_666;
    sp_runs = 1;
    sp_stacks =
      [ ([| 0; i mod 5 |], i + 1); ([| i mod 3 |], 1) ]
      |> List.stable_sort (fun (a, _) (b, _) -> Gmon.Sprof.compare_stack a b);
  }

let with_faults spec f =
  match Faultplane.of_spec spec with
  | Error e -> Alcotest.fail e
  | Ok plane ->
    Faultplane.configure (Some plane);
    Fun.protect ~finally:(fun () -> Faultplane.configure None) f

(* ------------------------------------------------------------------ *)
(* A real daemon for integration tests: Server.serve in a forked
   child, one per test, killed and reaped no matter how the test
   ends. *)

let with_daemon ?(conn_timeout = 5.0) ?(max_conns = 8) ?(retry_after = 0.05)
    ?(drain_grace = 2.0) ?(max_batch = 4) ?(queue_cap = 8) ?faults ~dir f =
  let socket = Filename.concat dir "d.sock" in
  let store_dir = Filename.concat dir "store" in
  match Unix.fork () with
  | 0 ->
    (try
       (match faults with
       | None -> ()
       | Some spec -> Faultplane.configure (Some (ok (Faultplane.of_spec spec))));
       match Store.open_ store_dir with
       | Error e ->
         prerr_endline e;
         Unix._exit 2
       | Ok (store, _) ->
         let ingest = Ingest.create ~max_batch ~queue_cap store in
         let config =
           {
             Server.socket;
             conn_timeout;
             max_conns;
             retry_after;
             drain_grace;
             telemetry_out = None;
             telemetry_interval = 1.0;
           }
         in
         (match
            Server.serve config ingest
              ~stop_requested:(fun () -> false)
              ~events:Obs.Eventlog.null
          with
         | Ok () -> Unix._exit 0
         | Error e ->
           prerr_endline e;
           Unix._exit 2)
     with e ->
       prerr_endline (Printexc.to_string e);
       Unix._exit 2)
  | pid ->
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      (fun () ->
        (match Proto.wait_ready ~socket ~timeout:10.0 with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        f ~socket ~store_dir ~pid)

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

(* ------------------------------------------------------------------ *)
(* Proto: codecs and transport *)

let test_codec_roundtrips () =
  let reqs =
    [
      Proto.Submit { label = "web-7"; id = Some "a1-b2.c3"; payload = "\x00\xffbin" };
      Proto.Submit { label = "web-7"; id = None; payload = "" };
      Proto.Query_top 13;
      Proto.Query_report;
      Proto.Query_sreport;
      Proto.Query_stats;
      Proto.Query_metrics;
      Proto.Query_health;
      Proto.Flush;
      Proto.Compact;
      Proto.Shutdown;
    ]
  in
  List.iter
    (fun req ->
      match Proto.decode_request (Proto.encode_request req) with
      | Ok got -> check_bool "request round-trips" true (got = req)
      | Error e -> Alcotest.fail e)
    reqs;
  let resps =
    [ Proto.Resp_ok "payload\nwith\nlines"; Resp_busy 0.25; Resp_err "boom" ]
  in
  List.iter
    (fun resp ->
      match Proto.decode_response (Proto.encode_response resp) with
      | Ok got -> check_bool "response round-trips" true (got = resp)
      | Error e -> Alcotest.fail e)
    resps;
  (* a BUSY's retry-after survives the text codec *)
  (match Proto.decode_response "BUSY 1.5\n" with
  | Ok (Resp_busy t) -> check_bool "retry_after parsed" true (t = 1.5)
  | _ -> Alcotest.fail "BUSY did not decode");
  (* hostile ids are refused at decode, not at ingest *)
  check_bool "id with a space is invalid" true
    (Result.is_error (Proto.decode_request "SUBMIT l bad id extra\n"));
  check_bool "valid_id rejects newline" false (Proto.valid_id "a\nb");
  check_bool "valid_id rejects empty" false (Proto.valid_id "");
  check_bool "fresh ids are valid" true (Proto.valid_id (Proto.fresh_id ()));
  check_bool "fresh ids differ" true (Proto.fresh_id () <> Proto.fresh_id ())

let test_oversize_refused_client_side () =
  (* the writer refuses before sending a byte *)
  let a, b = Unix.(socketpair PF_UNIX SOCK_STREAM 0) in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let big = String.make (Proto.max_frame + 1) 'x' in
      (match Proto.write_frame a big with
      | Error (Proto.Oversize n) -> check_int "reported size" (Proto.max_frame + 1) n
      | _ -> Alcotest.fail "oversize write not refused");
      (* and the reader refuses a hostile length prefix without
         allocating the body *)
      let hdr = Bytes.create 4 in
      Bytes.set_int32_le hdr 0 (Int32.of_int (Proto.max_frame + 1));
      ignore (Unix.write a hdr 0 4);
      match Proto.read_frame ~deadline:(Unix.gettimeofday () +. 5.0) b with
      | Error (Proto.Oversize n) -> check_int "reader size" (Proto.max_frame + 1) n
      | _ -> Alcotest.fail "oversize read not refused")

let test_read_deadline () =
  let a, b = Unix.(socketpair PF_UNIX SOCK_STREAM 0) in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      match Proto.read_frame ~deadline:(t0 +. 0.2) b with
      | Error Proto.Timeout ->
        check_bool "timed out promptly" true (Unix.gettimeofday () -. t0 < 2.0)
      | _ -> Alcotest.fail "expected a deadline miss")

(* Clients answered BUSY together retry apart: the jitter follows the
   submission id, and a replayed submission sleeps the same schedule. *)
let test_backoff_follows_the_id () =
  let submit id = Proto.Submit { label = "l"; id = Some id; payload = "p" } in
  let schedule id = Proto.backoff_schedule (submit id) 6 in
  check_bool "one id, one schedule" true (schedule "a1" = schedule "a1");
  check_bool "two ids, two schedules" true (schedule "a1" <> schedule "a2");
  List.iteri
    (fun k d ->
      let base = Float.min 2.0 (0.05 *. Float.pow 2.0 (float_of_int k)) in
      check_bool (Printf.sprintf "attempt %d within [base/2, base)" k) true
        (d >= base /. 2.0 && d < base))
    (schedule "a1");
  let stats () = Proto.backoff_schedule Proto.Query_stats 6 in
  check_bool "requests without an id draw fresh schedules" true (stats () <> stats ())

let test_fault_injection_is_deterministic () =
  (* with torn=1.0 every framed write fails after a prefix; the same
     spec gives the same failure — replayable chaos *)
  let tear () =
    with_faults "seed=7,torn=1.0" (fun () ->
        let a, b = Unix.(socketpair PF_UNIX SOCK_STREAM 0) in
        Fun.protect
          ~finally:(fun () ->
            Unix.close a;
            Unix.close b)
          (fun () ->
            match Proto.write_frame a (String.make 4096 'p') with
            | Error (Proto.Torn msg) -> msg
            | Ok () -> Alcotest.fail "torn write unexpectedly succeeded"
            | Error e -> Alcotest.fail (Proto.frame_error_to_string e)))
  in
  let m1 = tear () and m2 = tear () in
  check_bool "same seed, same tear" true (m1 = m2);
  (* reads injected to fail surface as resets, not exceptions *)
  with_faults "seed=7,reset=1.0" (fun () ->
      let a, b = Unix.(socketpair PF_UNIX SOCK_STREAM 0) in
      Fun.protect
        ~finally:(fun () ->
          Unix.close a;
          Unix.close b)
        (fun () ->
          ignore (Unix.write_substring a "xxxx" 0 4);
          match Proto.read_frame ~deadline:(Unix.gettimeofday () +. 1.0) b with
          | Error (Proto.Torn _) -> ()
          | _ -> Alcotest.fail "injected reset not surfaced"))

(* ------------------------------------------------------------------ *)
(* The daemon under attack *)

let rpc_exn ?attempts ~socket req =
  match Proto.rpc ?attempts ~socket req with
  | Ok resp -> resp
  | Error e -> Alcotest.fail e

let test_duplicate_submission_not_double_counted () =
  with_dir (fun dir ->
      with_daemon ~dir (fun ~socket ~store_dir:_ ~pid:_ ->
          let g = mk_gmon 3 in
          let payload = Gmon.to_bytes g in
          let id = Some (Proto.fresh_id ()) in
          let req = Proto.Submit { label = "t"; id; payload } in
          (match rpc_exn ~socket req with
          | Resp_ok _ -> ()
          | _ -> Alcotest.fail "first submit refused");
          (* the retry of an already-acknowledged submission — as after
             a lost response — is acknowledged without ingesting *)
          (match rpc_exn ~socket req with
          | Resp_ok reply ->
            check_bool "acknowledged as duplicate" true
              (String.length reply >= 9 && String.sub reply 0 9 = "duplicate")
          | _ -> Alcotest.fail "duplicate submit refused");
          match rpc_exn ~socket Proto.Query_report with
          | Resp_ok bytes ->
            let stored =
              match Gmon.decode ~mode:`Strict bytes with
              | Ok (g, _) -> g
              | Error e -> Alcotest.failf "report undecodable at %d" e.de_offset
            in
            check_bool "stored exactly once" true (Gmon.equal stored g)
          | _ -> Alcotest.fail "report query failed"))

let test_overload_sheds_with_busy () =
  with_dir (fun dir ->
      (* every store append fails, so the 1-deep queue jams: the first
         submission is accepted (buffered), the second must be shed
         with an explicit BUSY, never silently dropped *)
      with_daemon ~dir ~max_batch:1 ~queue_cap:1 ~faults:"seed=3,storefail=1.0"
        (fun ~socket ~store_dir:_ ~pid:_ ->
          let submit i =
            Proto.rpc ~socket
              (Submit
                 {
                   label = "t";
                   id = Some (Proto.fresh_id ());
                   payload = Gmon.to_bytes (mk_gmon i);
                 })
          in
          (match submit 0 with
          | Ok (Resp_ok _) -> ()
          | _ -> Alcotest.fail "first submission should be buffered");
          (match submit 1 with
          | Ok (Resp_busy retry_after) ->
            check_bool "retry-after hint present" true (retry_after > 0.0)
          | _ -> Alcotest.fail "expected BUSY at the full queue");
          (* a retrying client keeps getting BUSY (the store never
             heals here) and surfaces the final BUSY for degrading *)
          match
            Proto.rpc ~attempts:3 ~socket
              (Submit
                 {
                   label = "t";
                   id = Some (Proto.fresh_id ());
                   payload = Gmon.to_bytes (mk_gmon 2);
                 })
          with
          | Ok (Resp_busy _) -> ()
          | _ -> Alcotest.fail "retries should end in the final BUSY"))

let test_slowloris_cannot_stall_the_daemon () =
  with_dir (fun dir ->
      with_daemon ~dir ~conn_timeout:0.5 (fun ~socket ~store_dir:_ ~pid:_ ->
          (* a peer that sends half a length prefix and stops *)
          let slow = raw_connect socket in
          Fun.protect
            ~finally:(fun () -> try Unix.close slow with Unix.Unix_error _ -> ())
            (fun () ->
              ignore (Unix.write_substring slow "\x08\x00" 0 2);
              (* the daemon still serves others while the slow peer
                 dangles *)
              let t0 = Unix.gettimeofday () in
              (match rpc_exn ~socket Proto.Query_stats with
              | Resp_ok json ->
                check_bool "stats answered while stalled" true
                  (String.length json > 0)
              | _ -> Alcotest.fail "stats refused");
              check_bool "other clients not stalled" true
                (Unix.gettimeofday () -. t0 < 3.0);
              (* and cuts the slow peer at the deadline *)
              match
                Proto.read_frame ~deadline:(Unix.gettimeofday () +. 5.0) slow
              with
              | Error Proto.Eof -> (
                check_bool "cut at the deadline, not ours" true
                  (Unix.gettimeofday () -. t0 < 4.0);
                (* and counts the cut *)
                match rpc_exn ~socket Proto.Query_metrics with
                | Resp_ok json ->
                  let closed =
                    Option.bind (Result.to_option (Obs.Snapshot.of_json json))
                      (fun sn -> Obs.Snapshot.find_counter sn "profd.conn.deadline_closed")
                  in
                  check_bool "profd.conn.deadline_closed counts the cut" true
                    (Option.value ~default:0 closed >= 1)
                | _ -> Alcotest.fail "metrics refused")
              | Ok _ -> Alcotest.fail "slow peer got a frame?"
              | Error e -> Alcotest.fail (Proto.frame_error_to_string e))))

let test_oversize_frame_answered_then_closed () =
  with_dir (fun dir ->
      with_daemon ~dir (fun ~socket ~store_dir:_ ~pid:_ ->
          let fd = raw_connect socket in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              let hdr = Bytes.create 4 in
              Bytes.set_int32_le hdr 0 (Int32.of_int (Proto.max_frame + 7));
              ignore (Unix.write fd hdr 0 4);
              let deadline = Unix.gettimeofday () +. 5.0 in
              (match Proto.read_frame ~deadline fd with
              | Ok body -> (
                match Proto.decode_response body with
                | Ok (Resp_err msg) ->
                  check_bool "structured error names the cap" true
                    (String.length msg > 0 && contains ~needle:"cap" msg)
                | _ -> Alcotest.fail "expected a structured ERR")
              | Error e -> Alcotest.fail (Proto.frame_error_to_string e));
              (* the stream is unusable after a refused length: closed *)
              match Proto.read_frame ~deadline fd with
              | Error Proto.Eof -> ()
              | _ -> Alcotest.fail "connection should be closed")))

let test_graceful_drain_flushes_the_store () =
  with_dir (fun dir ->
      with_daemon ~dir ~max_batch:64 (fun ~socket ~store_dir ~pid ->
          (* large batch: nothing hits the disk until the drain *)
          let gs = [ mk_gmon 1; mk_gmon 2; mk_gmon 3 ] in
          List.iter
            (fun g ->
              match
                rpc_exn ~socket
                  (Submit
                     {
                       label = "t";
                       id = Some (Proto.fresh_id ());
                       payload = Gmon.to_bytes g;
                     })
              with
              | Resp_ok _ -> ()
              | _ -> Alcotest.fail "submit refused")
            gs;
          (match rpc_exn ~socket Proto.Shutdown with
          | Resp_ok _ -> ()
          | _ -> Alcotest.fail "shutdown refused");
          (match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> Alcotest.fail "daemon did not drain cleanly");
          (* the store on disk holds everything the daemon accepted *)
          let store, _ = ok (Store.open_ store_dir) in
          match Store.merged store with
          | Ok (Some got) ->
            check_bool "drained store equals the offline merge" true
              (Gmon.equal got (ok (Gmon.merge_all gs)))
          | Ok None -> Alcotest.fail "store empty after drain"
          | Error e -> Alcotest.fail e))

(* ------------------------------------------------------------------ *)
(* The books under a flaky store *)

let counter name =
  Obs.Metrics.counter_value (Obs.Metrics.counter Obs.Metrics.default name)

(* A flush that fails partway has still stored what landed before the
   failure; ingest.flushed_profiles must count it. *)
let test_partial_flushes_are_counted () =
  with_dir (fun dir ->
      with_faults "seed=7,storefail=0.5" (fun () ->
          let store, _ = ok (Store.open_ ~shards:4 (Filename.concat dir "store")) in
          let q = Ingest.create ~max_batch:64 store in
          let flushed0 = counter "ingest.flushed_profiles" in
          let payloads =
            List.init 3 (fun i -> Gmon.to_bytes (mk_gmon i))
            @ List.init 3 (fun i -> Gmon.Sprof.to_bytes (mk_sprof i))
          in
          List.iteri
            (fun i payload ->
              match ok (Ingest.submit q ~label:(Printf.sprintf "svc-%d" (i mod 3)) payload) with
              | Ingest.Queued _ -> ()
              | _ -> Alcotest.fail "submission not queued")
            payloads;
          let rec drain attempts =
            if Ingest.pending q > 0 && attempts > 0 then begin
              ignore (Ingest.flush q);
              drain (attempts - 1)
            end
          in
          drain 100;
          check_int "queue drained" 0 (Ingest.pending q);
          let s = Store.stats store in
          let stored = s.Store.st_total_runs + s.Store.st_sprof_runs in
          check_int "every profile stored" 6 stored;
          check_int "flushed_profiles = runs stored" stored
            (counter "ingest.flushed_profiles" - flushed0)))

(* ------------------------------------------------------------------ *)
(* The spool *)

let test_spool_roundtrip_and_bad_entries () =
  with_dir (fun dir ->
      let spool = Filename.concat dir "spool" in
      let id1 = ok (Spool.add ~dir:spool ~label:"alpha" "payload-1") in
      let _id2 = ok (Spool.add ~dir:spool ~label:"beta" "payload-2") in
      check_int "two entries" 2 (List.length (ok (Spool.entries ~dir:spool)));
      (* entries round-trip label, id, and payload *)
      let path1 =
        List.find
          (fun p -> ok (Spool.read p) |> fun (_, id, _) -> id = id1)
          (ok (Spool.entries ~dir:spool))
      in
      let label, id, payload = ok (Spool.read path1) in
      check_bool "label" true (label = "alpha");
      check_bool "id" true (id = id1);
      check_bool "payload" true (payload = "payload-1");
      (* a damaged entry is set aside as .bad, not retried forever *)
      let bad = Filename.concat spool "sp-damaged.spool" in
      Out_channel.with_open_bin bad (fun oc ->
          Out_channel.output_string oc "not a spool entry");
      let accepted = ref 0 in
      let drained, remaining =
        ok
          (Spool.drain ~dir:spool ~submit:(fun ~label:_ ~id:_ _ ->
               incr accepted;
               if !accepted = 1 then Ok `Accepted else Ok `Retry))
      in
      check_int "one drained" 1 drained;
      check_int "one retried + one damaged" 2 remaining;
      check_bool "damaged entry renamed" true (Sys.file_exists (bad ^ ".bad"));
      (* the next drain sees only the retryable entry *)
      let drained, remaining =
        ok (Spool.drain ~dir:spool ~submit:(fun ~label:_ ~id:_ _ -> Ok `Accepted))
      in
      check_int "second drain ships the rest" 1 drained;
      check_int "spool empty" 0 remaining;
      check_int "no entries left" 0 (List.length (ok (Spool.entries ~dir:spool))))

(* QCheck: for any mix of profiles, spooling then draining into a
   store yields a merged report byte-identical (after compaction) to
   submitting directly — the accounting equation closes with no
   profile lost or duplicated. One property per container family. *)

let spool_equivalence_gmon =
  QCheck.Test.make ~name:"spool → drain → store ≡ direct submission (gmon)"
    ~count:30
    QCheck.(list_of_size Gen.(int_range 1 8) (int_range 0 50))
    (fun is ->
      with_dir (fun dir ->
          let payloads = List.map (fun i -> Gmon.to_bytes (mk_gmon i)) is in
          let direct_store, _ =
            ok (Store.open_ (Filename.concat dir "direct"))
          in
          let direct = Ingest.create ~max_batch:3 direct_store in
          List.iter
            (fun p -> ignore (ok (Ingest.submit direct ~label:"t" p)))
            payloads;
          ignore (ok (Ingest.flush direct));
          ignore (ok (Store.compact direct_store));
          let spool = Filename.concat dir "spool" in
          List.iter
            (fun p -> ignore (ok (Spool.add ~dir:spool ~label:"t" p)))
            payloads;
          let drained_store, _ =
            ok (Store.open_ (Filename.concat dir "drained"))
          in
          let drained = Ingest.create ~max_batch:3 drained_store in
          let n_drained, n_left =
            ok
              (Spool.drain ~dir:spool ~submit:(fun ~label ~id:_ payload ->
                   ignore (ok (Ingest.submit drained ~label payload));
                   Ok `Accepted))
          in
          ignore (ok (Ingest.flush drained));
          ignore (ok (Store.compact drained_store));
          n_drained = List.length payloads
          && n_left = 0
          &&
          match (Store.merged direct_store, Store.merged drained_store) with
          | Ok (Some a), Ok (Some b) ->
            Gmon.equal a b && Gmon.to_bytes a = Gmon.to_bytes b
          | _ -> false))

let spool_equivalence_sprof =
  QCheck.Test.make ~name:"spool → drain → store ≡ direct submission (sprof)"
    ~count:30
    QCheck.(list_of_size Gen.(int_range 1 8) (int_range 0 50))
    (fun is ->
      with_dir (fun dir ->
          let payloads =
            List.map (fun i -> Gmon.Sprof.to_bytes (mk_sprof i)) is
          in
          let direct_store, _ =
            ok (Store.open_ (Filename.concat dir "direct"))
          in
          let direct = Ingest.create ~max_batch:3 direct_store in
          List.iter
            (fun p -> ignore (ok (Ingest.submit direct ~label:"t" p)))
            payloads;
          ignore (ok (Ingest.flush direct));
          ignore (ok (Store.compact direct_store));
          let spool = Filename.concat dir "spool" in
          List.iter
            (fun p -> ignore (ok (Spool.add ~dir:spool ~label:"t" p)))
            payloads;
          let drained_store, _ =
            ok (Store.open_ (Filename.concat dir "drained"))
          in
          let drained = Ingest.create ~max_batch:3 drained_store in
          let n_drained, n_left =
            ok
              (Spool.drain ~dir:spool ~submit:(fun ~label ~id:_ payload ->
                   ignore (ok (Ingest.submit drained ~label payload));
                   Ok `Accepted))
          in
          ignore (ok (Ingest.flush drained));
          ignore (ok (Store.compact drained_store));
          n_drained = List.length payloads
          && n_left = 0
          &&
          match
            (Store.merged_sprof direct_store, Store.merged_sprof drained_store)
          with
          | Ok (Some a), Ok (Some b) ->
            Gmon.Sprof.equal a b
            && Gmon.Sprof.to_bytes a = Gmon.Sprof.to_bytes b
          | _ -> false))

let () =
  Alcotest.run "chaos"
    [
      ( "proto",
        [
          Alcotest.test_case "codec round-trips" `Quick test_codec_roundtrips;
          Alcotest.test_case "oversize refused client side" `Quick
            test_oversize_refused_client_side;
          Alcotest.test_case "read deadline" `Quick test_read_deadline;
          Alcotest.test_case "fault injection is deterministic" `Quick
            test_fault_injection_is_deterministic;
          Alcotest.test_case "backoff follows the submission id" `Quick
            test_backoff_follows_the_id;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "duplicate submission not double-counted" `Slow
            test_duplicate_submission_not_double_counted;
          Alcotest.test_case "overload sheds with BUSY" `Slow
            test_overload_sheds_with_busy;
          Alcotest.test_case "slowloris cannot stall the daemon" `Slow
            test_slowloris_cannot_stall_the_daemon;
          Alcotest.test_case "oversize frame answered then closed" `Slow
            test_oversize_frame_answered_then_closed;
          Alcotest.test_case "graceful drain flushes the store" `Slow
            test_graceful_drain_flushes_the_store;
        ] );
      ( "books",
        [
          Alcotest.test_case "partial flushes are counted" `Quick
            test_partial_flushes_are_counted;
        ] );
      ( "spool",
        [
          Alcotest.test_case "roundtrip and bad entries" `Quick
            test_spool_roundtrip_and_bad_entries;
          qt spool_equivalence_gmon;
          qt spool_equivalence_sprof;
        ] );
    ]
