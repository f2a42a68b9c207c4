(* The profd daemon engine. See server.mli for the contract.

   One select loop, non-blocking everything, explicit state per
   connection. The old engine served one connection to completion at a
   time, which made a single slow peer a denial of service; this one
   interleaves all of them and enforces a per-frame deadline, so the
   worst a hostile peer can do is waste one connection slot for
   conn_timeout seconds.

   This revision makes the daemon observable while it runs, not just
   at exit: every RPC's latency lands in a per-verb histogram, bytes
   are counted in both directions, QUERY metrics/health serve live
   JSON snapshots, a telemetry loop appends periodic snapshots to a
   checksummed JSONL time-series, and every operationally interesting
   moment (shed, quarantine, deadline close, drain, compaction) is a
   structured event-log record instead of an eprintf. *)

let version = "1.8.0"

(* --- metrics ----------------------------------------------------------- *)

let m_accepted =
  Obs.Metrics.counter Obs.Metrics.default "profd.conn.accepted"
    ~help:"client connections accepted"

let m_refused =
  Obs.Metrics.counter Obs.Metrics.default "profd.conn.refused"
    ~help:"connections refused at the concurrency cap (answered BUSY)"

let m_deadline =
  Obs.Metrics.counter Obs.Metrics.default "profd.conn.deadline_closed"
    ~help:"connections closed for missing the per-frame IO deadline"

let m_torn =
  Obs.Metrics.counter Obs.Metrics.default "profd.conn.torn"
    ~help:"connections dropped mid-frame (torn frame, reset, disconnect)"

let m_oversize =
  Obs.Metrics.counter Obs.Metrics.default "profd.conn.oversize"
    ~help:"frames refused for exceeding the length cap"

let m_requests =
  Obs.Metrics.counter Obs.Metrics.default "profd.requests"
    ~help:"requests decoded and handled"

let m_shed =
  Obs.Metrics.counter Obs.Metrics.default "profd.shed.overload"
    ~help:"submissions answered BUSY because the ingest queue was full"

let m_dedup =
  Obs.Metrics.counter Obs.Metrics.default "profd.dedup.hits"
    ~help:"duplicate submission ids acknowledged without re-ingesting"

let m_bytes_read =
  Obs.Metrics.counter Obs.Metrics.default "profd.bytes.read"
    ~help:"payload and framing bytes read from peers"

let m_bytes_written =
  Obs.Metrics.counter Obs.Metrics.default "profd.bytes.written"
    ~help:"payload and framing bytes written to peers"

let m_telemetry =
  Obs.Metrics.counter Obs.Metrics.default "profd.telemetry.records"
    ~help:"snapshots appended to the telemetry time-series"

let g_queue =
  Obs.Metrics.gauge Obs.Metrics.default "profd.queue.pending"
    ~help:"profiles buffered in the ingest queue"

let g_conns =
  Obs.Metrics.gauge Obs.Metrics.default "profd.conns.active"
    ~help:"connections currently open"

(* One latency histogram per verb, registered on first use. Values are
   microseconds, measured from the first byte of the request frame to
   the last byte of the response written — transport stalls (and
   injected latency faults) are part of the request as the client
   experienced it, so they belong in the number. *)
let rpc_latency =
  let table = Hashtbl.create 16 in
  fun verb ->
    match Hashtbl.find_opt table verb with
    | Some h -> h
    | None ->
      let h =
        Obs.Metrics.histogram Obs.Metrics.default
          (Printf.sprintf "profd.rpc.%s.latency" verb)
          ~help:"request latency, first request byte to last response byte, µs"
      in
      Hashtbl.replace table verb h;
      h

let verb_of_request = function
  | Proto.Submit _ -> "submit"
  | Proto.Query_top _ -> "top"
  | Proto.Query_report -> "report"
  | Proto.Query_sreport -> "sreport"
  | Proto.Query_stats -> "stats"
  | Proto.Query_metrics -> "metrics"
  | Proto.Query_health -> "health"
  | Proto.Flush -> "flush"
  | Proto.Compact -> "compact"
  | Proto.Shutdown -> "shutdown"

(* --- config ------------------------------------------------------------ *)

type config = {
  socket : string;
  conn_timeout : float;
  max_conns : int;
  retry_after : float;
  drain_grace : float;
  telemetry_out : string option;
  telemetry_interval : float;
}

let default_config ~socket =
  {
    socket;
    conn_timeout = 10.0;
    max_conns = 64;
    retry_after = 0.1;
    drain_grace = 5.0;
    telemetry_out = None;
    telemetry_interval = 1.0;
  }

(* --- the duplicate-suppression window ---------------------------------- *)

(* Ids live in memory only: the window exists to absorb the retry
   storm after a lost response (seconds), not to dedupe across daemon
   restarts. Bounded FIFO so a hostile client cannot grow it. *)
module Dedup = struct
  type t = { seen : (string, unit) Hashtbl.t; order : string Queue.t; cap : int }

  let create cap = { seen = Hashtbl.create 64; order = Queue.create (); cap }

  let mem t id = Hashtbl.mem t.seen id

  let add t id =
    if not (Hashtbl.mem t.seen id) then begin
      Hashtbl.replace t.seen id ();
      Queue.push id t.order;
      if Queue.length t.order > t.cap then
        Hashtbl.remove t.seen (Queue.pop t.order)
    end
end

(* --- shared serving state ---------------------------------------------- *)

type ctx = {
  cfg : config;
  ingest : Ingest.t;
  dedup : Dedup.t;
  events : Obs.Eventlog.t;
  started : float;  (* Unix.gettimeofday at serve start *)
  mutable telemetry : Obs.Timeseries.writer option;
  mutable active_conns : int;
}

(* --- per-connection state ---------------------------------------------- *)

type conn = {
  c_fd : Unix.file_descr;
  c_hdr : Bytes.t;  (* 4-byte length prefix, filled incrementally *)
  mutable c_hdr_got : int;
  mutable c_body : Bytes.t;
  mutable c_body_got : int;
  mutable c_body_len : int;  (* -1 = header not complete yet *)
  mutable c_out : string;  (* the framed response being written *)
  mutable c_out_pos : int;
  mutable c_deadline : float;  (* absolute; refreshed per phase *)
  mutable c_req_start : float;  (* first byte of the current frame; nan = idle *)
  mutable c_verb : string;  (* verb being answered, for the latency hist *)
  mutable c_close_after_write : bool;
  mutable c_dead : bool;
}

let mid_frame c = c.c_hdr_got > 0 || c.c_body_len >= 0

let has_output c = String.length c.c_out > c.c_out_pos

let kill ctx reason c =
  if not c.c_dead then begin
    c.c_dead <- true;
    (match reason with
    | `Clean -> ()
    | `Deadline ->
      Obs.Metrics.incr m_deadline;
      Obs.Eventlog.warn ctx.events "conn.deadline_closed" []
    | `Torn ->
      Obs.Metrics.incr m_torn;
      Obs.Eventlog.debug ctx.events "conn.torn" []);
    try Unix.close c.c_fd with Unix.Unix_error _ -> ()
  end

let frame_bytes body =
  let len = String.length body in
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.blit_string body 0 b 4 len;
  Bytes.unsafe_to_string b

let enqueue_response ctx c resp =
  let body = Proto.encode_response resp in
  let body =
    if String.length body <= Proto.max_frame then body
    else Proto.encode_response (Resp_err "response exceeds the frame cap")
  in
  c.c_out <- frame_bytes body;
  c.c_out_pos <- 0;
  c.c_deadline <- Unix.gettimeofday () +. ctx.cfg.conn_timeout

(* --- health and metrics payloads --------------------------------------- *)

let counter_value name =
  Option.value ~default:0 (Obs.Metrics.find_counter Obs.Metrics.default name)

let health_json ctx =
  let store = Ingest.store ctx.ingest in
  let s = Store.stats store in
  let shards = Store.shard_info store in
  let buf = Buffer.create 1024 in
  let j = Obs.Jsonbuf.int buf in
  Obs.Jsonbuf.obj buf
    [
      ("version", fun () -> Obs.Jsonbuf.escape buf version);
      ("pid", fun () -> j (Unix.getpid ()));
      ( "uptime",
        fun () ->
          Buffer.add_string buf
            (Printf.sprintf "%.3f" (Unix.gettimeofday () -. ctx.started)) );
      ( "queue",
        fun () ->
          Obs.Jsonbuf.obj buf
            [
              ("pending", fun () -> j (Ingest.pending ctx.ingest));
              ("cap", fun () -> j (Ingest.queue_cap ctx.ingest));
            ] );
      ( "conns",
        fun () ->
          Obs.Jsonbuf.obj buf
            [
              ("active", fun () -> j ctx.active_conns);
              ("max", fun () -> j ctx.cfg.max_conns);
            ] );
      ( "store",
        fun () ->
          Obs.Jsonbuf.obj buf
            [
              ("shards", fun () -> j s.Store.st_shards);
              ("segments", fun () -> j s.Store.st_segments);
              ("sprof_segments", fun () -> j s.Store.st_sprof_segments);
              ("total_runs", fun () -> j s.Store.st_total_runs);
              ("sprof_runs", fun () -> j s.Store.st_sprof_runs);
              ("quarantined", fun () -> j s.Store.st_quarantined);
              ("disk_bytes", fun () -> j s.Store.st_disk_bytes);
              ("last_compact_seq", fun () -> j (Store.last_compact_seq store));
              ( "per_shard",
                fun () ->
                  Obs.Jsonbuf.arr buf shards (fun si ->
                      Obs.Jsonbuf.obj buf
                        [
                          ("shard", fun () -> j si.Store.si_index);
                          ("segments", fun () -> j si.Store.si_segments);
                          ( "sprof_segments",
                            fun () -> j si.Store.si_sprof_segments );
                          ("compact_seq", fun () -> j si.Store.si_compact_seq);
                          ("scompact_seq", fun () -> j si.Store.si_scompact_seq);
                        ]) );
            ] );
      ( "counters",
        fun () ->
          Obs.Jsonbuf.obj buf
            (List.map
               (fun (k, name) -> (k, fun () -> j (counter_value name)))
               [
                 ("requests", "profd.requests");
                 ("accepted", "profd.conn.accepted");
                 ("refused", "profd.conn.refused");
                 ("deadline_closed", "profd.conn.deadline_closed");
                 ("torn", "profd.conn.torn");
                 ("shed", "profd.shed.overload");
                 ("dedup_hits", "profd.dedup.hits");
                 ("submitted", "ingest.submitted");
                 ("quarantined", "ingest.quarantined");
                 ("bytes_read", "profd.bytes.read");
                 ("bytes_written", "profd.bytes.written");
               ]) );
      ( "telemetry",
        fun () ->
          Obs.Jsonbuf.obj buf
            [
              ( "enabled",
                fun () ->
                  Buffer.add_string buf
                    (if ctx.telemetry <> None then "true" else "false") );
              ( "interval",
                fun () ->
                  Buffer.add_string buf
                    (Printf.sprintf "%g" ctx.cfg.telemetry_interval) );
              ("records", fun () -> j (counter_value "profd.telemetry.records"));
            ] );
      ("log", fun () -> Obs.Jsonbuf.obj buf [ ("seq", fun () -> j (Obs.Eventlog.seq ctx.events)) ]);
    ];
  Buffer.contents buf

(* --- request handling -------------------------------------------------- *)

let handle_request ctx ~drain req =
  Obs.Metrics.incr m_requests;
  let store = Ingest.store ctx.ingest in
  (* queries observe their own writes: anything still buffered in the
     ingest queue is flushed before the store answers *)
  let flush_for_query () =
    match Ingest.flush ctx.ingest with Ok _ -> Ok () | Error e -> Error e
  in
  match (req : Proto.request) with
  | Submit { label; id; payload } -> (
    match id with
    | Some id when Dedup.mem ctx.dedup id ->
      Obs.Metrics.incr m_dedup;
      Obs.Eventlog.debug ctx.events "submit.duplicate"
        [ ("label", S label); ("id", S id) ];
      Proto.Resp_ok "duplicate\n"
    | _ -> (
      match Ingest.submit ctx.ingest ~label payload with
      | Error e -> Resp_err e
      | Ok Ingest.Shed ->
        Obs.Metrics.incr m_shed;
        Obs.Eventlog.warn ctx.events "shed"
          [
            ("label", S label);
            ("pending", I (Ingest.pending ctx.ingest));
            ("cap", I (Ingest.queue_cap ctx.ingest));
          ];
        Resp_busy ctx.cfg.retry_after
      | Ok outcome ->
        (* only accepted submissions enter the window: a shed one must
           be retried for real *)
        Option.iter (Dedup.add ctx.dedup) id;
        (match outcome with
        | Ingest.Queued n -> Resp_ok (Printf.sprintf "queued %d\n" n)
        | Ingest.Flushed n -> Resp_ok (Printf.sprintf "flushed %d\n" n)
        | Ingest.Quarantined reason ->
          Obs.Eventlog.warn ctx.events "quarantine"
            [ ("label", S label); ("reason", S reason) ];
          Resp_ok (Printf.sprintf "quarantined %s\n" reason)
        | Ingest.Shed -> assert false)))
  | Query_top n -> (
    match
      Result.bind (flush_for_query ()) (fun () -> Store.top_buckets store ~n)
    with
    | Error e -> Resp_err e
    | Ok rows ->
      Resp_ok
        (String.concat ""
           (List.map
              (fun (lo, hi, ticks) -> Printf.sprintf "%d %d %d\n" lo hi ticks)
              rows)))
  | Query_report -> (
    match Result.bind (flush_for_query ()) (fun () -> Store.merged store) with
    | Error e -> Resp_err e
    | Ok None -> Resp_err "store is empty"
    | Ok (Some g) -> Resp_ok (Gmon.to_bytes g))
  | Query_sreport -> (
    match
      Result.bind (flush_for_query ()) (fun () -> Store.merged_sprof store)
    with
    | Error e -> Resp_err e
    | Ok None -> Resp_err "store holds no sampled profiles"
    | Ok (Some sp) -> Resp_ok (Gmon.Sprof.to_bytes sp))
  | Query_stats -> (
    match flush_for_query () with
    | Error e -> Resp_err e
    | Ok () ->
      let s = Store.stats store in
      Resp_ok
        (Printf.sprintf
           "{\"store\":%s,\"queue\":{\"pending\":%d,\"cap\":%d},\"conns\":{\"active\":%d}}\n"
           (Store.stats_to_json s)
           (Ingest.pending ctx.ingest)
           (Ingest.queue_cap ctx.ingest) ctx.active_conns))
  | Query_metrics ->
    (* the live registry, in the exact shape --obs-metrics dumps at
       exit, so one parser (Obs.Snapshot.of_json) reads both *)
    Obs.Metrics.set g_queue (Ingest.pending ctx.ingest);
    Obs.Metrics.set g_conns ctx.active_conns;
    Resp_ok (Obs.Snapshot.(to_json (of_registry Obs.Metrics.default)) ^ "\n")
  | Query_health -> Resp_ok (health_json ctx ^ "\n")
  | Flush -> (
    match Ingest.flush ctx.ingest with
    | Error e -> Resp_err e
    | Ok n -> Resp_ok (Printf.sprintf "flushed %d\n" n))
  | Compact -> (
    match Result.bind (flush_for_query ()) (fun () -> Store.compact store) with
    | Error e ->
      Obs.Eventlog.error ctx.events "compact.failed" [ ("error", S e) ];
      Resp_err e
    | Ok n ->
      Obs.Eventlog.info ctx.events "compact"
        [
          ("folded", I n);
          ("last_seq", I (Store.last_compact_seq store));
        ];
      Resp_ok (Printf.sprintf "folded %d\n" n))
  | Shutdown ->
    Obs.Eventlog.info ctx.events "shutdown.requested" [];
    drain ();
    (match Ingest.flush ctx.ingest with
    | Ok _ -> Resp_ok "bye\n"
    | Error e -> Resp_err e)

(* --- the event loop ---------------------------------------------------- *)

let read_step conn buf off need =
  Faultplane.delay ();
  if Faultplane.fail_read () then
    `Err "injected ECONNRESET: peer reset the connection"
  else
    match Unix.read conn.c_fd buf off (Faultplane.clamp_io need) with
    | 0 -> `Eof
    | n ->
      Obs.Metrics.incr m_bytes_read ~by:n;
      `Got n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      `Again
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Again
    | exception Unix.Unix_error (e, _, _) -> `Err (Unix.error_message e)

let rec pump_read ctx ~drain conn =
  if conn.c_dead || has_output conn then ()
  else if conn.c_body_len < 0 then (
    (* still collecting the 4-byte length prefix *)
    match read_step conn conn.c_hdr conn.c_hdr_got (4 - conn.c_hdr_got) with
    | `Again -> ()
    | `Eof -> kill ctx (if mid_frame conn then `Torn else `Clean) conn
    | `Err _ -> kill ctx `Torn conn
    | `Got n ->
      if Float.is_nan conn.c_req_start then
        conn.c_req_start <- Unix.gettimeofday ();
      conn.c_hdr_got <- conn.c_hdr_got + n;
      if conn.c_hdr_got < 4 then pump_read ctx ~drain conn
      else begin
        let len = Int32.to_int (Bytes.get_int32_le conn.c_hdr 0) in
        if len < 0 || len > Proto.max_frame then begin
          (* refuse the frame without allocating it: one structured
             error frame, then hang up (the stream is unusable — we
             cannot skip bytes we refuse to buffer) *)
          Obs.Metrics.incr m_oversize;
          Obs.Eventlog.warn ctx.events "conn.oversize" [ ("length", I len) ];
          conn.c_verb <- "invalid";
          enqueue_response ctx conn
            (Resp_err
               (Printf.sprintf "frame length %d exceeds the %d-byte cap" len
                  Proto.max_frame));
          conn.c_close_after_write <- true
        end
        else begin
          conn.c_body <- Bytes.create len;
          conn.c_body_len <- len;
          conn.c_body_got <- 0;
          pump_read ctx ~drain conn
        end
      end)
  else if conn.c_body_got < conn.c_body_len then (
    match
      read_step conn conn.c_body conn.c_body_got
        (conn.c_body_len - conn.c_body_got)
    with
    | `Again -> ()
    | `Eof | `Err _ -> kill ctx `Torn conn
    | `Got n ->
      conn.c_body_got <- conn.c_body_got + n;
      pump_read ctx ~drain conn)
  else begin
    (* a whole frame: handle it, queue the response, rearm the reader *)
    let body = Bytes.unsafe_to_string conn.c_body in
    conn.c_hdr_got <- 0;
    conn.c_body <- Bytes.empty;
    conn.c_body_len <- -1;
    conn.c_body_got <- 0;
    let req = Proto.decode_request body in
    conn.c_verb <-
      (match req with Ok r -> verb_of_request r | Error _ -> "invalid");
    let resp =
      match req with
      | Error e -> Proto.Resp_err e
      | Ok req -> handle_request ctx ~drain req
    in
    enqueue_response ctx conn resp;
    match req with
    | Ok Proto.Shutdown -> conn.c_close_after_write <- true
    | _ -> ()
  end

let observe_latency conn =
  if not (Float.is_nan conn.c_req_start) then begin
    let us =
      int_of_float ((Unix.gettimeofday () -. conn.c_req_start) *. 1e6)
    in
    Obs.Metrics.observe (rpc_latency conn.c_verb) (max 1 us);
    conn.c_req_start <- Float.nan
  end

let pump_write ctx conn =
  if conn.c_dead || not (has_output conn) then ()
  else begin
    Faultplane.delay ();
    if Faultplane.fail_write () then kill ctx `Torn conn
    else
      let len = String.length conn.c_out - conn.c_out_pos in
      match
        Unix.write_substring conn.c_fd conn.c_out conn.c_out_pos
          (Faultplane.clamp_io len)
      with
      | n ->
        Obs.Metrics.incr m_bytes_written ~by:n;
        conn.c_out_pos <- conn.c_out_pos + n;
        if not (has_output conn) then begin
          (* the whole response is on the wire: that closes the RPC *)
          observe_latency conn;
          if conn.c_close_after_write then kill ctx `Clean conn
          else begin
            (* response delivered; the next request gets a fresh
               deadline budget *)
            conn.c_out <- "";
            conn.c_out_pos <- 0;
            conn.c_deadline <- Unix.gettimeofday () +. ctx.cfg.conn_timeout
          end
        end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> kill ctx `Torn conn
  end

(* append one snapshot to the time-series; telemetry failures are
   reported once and disable the writer rather than wedging serving *)
let telemetry_tick ctx now =
  match ctx.telemetry with
  | None -> ()
  | Some w -> (
    Obs.Metrics.set g_queue (Ingest.pending ctx.ingest);
    Obs.Metrics.set g_conns ctx.active_conns;
    let snap = Obs.Snapshot.of_registry Obs.Metrics.default in
    match Obs.Timeseries.append w ~ts:now snap with
    | Ok _ -> Obs.Metrics.incr m_telemetry
    | Error e ->
      Obs.Eventlog.error ctx.events "telemetry.failed" [ ("error", S e) ];
      Obs.Timeseries.close_writer w;
      ctx.telemetry <- None)

let serve config ingest ~stop_requested ~events =
  let socket = config.socket in
  (* a stale socket file from a killed daemon would make bind fail;
     it is dead by construction (we are the only server) *)
  (match Unix.stat socket with
  | { st_kind = Unix.S_SOCK; _ } -> ( try Unix.unlink socket with _ -> ())
  | _ -> ()
  | exception Unix.Unix_error _ -> ());
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "socket: %s" (Unix.error_message e))
  | lsock -> (
    match Unix.bind lsock (Unix.ADDR_UNIX socket) with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close lsock with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "%s: %s" socket (Unix.error_message e))
    | () ->
      Unix.listen lsock (max 16 config.max_conns);
      Unix.set_nonblock lsock;
      let ctx =
        {
          cfg = config;
          ingest;
          dedup = Dedup.create 4096;
          events;
          started = Unix.gettimeofday ();
          telemetry = None;
          active_conns = 0;
        }
      in
      (match config.telemetry_out with
      | None -> ()
      | Some path -> (
        match Obs.Timeseries.open_writer path with
        | Ok w -> ctx.telemetry <- Some w
        | Error e ->
          Obs.Eventlog.error events "telemetry.open_failed"
            [ ("path", S path); ("error", S e) ]));
      Obs.Eventlog.info events "serve.start"
        [
          ("socket", S socket);
          ("version", S version);
          ("pid", I (Unix.getpid ()));
          ("max_conns", I config.max_conns);
          ("queue_cap", I (Ingest.queue_cap ingest));
          ( "telemetry",
            S (Option.value ~default:"" config.telemetry_out) );
        ];
      let conns = ref [] in
      let draining = ref false in
      let listener_open = ref true in
      let drain () = draining := true in
      let refuse fd =
        (* explicit shed at the connection cap: one best-effort BUSY
           frame so the peer backs off instead of guessing, then close *)
        Obs.Metrics.incr m_refused;
        Obs.Eventlog.warn events "conn.refused"
          [ ("active", I (List.length !conns)) ];
        let frame =
          frame_bytes (Proto.encode_response (Proto.Resp_busy config.retry_after))
        in
        (try ignore (Unix.write_substring fd frame 0 (String.length frame))
         with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      in
      let accept_new () =
        match Unix.accept lsock with
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          ()
        | exception Unix.Unix_error _ -> ()
        | fd, _ ->
          if List.length !conns >= config.max_conns then refuse fd
          else begin
            Obs.Metrics.incr m_accepted;
            Unix.set_nonblock fd;
            conns :=
              {
                c_fd = fd;
                c_hdr = Bytes.create 4;
                c_hdr_got = 0;
                c_body = Bytes.empty;
                c_body_got = 0;
                c_body_len = -1;
                c_out = "";
                c_out_pos = 0;
                c_deadline = Unix.gettimeofday () +. config.conn_timeout;
                c_req_start = Float.nan;
                c_verb = "invalid";
                c_close_after_write = false;
                c_dead = false;
              }
              :: !conns
          end
      in
      let drain_deadline = ref 0.0 in
      let next_telemetry =
        ref
          (if ctx.telemetry = None then infinity
           else Unix.gettimeofday () +. config.telemetry_interval)
      in
      let rec loop () =
        if (stop_requested () || !draining) && !drain_deadline = 0.0 then begin
          draining := true;
          drain_deadline := Unix.gettimeofday () +. config.drain_grace;
          Obs.Eventlog.info events "draining"
            [
              ("in_flight", I (List.length !conns));
              ("grace", F config.drain_grace);
            ]
        end;
        if !draining && !listener_open then begin
          listener_open := false;
          (try Unix.close lsock with Unix.Unix_error _ -> ());
          (try Unix.unlink socket with Unix.Unix_error _ -> ())
        end;
        (* reap: deadline misses, and — during a drain — idle peers *)
        let now = Unix.gettimeofday () in
        List.iter
          (fun c ->
            if not c.c_dead then
              if now > c.c_deadline then kill ctx `Deadline c
              else if !draining && (not (mid_frame c)) && not (has_output c)
              then kill ctx `Clean c)
          !conns;
        conns := List.filter (fun c -> not c.c_dead) !conns;
        ctx.active_conns <- List.length !conns;
        if now >= !next_telemetry then begin
          telemetry_tick ctx now;
          next_telemetry := now +. config.telemetry_interval
        end;
        let finished =
          !draining && (!conns = [] || now > !drain_deadline)
        in
        if finished then ()
        else begin
          let readers =
            List.filter (fun c -> not (has_output c)) !conns
            |> List.map (fun c -> c.c_fd)
          in
          let writers =
            List.filter has_output !conns |> List.map (fun c -> c.c_fd)
          in
          let rds = if !listener_open then lsock :: readers else readers in
          (* wake for the nearest deadline so a stalled peer is cut
             promptly even on an otherwise idle daemon — and for the
             next telemetry tick, which must fire on an idle daemon too *)
          let tmo =
            List.fold_left
              (fun acc c -> Float.min acc (c.c_deadline -. now))
              (Float.min 0.25 (!next_telemetry -. now))
              !conns
            |> Float.max 0.01
          in
          (match Unix.select rds writers [] tmo with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | exception Unix.Unix_error _ -> ()
          | rd, wr, _ ->
            if !listener_open && List.memq lsock rd then accept_new ();
            ctx.active_conns <- List.length !conns;
            List.iter
              (fun c -> if List.memq c.c_fd rd then pump_read ctx ~drain c)
              !conns;
            List.iter
              (fun c -> if List.memq c.c_fd wr then pump_write ctx c)
              !conns);
          (* the age trigger only fires from this idle loop: the
             daemon is single-threaded by design *)
          (match Ingest.tick ctx.ingest with
          | Ok _ -> ()
          | Error e -> Obs.Eventlog.error events "flush.failed" [ ("error", S e) ]);
          loop ()
        end
      in
      loop ();
      List.iter (kill ctx `Clean) !conns;
      if !listener_open then begin
        (try Unix.close lsock with Unix.Unix_error _ -> ());
        try Unix.unlink socket with Unix.Unix_error _ -> ()
      end;
      (match Ingest.flush ingest with
      | Ok _ -> ()
      | Error e ->
        Obs.Eventlog.error events "final_flush.failed" [ ("error", S e) ]);
      (match Store.sync (Ingest.store ingest) with
      | Ok () -> ()
      | Error e -> Obs.Eventlog.error events "store_sync.failed" [ ("error", S e) ]);
      (* one last snapshot so the series ends with the final counts *)
      telemetry_tick ctx (Unix.gettimeofday ());
      (match ctx.telemetry with
      | Some w ->
        Obs.Timeseries.close_writer w;
        ctx.telemetry <- None
      | None -> ());
      Obs.Eventlog.info events "drain.done" [];
      Ok ())
