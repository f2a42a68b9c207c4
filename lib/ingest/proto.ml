(* The profd wire protocol: u32-LE length-prefixed frames carrying a
   verb line plus an optional binary payload. See proto.mli for the
   grammar.

   The transport layer here is the chokepoint for every byte the fleet
   pipeline moves, so it carries the robustness obligations in one
   place: deadlines on every syscall, EINTR/EAGAIN retries, partial
   writes finished, and the deterministic fault plane consulted on
   each operation so chaos tests can corrupt either side at will. *)

type request =
  | Submit of { label : string; id : string option; payload : string }
  | Query_top of int
  | Query_report
  | Query_sreport
  | Query_stats
  | Query_metrics
  | Query_health
  | Flush
  | Compact
  | Shutdown

type response =
  | Resp_ok of string
  | Resp_busy of float
  | Resp_err of string

let max_frame = 64 * 1024 * 1024

let valid_label s =
  s <> "" && String.length s <= 256
  && not (String.exists (fun c -> c = '\n' || c = '\r') s)

let valid_id s =
  s <> "" && String.length s <= 64
  && String.for_all
       (fun c ->
         (c >= '0' && c <= '9')
         || (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || c = '_' || c = '.' || c = '-')
       s

(* One process-wide stream, seeded once: splitmix64 cannot repeat an
   output within a stream, so ids are unique per process, and the pid
   in the seed keeps concurrent processes apart. Seeding per call from
   time ⊕ counter is not safe — calls 1 µs and one increment apart can
   cancel to the same seed, and a colliding id silently overwrites a
   spool entry. *)
let id_rng =
  lazy
    (Util.Prng.create
       (int_of_float (Unix.gettimeofday () *. 1e6)
       lxor (Unix.getpid () lsl 40)))

let fresh_id () =
  Printf.sprintf "%016Lx" (Util.Prng.next64 (Lazy.force id_rng))

(* --- frame transport -------------------------------------------------- *)

type frame_error =
  | Eof
  | Timeout
  | Oversize of int
  | Torn of string

let frame_error_to_string = function
  | Eof -> "connection closed"
  | Timeout -> "IO deadline exceeded"
  | Oversize len ->
    Printf.sprintf "frame length %d exceeds the %d-byte cap" len max_frame
  | Torn msg -> msg

(* Wait until [fd] is ready for [kind], bounded by the absolute
   [deadline]. Blocking fds normally never need this, but it is what
   turns EAGAIN/EWOULDBLOCK (and slow peers, once a deadline is set)
   from hangs into structured errors. *)
let await kind fd deadline =
  let rec go () =
    let tmo =
      match deadline with
      | None -> -1.0 (* wait forever *)
      | Some d -> d -. Unix.gettimeofday ()
    in
    if tmo <= 0.0 && deadline <> None then Error Timeout
    else
      let r, w = match kind with `R -> ([ fd ], []) | `W -> ([], [ fd ]) in
      match Unix.select r w [] tmo with
      | [], [], _ -> if deadline = None then go () else Error Timeout
      | _ -> Ok ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (e, _, _) -> Error (Torn (Unix.error_message e))
  in
  go ()

let rec write_all ?deadline fd bytes off len =
  if len = 0 then Ok ()
  else begin
    Faultplane.delay ();
    if Faultplane.fail_write () then
      Error (Torn "injected EPIPE: peer reset the connection")
    else
      match Unix.write fd bytes off (Faultplane.clamp_io len) with
      | n -> write_all ?deadline fd bytes (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        write_all ?deadline fd bytes off len
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
        match await `W fd deadline with
        | Ok () -> write_all ?deadline fd bytes off len
        | Error e -> Error e)
      | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
        Error (Torn "peer closed the connection mid-write (EPIPE)")
      | exception Unix.Unix_error (e, _, _) -> Error (Torn (Unix.error_message e))
  end

let rec read_all ?deadline fd bytes off len =
  if len = 0 then Ok ()
  else begin
    Faultplane.delay ();
    if Faultplane.fail_read () then
      Error (Torn "injected ECONNRESET: peer reset the connection")
    else
      match Unix.read fd bytes off (Faultplane.clamp_io len) with
      | 0 ->
        Error
          (Torn
             (Printf.sprintf "connection closed with %d byte(s) missing" len))
      | n -> read_all ?deadline fd bytes (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        read_all ?deadline fd bytes off len
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
        match await `R fd deadline with
        | Ok () -> read_all ?deadline fd bytes off len
        | Error e -> Error e)
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
        Error (Torn "peer reset the connection (ECONNRESET)")
      | exception Unix.Unix_error (e, _, _) -> Error (Torn (Unix.error_message e))
  end

let write_frame ?deadline fd body =
  let len = String.length body in
  if len > max_frame then Error (Oversize len)
  else begin
    let b = Bytes.create (4 + len) in
    Bytes.set_int32_le b 0 (Int32.of_int len);
    Bytes.blit_string body 0 b 4 len;
    match Faultplane.tear_frame (4 + len) with
    | Some n ->
      (* a torn frame on the wire: emit a prefix, then "die" *)
      ignore (write_all ?deadline fd b 0 n);
      Error (Torn "injected torn frame: writer died mid-frame")
    | None -> write_all ?deadline fd b 0 (4 + len)
  end

let read_frame ?deadline fd =
  let hdr = Bytes.create 4 in
  (* distinguish a clean close (EOF before any header byte) from a
     torn one (EOF with a frame in flight) *)
  let first =
    Faultplane.delay ();
    if Faultplane.fail_read () then
      Error (Torn "injected ECONNRESET: peer reset the connection")
    else
      match await `R fd deadline with
      | Error e -> Error e
      | Ok () -> (
        match Unix.read fd hdr 0 (Faultplane.clamp_io 4) with
        | 0 -> Error Eof
        | n -> Ok n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> Ok 0
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Ok 0
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
          Error (Torn "peer reset the connection (ECONNRESET)")
        | exception Unix.Unix_error (e, _, _) ->
          Error (Torn (Unix.error_message e)))
  in
  match first with
  | Error e -> Error e
  | Ok n -> (
    match read_all ?deadline fd hdr n (4 - n) with
    | Error e -> Error e
    | Ok () -> (
      let len = Int32.to_int (Bytes.get_int32_le hdr 0) in
      if len < 0 || len > max_frame then Error (Oversize len)
      else
        let body = Bytes.create len in
        match read_all ?deadline fd body 0 len with
        | Error e -> Error e
        | Ok () -> Ok (Bytes.unsafe_to_string body)))

(* --- body codecs ------------------------------------------------------ *)

let encode_request = function
  | Submit { label; id = None; payload } ->
    Printf.sprintf "SUBMIT %s\n%s" label payload
  | Submit { label; id = Some id; payload } ->
    Printf.sprintf "SUBMIT %s %s\n%s" label id payload
  | Query_top n -> Printf.sprintf "QUERY top %d\n" n
  | Query_report -> "QUERY report\n"
  | Query_sreport -> "QUERY sreport\n"
  | Query_stats -> "QUERY stats\n"
  | Query_metrics -> "QUERY metrics\n"
  | Query_health -> "QUERY health\n"
  | Flush -> "FLUSH\n"
  | Compact -> "COMPACT\n"
  | Shutdown -> "SHUTDOWN\n"

let split_verb_line body =
  match String.index_opt body '\n' with
  | None -> (body, "")
  | Some i ->
    (String.sub body 0 i, String.sub body (i + 1) (String.length body - i - 1))

let decode_request body =
  let line, payload = split_verb_line body in
  let submit label id =
    if not (valid_label label) then
      Error (Printf.sprintf "invalid label %S" label)
    else
      match id with
      | Some i when not (valid_id i) ->
        Error (Printf.sprintf "invalid submission id %S" i)
      | _ -> Ok (Submit { label; id; payload })
  in
  match String.split_on_char ' ' line with
  | [ "SUBMIT"; label ] -> submit label None
  | [ "SUBMIT"; label; id ] -> submit label (Some id)
  | [ "QUERY"; "top"; n ] -> (
    match int_of_string_opt n with
    | Some n when n >= 1 && n <= 1_000_000 -> Ok (Query_top n)
    | _ -> Error (Printf.sprintf "invalid top count %S" n))
  | [ "QUERY"; "report" ] -> Ok Query_report
  | [ "QUERY"; "sreport" ] -> Ok Query_sreport
  | [ "QUERY"; "stats" ] -> Ok Query_stats
  | [ "QUERY"; "metrics" ] -> Ok Query_metrics
  | [ "QUERY"; "health" ] -> Ok Query_health
  | [ "FLUSH" ] -> Ok Flush
  | [ "COMPACT" ] -> Ok Compact
  | [ "SHUTDOWN" ] -> Ok Shutdown
  | _ -> Error (Printf.sprintf "unknown request %S" line)

let encode_response = function
  | Resp_ok payload -> "OK\n" ^ payload
  | Resp_busy retry_after -> Printf.sprintf "BUSY %.3f\n" retry_after
  | Resp_err msg ->
    Printf.sprintf "ERR %s\n" (String.map (function '\n' -> ' ' | c -> c) msg)

let decode_response body =
  let line, payload = split_verb_line body in
  if line = "OK" then Ok (Resp_ok payload)
  else
    match String.index_opt line ' ' with
    | Some 4 when String.sub line 0 4 = "BUSY" -> (
      match float_of_string_opt (String.sub line 5 (String.length line - 5)) with
      | Some retry_after when retry_after >= 0.0 -> Ok (Resp_busy retry_after)
      | _ -> Error (Printf.sprintf "malformed BUSY response %S" line))
    | Some 3 when String.sub line 0 3 = "ERR" ->
      Ok (Resp_err (String.sub line 4 (String.length line - 4)))
    | _ -> Error (Printf.sprintf "malformed response line %S" line)

(* --- client side ------------------------------------------------------ *)

(* A daemon at its connection cap answers BUSY and closes without
   reading the request, so the request's write can meet a closed
   socket. That is a torn frame [rpc] backs off from, not a SIGPIPE
   that kills the client: the first connection ignores the signal for
   the rest of the process. *)
let ignore_sigpipe = lazy (Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

let rpc_once ~timeout ~socket req =
  Lazy.force ignore_sigpipe;
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let deadline = Unix.gettimeofday () +. timeout in
        match Unix.connect fd (Unix.ADDR_UNIX socket) with
        | exception Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "%s: %s" socket (Unix.error_message e))
        | () -> (
          match write_frame ~deadline fd (encode_request req) with
          | Error e -> Error (frame_error_to_string e)
          | Ok () -> (
            match read_frame ~deadline fd with
            | Error e -> Error (frame_error_to_string e)
            | Ok body -> decode_response body)))

(* Capped exponential backoff with jitter: attempt k sleeps
   min(2s, 50ms * 2^k) scaled into [0.5, 1.0) by a PRNG seeded from
   the request. A [Submit] with an id seeds from the id's FNV-1a hash,
   so a replayed submission sleeps the same schedule while clients
   answered BUSY at the same moment, holding different ids, retry
   apart; any other request draws its seed from the process-wide id
   stream. *)
let backoff_schedule req n =
  if n <= 0 then []
  else
    let prng =
      Util.Prng.create
        (Int64.to_int
           (match req with
           | Submit { id = Some id; _ } -> Util.Fnv.fnv1a64 id
           | _ -> Util.Prng.next64 (Lazy.force id_rng)))
    in
    let rec from k =
      if k >= n then []
      else
        let base = Float.min 2.0 (0.05 *. Float.pow 2.0 (float_of_int k)) in
        let d = base *. (0.5 +. (0.5 *. Util.Prng.float prng 1.0)) in
        d :: from (k + 1)
    in
    from 0

let rpc ?(attempts = 1) ?(timeout = 30.0) ~socket req =
  let attempts = max 1 attempts in
  let delays = Array.of_list (backoff_schedule req (attempts - 1)) in
  let sleep d = if d > 0.0 then ignore (Unix.select [] [] [] d) in
  let rec attempt k =
    let outcome = rpc_once ~timeout ~socket req in
    let last = k >= attempts - 1 in
    match outcome with
    | Ok (Resp_busy retry_after) when not last ->
      (* the daemon is shedding load: its retry-after is the floor *)
      sleep (Float.max retry_after delays.(k));
      attempt (k + 1)
    | Error _ when not last ->
      sleep delays.(k);
      attempt (k + 1)
    | outcome -> outcome
  in
  attempt 0

let wait_ready ~socket ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec poll pause =
    match rpc ~timeout:(Float.max 1.0 timeout) ~socket Query_stats with
    | Ok (Resp_ok _) -> Ok ()
    | Ok (Resp_busy _) -> Ok () (* overloaded is still alive *)
    | Ok (Resp_err e) -> Error (Printf.sprintf "daemon answered with: %s" e)
    | Error e ->
      if Unix.gettimeofday () >= deadline then
        Error (Printf.sprintf "daemon not ready after %.1fs: %s" timeout e)
      else begin
        ignore (Unix.select [] [] [] pause);
        poll (Float.min 0.25 (pause *. 2.0))
      end
  in
  poll 0.01
