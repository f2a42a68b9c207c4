(** The profd wire protocol: length-prefixed frames over a
    Unix-domain stream socket.

    Every message — request or response — is one frame:

    {v
      +----------------+---------------------+
      | u32 LE length  |  body (length bytes)|
      +----------------+---------------------+
    v}

    A request body is a verb line terminated by ['\n'], optionally
    followed by a binary payload (the rest of the frame):

    {v
      SUBMIT <label>[ <id>]\n<bytes>   ingest one profile (gmon or sprof)
      QUERY top <n>\n                  top-N buckets by self ticks
      QUERY report\n                   the merged profile, as gmon bytes
      QUERY sreport\n                  the merged sampled profile, as sprof bytes
      QUERY stats\n                    store + queue statistics, JSON
      QUERY metrics\n                  the daemon's full metrics registry, JSON
      QUERY health\n                   uptime, queue, conns, shards, version, JSON
      FLUSH\n                          force the ingest queue to the store
      COMPACT\n                        fold every shard's tail
      SHUTDOWN\n                       drain, flush, then stop serving
    v}

    The optional submission [id] makes retries safe: a daemon remembers
    recently seen ids and acknowledges a duplicate without ingesting it
    again, so a client whose response frame was lost can resend without
    double-counting the profile.

    A response body is a status line, then a payload:

    {v
      OK\n<payload>
      BUSY <retry_after>\n             overloaded: retry after that many seconds
      ERR <message>\n
    v}

    Labels must be non-empty and newline-free. Frames are capped at
    {!max_frame} bytes so a corrupt or hostile length prefix cannot
    make either side allocate unboundedly.

    The transport layer retries [EINTR] and [EAGAIN]/[EWOULDBLOCK],
    finishes partial writes, honors an absolute deadline on every
    syscall, and consults {!Faultplane} so chaos tests can inject
    short reads, resets, and torn frames deterministically. *)

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
  | Resp_busy of float  (** overloaded; retry after this many seconds *)
  | Resp_err of string

val max_frame : int
(** 64 MiB. *)

val valid_label : string -> bool

val valid_id : string -> bool
(** Non-empty, at most 64 bytes of [[0-9a-zA-Z_.-]]. *)

val fresh_id : unit -> string
(** A new submission id, unique per process per call. *)

(** {1 Frame transport} *)

type frame_error =
  | Eof  (** the peer closed cleanly before any byte of this frame *)
  | Timeout  (** the deadline passed with the frame incomplete *)
  | Oversize of int  (** length prefix beyond {!max_frame} *)
  | Torn of string  (** mid-frame close, reset, or transport failure *)

val frame_error_to_string : frame_error -> string

val write_frame :
  ?deadline:float -> Unix.file_descr -> string -> (unit, frame_error) result
(** [deadline] is absolute ([Unix.gettimeofday]-based); omitted means
    wait forever. Partial writes are completed; [EINTR] and
    [EAGAIN]/[EWOULDBLOCK] are retried (waiting for writability, up to
    the deadline). *)

val read_frame :
  ?deadline:float -> Unix.file_descr -> (string, frame_error) result
(** [Error Eof] when the peer closed between frames — the clean end of
    a connection; every other error is abnormal. *)

(** {1 Body codecs} *)

val encode_request : request -> string

val decode_request : string -> (request, string) result

val encode_response : response -> string

val decode_response : string -> (response, string) result

(** {1 Client side} *)

val rpc :
  ?attempts:int ->
  ?timeout:float ->
  socket:string ->
  request ->
  (response, string) result
(** Connect to a daemon, send one request, read one response, close.
    [timeout] (default 30 s) bounds each attempt's IO; [attempts]
    (default 1) adds capped exponential backoff with jitter between
    attempts ({!backoff_schedule}), retrying transport failures and
    [Resp_busy] answers — a [Resp_busy]'s [retry_after] floor is
    honored. Retrying a [Submit] is safe when it carries an id (the
    daemon dedupes). The final attempt's
    [Resp_busy] is returned as-is so the caller can degrade (e.g.
    spool). [Error] carries connect/transport failures; a daemon-side
    failure arrives as [Resp_err]. The first call sets SIGPIPE to
    ignored for the process, so a write to a daemon that closed the
    connection (as it does at its connection cap) is a transport
    failure, not the death of the client. *)

val backoff_schedule : request -> int -> float list
(** The first [n] delays, in seconds, that {!rpc} sleeps between its
    attempts at this request, before any [retry_after] floor. A
    [Submit] with an id draws its jitter from the id, so the same id
    gets the same schedule and different ids get different ones; any
    other request gets a fresh schedule from the process-wide id
    stream on each call. *)

val wait_ready : socket:string -> timeout:float -> (unit, string) result
(** Poll {!rpc}[ Query_stats] with bounded backoff (10 ms doubling to
    250 ms) until the daemon answers or [timeout] seconds elapse. *)
