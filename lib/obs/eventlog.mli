(** Leveled, structured JSONL event logging for long-running
    processes.

    Each record is one complete JSON line written with a single
    [write] — records never interleave mid-line the way ad-hoc
    [eprintf] fragments can — and carries a per-log monotonic [seq],
    a wall-clock [ts] (seconds, microsecond precision), a [level],
    and an [event] kind, plus caller fields:

    {v {"seq":42,"ts":1754650000.123456,"level":"warn","event":"shed","label":"web-7"} v}

    Events below the log's minimum level are dropped without
    allocating (and without consuming a sequence number). *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string

(** One field value. *)
type field = S of string | I of int | F of float | B of bool

type t

val null : t
(** Drops everything. *)

val to_stderr : ?level:level -> unit -> t
(** JSONL to stderr — the daemon's default when no [--log FILE] is
    given. [level] defaults to [Info]. *)

val open_file : ?level:level -> string -> (t, string) result
(** Append-mode JSONL file. *)

val close : t -> unit

val seq : t -> int
(** The next sequence number (= events emitted so far). *)

val would_log : t -> level -> bool

val event : ?level:level -> t -> string -> (string * field) list -> unit
(** [event t kind fields] appends one record; [level] defaults to
    [Info]. *)

val debug : t -> string -> (string * field) list -> unit
val info : t -> string -> (string * field) list -> unit
val warn : t -> string -> (string * field) list -> unit
val error : t -> string -> (string * field) list -> unit
