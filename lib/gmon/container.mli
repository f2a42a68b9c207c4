(** The container layer every data file of this library is written in.

    {b Framing.} A file is a versioned magic string, a body of
    little-endian 64-bit integers, and a 16-byte footer: the tag
    ["GMCKSUM1"] and the FNV-1a-64 ({!Util.Fnv}) of everything before
    it. A file whose footer is absent or wrong is torn or corrupt.

    {b Decoding.} A {!cursor} walks the body. A failed read or check
    raises one located {!Report.decode_error}: the byte offset, what was
    being read (["header field runs"], ["epoch 3 bucket delta"]) and
    why. Contexts are formatted only when a read fails.

    {b Strict and salvage.} [`Strict] refuses any damage: a missing or
    wrong checksum, a short read, an invalid record, trailing bytes.
    [`Salvage] keeps what it can prove: the header must be intact (the
    magic, and every header field a family declares), and past it each
    family applies its own policy to the damaged record (zero-fill,
    drop the record, drop the rest of the table); losses land in the
    {!Report.report} and the family's metrics. Salvage never invents
    data under truncation, and a result always passes the family's
    [validate]. A flipped byte inside the body is detected by the
    checksum but cannot be located, so a salvaged value can differ from
    what was written: the report then says [`Mismatch].

    {b Files.} Saves go through a temp file and a rename; loads read the
    whole file and decode it. Both are traced under the ["gmon"] span
    category and counted in the family's metrics, except for
    instruction counts, which publish neither. *)

(** The decode vocabulary re-exported by {!Gmon}. *)
module Report : sig
  type mode = [ `Strict | `Salvage ]

  type decode_error = {
    de_path : string option;
    de_offset : int;
    de_context : string;
    de_msg : string;
  }

  val decode_error_to_string : decode_error -> string
  val pp_decode_error : Format.formatter -> decode_error -> unit

  type checksum_state = [ `Ok | `Missing | `Mismatch ]

  type report = {
    r_checksum : checksum_state;
    r_dropped_buckets : int;
    r_dropped_arcs : int;
    r_dropped_bytes : int;
    r_notes : string list;
  }

  val lossless_report : report
  val report_degraded : report -> bool
  val report_summary : report -> string
end

open Report

(** {1 Framing} *)

val add_footer : Buffer.t -> unit
(** Append the footer tag and the checksum of the buffer so far. *)

val split_footer : string -> checksum_state * int
(** The footer's state and the body length (the whole string when the
    footer is missing). *)

val put : Buffer.t -> int -> unit
(** One little-endian 64-bit field. *)

(** {1 Emission} *)

val inject_torn_save : int option -> unit
(** See {!Gmon.inject_torn_save}. *)

val write_file_atomic : what:string -> string -> string -> (unit, string) result
(** Temp-and-rename write; honours {!inject_torn_save}. *)

(** {1 The cursor} *)

exception Bad of decode_error

type cursor = {
  s : string;
  path : string option;
  mode : mode;
  stop : int;  (** end of the body *)
  mutable pos : int;
  mutable notes : string list;  (** salvage notes, newest first *)
  mutable lost_buckets : int;
  mutable lost_records : int;  (** the report's [r_dropped_arcs] *)
  mutable lost_bytes : int;
}

val fail :
  cursor -> offset:int -> context:string -> ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Bad} at [offset]. *)

val bad : cursor -> int -> string -> ('a, unit, string, 'b) format4 -> 'a
(** [bad c back context]: fail on the field that starts [back] bytes
    behind the cursor. *)

val note : cursor -> ('a, unit, string, unit) format4 -> 'a
(** Record a salvage note. *)

val strict : cursor -> bool

val get : cursor -> int
(** The next field, unchecked: only after the caller proved it fits. *)

val int : cursor -> string -> int
(** The next field; a short read fails with the given context. *)

val field : cursor -> string -> int
(** A header field: {!int} with context ["header field <name>"]. *)

val ctx : string -> int -> string -> string
(** [ctx what i field] is ["<what> <i><field>"]. *)

val int_at : cursor -> string -> int -> string -> int
(** {!int} with context [ctx what i field], built only on failure. *)

val count : cursor -> string -> max:int -> int
(** A table size; fails ["absurd value"] outside [\[0, max\]]. *)

val finish : cursor -> unit
(** The body must end here: strict fails on trailing bytes, salvage
    counts and skips them. Idempotent. *)

(** {1 Salvage} *)

val salvage : cursor -> (unit -> unit) -> damaged:(decode_error -> unit) -> unit
(** Run the reader; in salvage mode a failure inside it goes to
    [damaged] and the cursor skips to the end of the body. *)

val records :
  cursor -> int -> (int -> 'a) -> lost:(decode_error -> int -> unit) -> 'a list
(** [records c n read]: [n] records, whole or not at all. In salvage
    mode a failure inside record [k] keeps records [0..k-1], charges
    the bytes from record [k] on to the report and calls [lost e k]. *)

val collapse :
  compare:('a -> 'a -> int) -> combine:('a -> 'a -> 'a) -> 'a list -> 'a list
(** Combine runs of equal adjacent entries, left to right. *)

val canonical :
  cursor ->
  compare:('a -> 'a -> int) ->
  context:string ->
  refuse:string ->
  repair:string ->
  'a list ->
  'a list
(** A table must be strictly sorted. Strict refuses ([context],
    [refuse]); salvage notes [repair], re-sorts, and keeps the first of
    each duplicate key, counting the rest as lost records. *)

(** {1 Summing} *)

val iter_pairs : (int -> 'a -> 'a -> unit) -> 'a list -> unit
(** [f i a b] on every adjacent pair, [i] counting from 0. *)

val union :
  compare:('a -> 'a -> int) -> add:('a -> 'a -> 'a) -> 'a list -> 'a list -> 'a list
(** Merge two sorted tables with unique keys, adding on collision. *)

val merge_all :
  empty:string -> ('a -> 'a -> ('a, string) result) -> 'a list -> ('a, string) result
(** Balanced pairwise merging; [Error empty] on an empty list. *)

(** {1 Metrics} *)

type metrics = {
  bytes_written : Obs.Metrics.counter;
  bytes_read : Obs.Metrics.counter;
  files_loaded : Obs.Metrics.counter;
  files_saved : Obs.Metrics.counter;
  merges : Obs.Metrics.counter;
  merged : Obs.Metrics.counter;
  decode_errors : Obs.Metrics.counter;
  checksum_mismatches : Obs.Metrics.counter;
  salvaged_files : Obs.Metrics.counter;
  dropped_buckets : Obs.Metrics.counter option;
  dropped_records : Obs.Metrics.counter;
  dropped_bytes : Obs.Metrics.counter;
}

val counter : ?help:string -> string -> Obs.Metrics.counter
(** A counter in the default registry. *)

val metrics :
  prefix:string -> records:string -> buckets:bool -> (string * string) list -> metrics
(** A family's counters, named [prefix ^ field] ([records] names its
    table entries: ["arcs_merged"], ["salvage.dropped_arcs"]), with help
    strings by field. *)

val merge_tables :
  metrics ->
  compare:('a -> 'a -> int) ->
  add:('a -> 'a -> 'a) ->
  'a list ->
  'a list ->
  'a list
(** {!union}, counted as one merge with its key collisions. *)

(** {1 Schemas} *)

(** What a family declares: its magic and names, its traces and
    metrics ([None]: untraced, unmetered), and its body codec. *)
module type SCHEMA = sig
  type t

  val magic : string

  val noun : string
  (** the magic error's "not <noun>" *)

  val what : string
  (** the save error's "cannot save <what>" *)

  val span : string option
  (** spans ["<span>-save"] and ["<span>-load"] *)

  val metrics : metrics option
  val write : Buffer.t -> t -> unit
  val read : cursor -> t
end

(** The codec and file layer of a family. *)
module Make (S : SCHEMA) : sig
  val sniff_bytes : string -> bool
  val sniff_file : string -> bool
  val to_bytes : S.t -> string

  val decode :
    ?path:string -> mode:mode -> string -> (S.t * report, decode_error) result

  val of_bytes : string -> (S.t, string) result
  val save : S.t -> string -> (unit, string) result
  val load_report : ?mode:mode -> string -> (S.t * report, decode_error) result
  val load : ?mode:mode -> string -> (S.t, string) result
end
