(** The profile data file — our [gmon.out].

    "Our solution is to gather profiling data in memory during program
    execution and to condense it to a file as the profiled program
    exits." The condensed file holds (1) the program-counter histogram,
    summarized as bounds, a step size, and one counter per bucket, and
    (2) the traversed call-graph arcs as (call site, callee, count)
    records.

    "An advantage of this approach is that the profile data for
    several executions of a program can be combined by the
    post-processing to provide a profile of many executions" —
    {!merge} implements that summing (gprof's [-s]). *)

type hist = {
  h_lowpc : int;  (** first text address covered *)
  h_highpc : int;  (** one past the last covered address *)
  h_bucket_size : int;  (** addresses per bucket, >= 1 *)
  h_counts : int array;
      (** clock ticks observed per bucket;
          length = ceil((highpc-lowpc)/bucket_size) *)
}

type arc = {
  a_from : int;  (** the call site: address of the call instruction *)
  a_self : int;  (** the callee: its entry address *)
  a_count : int;  (** traversals observed *)
}

val compare_arc : arc -> arc -> int
(** The order of a profile's [arcs]: by [a_from], then [a_self];
    counts are not compared. *)

type t = {
  hist : hist;
  arcs : arc list;  (** sorted by (from, self); no duplicates *)
  ticks_per_second : int;  (** clock rate the histogram was sampled at *)
  cycles_per_tick : int;  (** simulated cycles per clock tick *)
  runs : int;  (** number of executions summed into this profile *)
}

val n_buckets : lowpc:int -> highpc:int -> bucket_size:int -> int

val make_hist : lowpc:int -> highpc:int -> bucket_size:int -> hist
(** Zeroed histogram. @raise Invalid_argument on a nonpositive bucket
    size or an empty/negative pc range. *)

val bucket_of_pc : hist -> int -> int option
(** Bucket index for a pc, or [None] if outside [\[lowpc, highpc)]. *)

val bucket_range : hist -> int -> int * int
(** [bucket_range h i] is the address interval
    [\[lo, hi)] covered by bucket [i], clipped to [highpc]. *)

val iter_overlapping : hist -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [iter_overlapping h ~lo ~hi f] calls [f i count] on every bucket
    [i] whose {!bucket_range} intersects [\[lo, hi)], in ascending
    order: the buckets a scan of the whole histogram would find, at a
    cost proportional to their number. Visits nothing when the bucket
    size is not positive. *)

val total_ticks : t -> int

val seconds_of_ticks : t -> int -> float
(** Convert a tick count to (simulated) seconds at this profile's
    clock rate. *)

val total_seconds : t -> float

val arc_count_into : t -> int -> int
(** Sum of arc counts whose callee entry is the given address. *)

val validate : t -> (unit, string list) result
(** Check invariants: histogram shape consistent, counts nonnegative,
    arcs sorted and unique with nonnegative counts, positive clock
    rates, [runs >= 1]. *)

val mergeable : t -> t -> (unit, string) result
(** [Ok ()] when the two profiles share a layout: histogram bounds,
    bucket size, clock rate and cycle rate. Otherwise the [Error]
    {!merge} returns. *)

val merge : t -> t -> (t, string) result
(** Sum two profiles of the {e same} executable: they must be
    {!mergeable}, otherwise [Error]. Histogram counters add; arcs
    union with counts added; [runs] add. Commutative and associative
    (tested). *)

val merge_all : t list -> (t, string) result
(** Sum a non-empty list by balanced pairwise merging: adjacent pairs
    are merged until one profile remains. Because {!merge} is an exact
    integer sum, the tree shape cannot change the result — the outcome
    is [Gmon.equal] to any left fold of {!merge} (tested) — but the
    balanced tree avoids replaying the accumulated arc union against
    every input. The profile store's compaction uses this same path. *)

(** {1 Fault-tolerant serialization}

    The interesting profiles come from the runs that died: a profiled
    program killed mid-exit leaves a torn [gmon.out]. Every data file
    here shares one framing (see {!Wire}): a checksum footer makes torn
    or bit-flipped writes detectable, decoding reports structured
    errors with byte offsets, and salvage mode recovers the valid
    prefix instead of rejecting the file. *)

type mode = [ `Strict | `Salvage ]
(** [`Strict] rejects any damage (missing/mismatched checksum,
    truncation, invalid records) with an offset-bearing error.
    [`Salvage] recovers what it can: missing buckets are zero-filled
    (the geometry is kept so the result still passes {!validate}),
    partial or invalid arc records are dropped, trailing bytes are
    ignored. Under truncation salvage never invents data: the result
    is a sub-profile of the intact file. A flipped byte inside the body
    is caught by the checksum ([r_checksum = `Mismatch]) but cannot be
    located, so it can change a value that salvage then keeps. A
    damaged header is unrecoverable in either mode: the magic, the
    geometry, the clock rates, [runs], and the stored bucket count,
    which must agree with the geometry. *)

type decode_error = {
  de_path : string option;  (** set by {!load}/{!load_report} *)
  de_offset : int;  (** byte position of the failure *)
  de_context : string;  (** what was being decoded *)
  de_msg : string;  (** reason, with expected vs. actual sizes *)
}

val decode_error_to_string : decode_error -> string

type checksum_state = [ `Ok | `Missing | `Mismatch ]

type report = {
  r_checksum : checksum_state;
  r_dropped_buckets : int;  (** buckets zero-filled or repaired *)
  r_dropped_arcs : int;  (** arc records dropped *)
  r_dropped_bytes : int;  (** unparseable bytes skipped *)
  r_notes : string list;  (** human diagnostics, in file order *)
}
(** What a decode left behind. Salvage losses are also published to
    the default {!Obs.Metrics} registry ([gmon.salvage.*],
    [gmon.checksum_mismatches], [gmon.decode_errors]). *)

val report_degraded : report -> bool
(** True when anything was dropped, repaired, or unverifiable. *)

val report_summary : report -> string
(** One-line rendering of the losses; [""] for a lossless decode. *)

val decode :
  ?path:string -> mode:mode -> string -> (t * report, decode_error) result

val to_bytes : t -> string
(** Binary serialization (magic ["GMONOCAML1\n"], little-endian
    fixed-width fields, checksum footer). *)

val of_bytes : string -> (t, string) result
(** Strict {!decode} with the error rendered as a string. *)

val save : t -> string -> (unit, string) result
(** Crash-safe write: the encoding goes to [path ^ ".tmp"] and is
    renamed into place, so a crash leaves the old file or the new one,
    never a torn hybrid. [Error] (never an exception) on an unwritable
    path. *)

val inject_torn_save : int option -> unit
(** Fault injection for the emission path: [Some n] makes the {e next}
    save (of a profile or instruction counts) write only the first [n]
    bytes directly to the final path and return [Error] — deliberately
    producing the torn file a non-atomic writer leaves when the
    process dies mid-condense. One-shot; [None] cancels. *)

val load : ?mode:mode -> string -> (t, string) result
(** Read and {!decode} a file; the error string carries the path and
    byte offset. [mode] defaults to [`Strict]. *)

val load_report : ?mode:mode -> string -> (t * report, decode_error) result

(** {1 Quarantined summing} *)

type quarantined = { q_path : string; q_reason : string }

val merge_all_quarantine :
  (string * (t, string) result) list -> (t * quarantined list, string) result
(** Quarantine variant of {!merge_all} over per-file decode results:
    undecodable files — and files that refuse to merge with the
    accumulated sum (layout or clock mismatch) — are skipped and
    returned with per-file diagnostics instead of failing the batch.
    [Error] only when no file is usable at all. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Debug rendering: header summary plus nonzero buckets and arcs. *)

type profile = t
(** Alias so submodules ({!Epoch}) can name the profile record while
    defining their own [t]. *)

(** {1 Wire helpers}

    The framing every data file here shares, described once in
    [lib/gmon/container.mli]: versioned magic, little-endian 64-bit
    fields, a footer of the tag ["GMCKSUM1"] and the FNV-1a-64
    ({!Util.Fnv}) of the body, and the crash-safe temp-and-rename
    writer. Exposed so other files (the store manifest) frame alike. *)
module Wire : sig
  val add_footer : Buffer.t -> unit
  (** Append the footer tag and the checksum of everything currently
      in the buffer. *)

  val split_footer : string -> checksum_state * int
  (** Verify the footer; returns its state and the byte length of the
      body (the whole string when the footer is missing). *)

  val write_file_atomic :
    what:string -> string -> string -> (unit, string) result
  (** [write_file_atomic ~what path data]: temp-and-rename write, like
      {!Gmon.save}; honours {!inject_torn_save}. *)
end

(** Exact per-address execution counts; see the module comment in the
    interface below. *)
module Icount : sig
  (** Exact per-address execution counts — the companion data file for
      basic-block/line-level counting.

      The paper distinguishes profiles "that present counts of statement
      or routine invocations" from timing profiles (§2); statement
      counts come from "inline increments to counters". Our VM gathers
      them as one counter per text address; this module condenses them
      to a file the way the arc table and histogram are condensed to
      the gmon file (only nonzero entries are stored). *)

  type t = {
    text_size : int;
    counts : int array;  (** length [text_size] *)
  }

  val of_counts : int array -> t

  val count : t -> int -> int
  (** Count at an address. @raise Invalid_argument when out of range. *)

  val merge : t -> t -> (t, string) result
  (** Element-wise sum; [Error] on size mismatch (different binaries). *)

  val to_bytes : t -> string
  (** Sparse little-endian encoding with the same checksum footer as
      the profile format. *)

  val of_bytes : string -> (t, string) result
  (** Strict decode; error messages carry byte offsets and expected
      vs. actual sizes. *)

  val save : t -> string -> (unit, string) result
  (** Crash-safe temp-and-rename write, like {!Gmon.save}; honours
      {!Gmon.inject_torn_save}. *)

  val load : string -> (t, string) result
  (** Error messages carry the file path. *)

  val equal : t -> t -> bool

end

(** Multi-epoch profile containers — the timeline data file.

    A single gmon file condenses a whole run into one histogram and
    one arc table, erasing {e when} the time was spent — exactly the
    limitation the 2003 retrospective names (relating profile data
    back to program phases). The epoch container keeps a sequence of
    {e interval} profiles, one per wall-clock window of N simulated
    ticks: each epoch holds the ticks and arc traversals observed
    {e during} that window (the delta of the live counters between two
    boundaries), so summing all epochs reproduces the whole-run
    profile exactly ({!Epoch.sum}, tested bit-identical).

    On disk the histogram deltas are stored sparsely (only nonzero
    buckets), so K epochs of a mostly-idle histogram cost far less
    than K full files. Framing is shared ({!Wire}); [`Salvage]
    recovers the valid prefix of whole epochs from a torn file. *)
module Epoch : sig
  type entry = {
    ep_end_cycle : int;  (** simulated cycle count at the boundary *)
    ep_end_tick : int;  (** clock tick count at the boundary *)
    ep_counts : int array;
        (** ticks observed during this epoch, one per bucket (full
            array in memory; sparse on disk) *)
    ep_arcs : arc list;
        (** traversals during this epoch, sorted by (from, self),
            no duplicates, counts nonnegative *)
  }

  type t = {
    e_lowpc : int;
    e_highpc : int;
    e_bucket_size : int;
    e_ticks_per_second : int;
    e_cycles_per_tick : int;
    e_epochs : entry list;  (** chronological *)
  }

  val n_epochs : t -> int

  val validate : t -> (unit, string list) result
  (** Geometry sane, every epoch's bucket array matches it, arcs
      sorted/unique/nonnegative, boundaries non-decreasing. *)

  val profile_of : t -> entry -> profile
  (** The interval profile of one epoch ([runs = 1]). *)

  val nth : t -> int -> (entry, string) result
  (** 1-based epoch lookup; [Error] names the valid range. *)

  val sum : t -> (profile, string) result
  (** Add every epoch's deltas back together: bit-identical to the
      single-run profile the same execution would have condensed
      ([runs = 1]). [Error] on an empty container. *)

  val to_bytes : t -> string

  val of_bytes : string -> (t, string) result
  (** Strict decode with the error rendered as a string. *)

  val decode :
    ?path:string -> mode:mode -> string -> (t * report, decode_error) result
  (** [`Salvage] recovers whole epochs: a failure inside epoch k drops
      epochs k.. (never a partial epoch — salvage never invents data);
      losses land in the report's notes and byte counts and in the
      [gmon.salvage.*] metrics. A damaged header is unrecoverable in
      either mode. *)

  val save : t -> string -> (unit, string) result
  (** Crash-safe temp-and-rename write; honours
      {!Gmon.inject_torn_save}. *)

  val load : ?mode:mode -> string -> (t, string) result

  val load_report : ?mode:mode -> string -> (t * report, decode_error) result

  val sniff_bytes : string -> bool
  (** True when the string starts with the epoch-container magic. *)

  val sniff_file : string -> bool
  (** {!sniff_bytes} on the first bytes of a file; false on any IO
      error. *)

  val equal : t -> t -> bool
end

(** Sampled call-stack profiles — the sprof data file.

    The second observability pipeline: where the gmon file condenses a
    run into a PC histogram plus isolated call-graph arcs (and the
    analyzer must {e propagate} time under the average-cost
    assumption, PAPER.md §6), the sprof file stores what the
    retrospective's "modern profiler" gathers — complete call stacks,
    interned: each distinct stack once, with the number of samples
    that hit it, plus the sampling interval and clock rates needed to
    convert counts back to seconds. Inclusive/exclusive times fall out
    by direct counting, with no propagation step at all.

    The table is kept in a canonical order (lexicographic by frame
    addresses, {!Sprof.compare_stack}) so that summing is not just
    commutative and associative but {e canonical}: any merge order of
    the same inputs serializes to byte-identical files — the property
    the fleet gate checks with [cmp] between a live daemon's answer
    and an offline merge. Framing is shared ({!Wire}); [`Salvage]
    recovers the valid prefix of whole stack records from a torn file. *)
module Sprof : sig
  type t = {
    sp_sample_interval : int;  (** clock ticks between samples, >= 1 *)
    sp_ticks_per_second : int;
    sp_cycles_per_tick : int;
    sp_runs : int;  (** executions summed into this profile *)
    sp_stacks : (int array * int) list;
        (** (stack root-first, sample count): canonical order, unique
            stacks, counts >= 1 *)
  }

  val compare_stack : int array -> int array -> int
  (** Lexicographic by frame address; the shorter stack orders first
      on a shared prefix. The canonical table order. *)

  val of_folded :
    sample_interval:int ->
    ticks_per_second:int ->
    cycles_per_tick:int ->
    (int array * int) list ->
    t
  (** Build a single-run container from a folded sample list (e.g.
      {!Vm.Stacksamp.folded}): stacks are copied, sorted canonically,
      duplicates summed, empty counts dropped.
      @raise Invalid_argument on nonpositive rates. *)

  val n_stacks : t -> int

  val n_samples : t -> int
  (** Sum of all stack counts. *)

  val validate : t -> (unit, string list) result
  (** Rates positive, [runs >= 1], stacks canonically sorted and
      unique with positive counts and nonnegative frame addresses. *)

  val mergeable : t -> t -> (unit, string) result
  (** [Ok ()] when the two profiles share a layout: sample interval,
      clock rate and cycle rate. Otherwise the [Error] {!merge}
      returns. *)

  val merge : t -> t -> (t, string) result
  (** Sum two sampled profiles: they must be {!mergeable}, otherwise
      [Error]. Stack tables union with counts added; [runs] add.
      Commutative, associative, and canonical: equal merges serialize
      byte-identically (tested). *)

  val merge_all : t list -> (t, string) result
  (** Balanced pairwise {!merge} of a non-empty list. *)

  val to_bytes : t -> string
  (** Binary serialization (magic ["SPROFOCAML1\n"], little-endian
      fields, checksum footer). Byte counts land in the
      [sprof.codec.*] metrics. *)

  val of_bytes : string -> (t, string) result

  val decode :
    ?path:string -> mode:mode -> string -> (t * report, decode_error) result
  (** [`Salvage] recovers whole stack records: a failure inside record
      k drops records k.. (record length depends on the stored depth,
      so nothing after a damaged record can be trusted — salvage never
      invents data). Dropped records are counted in the report's
      [r_dropped_arcs] slot and the [sprof.codec.salvage.*] metrics. A
      damaged header is unrecoverable in either mode. *)

  val save : t -> string -> (unit, string) result
  (** Crash-safe temp-and-rename write; honours
      {!Gmon.inject_torn_save}. *)

  val load : ?mode:mode -> string -> (t, string) result

  val load_report : ?mode:mode -> string -> (t * report, decode_error) result

  val sniff_bytes : string -> bool
  (** True when the string starts with the sprof magic. *)

  val sniff_file : string -> bool
  (** {!sniff_bytes} on the first bytes of a file; false on any IO
      error. *)

  val equal : t -> t -> bool

  val pp : Format.formatter -> t -> unit
end
