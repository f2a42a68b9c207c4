(** The sharded, append-only profile store.

    The paper's observation that "data from several runs can be
    summed" scales badly when the runs arrive continuously from a
    fleet: a one-shot [merge_all] over files re-reads and re-merges
    everything on every question. The store gives ingested profiles a
    durable home with incremental summing:

    - {b Segments}: every append lands as its own segment file in one
      of [n] shard directories (shard = FNV-1a hash of the submission
      label). A segment may hold the sum of several runs: the ingest
      queue appends a flushed batch's profiles for one shard summed.
      Segments are ordinary gmon payloads — framed and checksummed by
      {!Gmon.Wire}, written with the crash-safe temp-and-rename writer
      — so a kill at any instant leaves either a complete, verifiable
      segment or nothing.
    - {b Views}: each shard's track keeps its merged view — the sum of
      its compacted profile and its whole tail — in memory. Opening
      the store builds it from the files recovery decodes; every
      append folds the new profile in. Nothing reads a segment back
      after open.
    - {b Compaction} writes a shard's view as one [compact-<seq>.gmon]
      — named by the highest segment sequence folded into it — then
      deletes the folded segments. The view is an exact integer sum,
      so compaction never changes what a query sees, and the sequence
      number in the file name lets recovery drop stale leftovers
      without double-counting.
    - {b Queries} sum the shards' views. Every shard view served is a
      [store.cache.hits]; [store.cache.misses] counts the views built
      from disk, which happens only at open.
    - {b Quarantine}: undecodable submissions, profiles of another
      layout ({!admit}) and unrecoverable torn segments are moved
      aside with their diagnostics instead of poisoning the shard.

    Invariant (tested end to end): for any set of runs, the store's
    merged view is {!Gmon.equal} to the offline {!Gmon.merge_all} of
    the same files, whatever the interleaving of appends, compactions,
    restarts, and crashes between them. *)

type t

type open_report = {
  or_created : bool;  (** fresh store (no prior manifest or segments) *)
  or_segments : int;  (** intact tail segments recovered *)
  or_compacted : int;  (** shards holding a compacted profile *)
  or_salvaged : int;  (** torn segments recovered with data loss *)
  or_quarantined : Gmon.quarantined list;
      (** segments that decoded to nothing and were moved aside *)
  or_notes : string list;  (** human diagnostics, e.g. a rebuilt manifest *)
}
(** What opening found on disk. A store that was killed mid-ingest
    reports its losses here: fully-written segments always survive
    (atomic writes), a torn tail is salvaged when its valid prefix
    decodes and quarantined when it does not. *)

val open_report_degraded : open_report -> bool

val open_report_summary : open_report -> string
(** One line; [""] when recovery was clean. *)

val default_shards : int

val open_ : ?shards:int -> string -> (t * open_report, string) result
(** Open a store directory, creating it (and its manifest) when
    empty. [shards] applies only to creation — an existing store keeps
    the shard count in its manifest, because the label-to-shard map
    depends on it. *)

val dir : t -> string

val n_shards : t -> int

val shard_of_label : t -> string -> int

type profile = Arc of Gmon.t | Sampled of Gmon.Sprof.t
(** A decoded profile of either family. *)

val admit : t -> profile -> (unit, string) result
(** Check a profile against its family's layout, the way every path
    into the store does. The arc layout is the histogram bounds,
    bucket size, clock rate and cycle rate; the sampled layout is the
    sample interval, clock rate and cycle rate. A family's layout is
    taken from the first profile the store recovers at open or admits
    afterwards. [Error] carries {!Gmon.mergeable}'s message: such a
    profile could never be summed with the rest, so a caller
    quarantines it. *)

val append : t -> label:string -> Gmon.t -> (unit, string) result
(** Durably add one profile to [label]'s shard as a new segment. The
    profile may be a sum of several runs. It is folded into the
    shard's view before the atomic write, and the new view is kept
    only once the write succeeds. A profile that fails {!admit} is
    refused with [Error] and nothing is written. *)

val append_sprof : t -> label:string -> Gmon.Sprof.t -> (unit, string) result
(** Durably add one sampled profile to [label]'s shard on the sampled
    track ([sseg-*.sprof] segments). Same atomicity, fold and refusal
    as {!append}; the two tracks share a shard but never mix
    payloads. *)

val quarantine :
  t -> label:string -> reason:string -> string -> (unit, string) result
(** Keep a refused submission for [label] byte for byte in the
    quarantine directory, beside a sidecar holding [reason] (its
    per-file diagnostics, or why {!admit} refused it). It never
    reaches a merge. [Error] only on IO failures. *)

val merged : t -> (Gmon.t option, string) result
(** Merged profile of the whole store: the sum of the shards' views,
    each its compacted state plus its uncompacted tail; [None] when
    the store is empty. No file is read: the views are current. *)

val merged_sprof : t -> (Gmon.Sprof.t option, string) result
(** Merged sampled profile of the whole store, summed from the
    shards' views like {!merged}. Because the sprof merge is
    canonical, this serializes byte-identically to
    {!Gmon.Sprof.merge_all} over the originally submitted files,
    whatever the interleaving of appends, compactions, and restarts
    (tested; the [test_cli] case "profd daemon" compares a live
    daemon's [QUERY sreport] bytes with the offline merge). *)

val compact : t -> (int, string) result
(** Save every shard's view as its compacted profile — both tracks —
    and delete the tail it covers; returns the number of segments
    folded. The atomic rename of the new [compact-<seq>.gmon] is the
    commit point: a crash before it loses nothing (old compact and
    segments survive), and a crash after it leaves only stale files
    whose sequence numbers identify them as already folded, which
    recovery removes instead of double-merging. *)

type stats = {
  st_shards : int;
  st_segments : int;  (** uncompacted tail segments on disk *)
  st_compacted_runs : int;  (** runs folded into compact profiles *)
  st_total_runs : int;  (** compacted + tail *)
  st_sprof_segments : int;  (** uncompacted sampled-track segments *)
  st_sprof_runs : int;  (** sampled-profile runs, compacted + tail *)
  st_quarantined : int;  (** files in quarantine/ *)
  st_cache_hits : int;
  st_cache_misses : int;
  st_disk_bytes : int;  (** segment + compact bytes on disk *)
}

val stats : t -> stats

val stats_to_json : stats -> string

type shard_info = {
  si_index : int;
  si_segments : int;  (** uncompacted arc-track tail segments *)
  si_sprof_segments : int;  (** uncompacted sampled-track tail segments *)
  si_compact_seq : int;  (** highest folded arc-track seq; 0 = never compacted *)
  si_scompact_seq : int;  (** same, sampled track *)
}

val shard_info : t -> shard_info list
(** Per-shard occupancy, in shard order — what a live monitor renders
    and the health RPC reports. *)

val last_compact_seq : t -> int
(** Highest sequence number any shard has folded into a compact
    profile (either track); 0 when no compaction has ever run. *)

val top_buckets : t -> n:int -> ((int * int * int) list, string) result
(** Top-N histogram buckets of the merged view by self ticks, as
    [(addr_lo, addr_hi, ticks)], heaviest first. The store is
    symbol-free; callers with an executable resolve names
    (gprofx [--store]). *)

val quarantine_dir : t -> string

val sync : t -> (unit, string) result
(** Fsync the store's directories so every acknowledged append — the
    renames the atomic writer relies on — survives a power cut. The
    daemon calls this once on graceful drain; filesystems that refuse
    directory fsync are treated as clean. *)
