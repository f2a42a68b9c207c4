(** The batching ingestion queue in front of the profile store.

    Continuous profiling means submissions arrive one at a time, but
    appending every one of them to disk individually wastes the
    store's write path: each segment is an atomically renamed file.
    The queue buffers decoded submissions and flushes a whole batch,
    summed into one segment per shard and family it touches, when
    either trigger fires:

    - {b size}: the buffer reached [max_batch] profiles;
    - {b age}: the oldest buffered profile has waited [max_age]
      seconds ({!tick} checks this — a daemon calls it from its idle
      loop).

    Submissions are decoded {e strictly} on arrival, routed by magic
    (arc profiles and {!Gmon.Sprof} sampled profiles share the queue),
    and checked against the store's layout for their family
    ({!Store.admit}): an undecodable payload, or one of another
    layout, goes to the store's quarantine with its diagnostics
    immediately ([`Quarantined]) and can never poison a batch. Every
    flush publishes batch metrics ([ingest.*]) and a span to {!Obs}. *)

type t

val create : ?max_batch:int -> ?max_age:float -> ?queue_cap:int -> Store.t -> t
(** Defaults: [max_batch = 64], [max_age = 5.0] seconds,
    [queue_cap = 256] (clamped to at least [max_batch]). A
    [max_batch] of 1 makes every submission durable immediately.
    [queue_cap] bounds the buffer: once the store stops keeping up and
    the queue fills, further submissions are {e shed} explicitly
    instead of growing memory without bound. *)

val store : t -> Store.t

val pending : t -> int
(** Profiles buffered and not yet flushed. *)

val queue_cap : t -> int

type outcome =
  | Queued of int  (** buffered; the batch now holds this many *)
  | Flushed of int  (** buffered, and a size-triggered flush wrote this many *)
  | Quarantined of string
      (** undecodable, or of another layout; the per-file diagnostics
          or the merge message *)
  | Shed
      (** the queue is at [queue_cap] and a flush could not drain it:
          the submission was refused (backpressure) — the caller
          should answer overload with a retry-after, never drop
          silently. Counted in [ingest.shed]. *)

val submit : t -> label:string -> string -> (outcome, string) result
(** Decode one submission and buffer it (or quarantine it). When the
    size trigger fires but the store refuses the batch, the
    submission is still accepted ([Queued]) as long as the queue is
    under [queue_cap] — the age trigger or an explicit {!flush}
    retries the append. [Error] only on IO failures — a daemon treats
    those as fatal for the request, never for the process. *)

val flush : t -> (int, string) result
(** Append every buffered profile to the store now; returns how many
    were written. The batch is summed per (shard, family) and each
    group lands as one segment, appended under the label of its first
    entry. A failed append re-buffers the groups that did not land, so
    no accepted submission is silently dropped; the groups that did
    land are counted in [ingest.flushed_profiles] as they land. *)

val tick : t -> (int, string) result
(** Flush if the age trigger fired; [Ok 0] otherwise. *)
