(** An immutable, serializable capture of a {!Metrics} registry.

    A snapshot is what a telemetry client holds between polls, and
    its JSON is the one metrics format ([--obs-metrics] files,
    [QUERY metrics], telemetry records): it serializes with
    {!to_json}, parses back with {!of_json}, and subtracts with
    {!diff} so any consumer can compute "what changed since last
    poll" — per-second rates, latency quantiles, shed percentages —
    without touching the live registry. *)

type hist = {
  h_count : int;
  h_sum : int;
  h_max : int;
  h_buckets : (int * int) list;
      (** [(bucket index, count)] pairs, ascending, counts > 0; bucket
          geometry is {!Metrics.hist_bucket_bounds}. *)
}

type t = {
  counters : (string * int) list;  (** name-sorted *)
  gauges : (string * int) list;
  histograms : (string * hist) list;
}

val empty : t

val of_registry : Metrics.t -> t
(** Capture every instrument's current value. *)

val to_json : t -> string
(** [{"counters":{...},"gauges":{...},"histograms":{...}}], fields in
    the snapshot's order; histogram buckets carry inclusive [lo]/[hi]
    bounds ([hi] = -1 for the unbounded top bucket). *)

val of_json : string -> (t, string) result
(** Parse what {!to_json} wrote. *)

val of_value : Jsonin.value -> (t, string) result
(** Same, from an already parsed JSON value (e.g. the ["metrics"]
    member of a telemetry record). *)

val save : Metrics.t -> string -> unit
(** Write {!to_json} of the registry's current values to a file; ["-"]
    or ["/dev/stdout"] writes to stdout. *)

val find_counter : t -> string -> int option
val find_gauge : t -> string -> int option
val find_hist : t -> string -> hist option

val diff : before:t -> after:t -> t
(** Counter and histogram deltas over [after]'s name set (a name
    missing from [before] counts from zero); gauges carry [after]'s
    value (last write wins). A histogram delta's [h_max] is the
    cumulative max when the window saw samples, 0 otherwise — the
    true window max is not recoverable from cumulative state. *)

val rates : elapsed:float -> t -> (string * float) list
(** Per-second rate of every counter of a {!diff}; empty when
    [elapsed <= 0]. *)

val monotonic_violations : before:t -> after:t -> (string * int * int) list
(** Counters (and histogram counts, suffixed [".count"]) that moved
    backwards between two snapshots, as [(name, before, after)] —
    empty for any pair taken from one uninterrupted process. *)

val hist_quantile : hist -> float -> float
(** [hist_quantile h q] estimates the [q]-quantile ([0..1]) by linear
    interpolation inside the log2 bucket holding it; the unbounded top
    bucket is clamped to [h_max]. 0 for an empty histogram. *)
