(** The self-observability metrics registry.

    Named counters, gauges, and histograms with fixed log2 buckets.
    Instruments are registered by name (get-or-create); registering
    the same name with a different instrument kind raises. Every
    mutation takes effect: the registry has no off switch, so what a
    component counted is always what a reader sees.

    [default] is the process-wide registry used by components that
    have no natural owner for their counters (e.g. the gmon codec's
    byte counts) and by the [--obs-metrics] CLI exporters. Components
    with their own internal state (the VM, the monitor) publish
    snapshots into a registry via their [observe] functions. *)

type t
(** A registry. *)

type counter
(** Monotonically increasing count. *)

type gauge
(** Last-write-wins value. *)

type histogram
(** Distribution with {!n_hist_buckets} log2 buckets plus count, sum,
    and max. *)

val create : unit -> t

val default : t
(** The process-wide registry. *)

val reset : t -> unit
(** Zero every instrument (registrations are kept). *)

(** {1 Instruments} *)

val counter : t -> ?help:string -> string -> counter
val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : t -> ?help:string -> string -> gauge
val set : gauge -> int -> unit
val gauge_value : gauge -> int

val histogram : t -> ?help:string -> string -> histogram

val observe : histogram -> int -> unit
(** Record one value into its log2 bucket. *)

val set_snapshot :
  histogram -> buckets:int array -> count:int -> sum:int -> max:int -> unit
(** Replace the histogram's contents wholesale — for components that
    maintain their own bucket array and publish it on demand.
    [buckets] must have length {!n_hist_buckets}.
    @raise Invalid_argument otherwise. *)

val hist_count : histogram -> int
val hist_sum : histogram -> int
val hist_max : histogram -> int
val hist_buckets : histogram -> int array

(** {1 Bucket geometry} *)

val n_hist_buckets : int
(** 32. *)

val hist_bucket_of : int -> int
(** Bucket 0 holds values [<= 0]; bucket [b >= 1] holds
    [2^(b-1) <= v < 2^b]; the top bucket absorbs the rest. *)

val hist_bucket_bounds : int -> int * int
(** Inclusive [(lo, hi)] of a bucket; the top bucket's [hi] is
    [max_int]. *)

(** {1 Lookup (tests, exporters)} *)

val find_counter : t -> string -> int option
val find_gauge : t -> string -> int option
val find_histogram : t -> string -> histogram option

(** {1 Enumeration} *)

type view =
  | View_counter of int
  | View_gauge of int
  | View_histogram of { v_count : int; v_sum : int; v_max : int; v_buckets : int array }
      (** An immutable copy of one instrument's current value. *)

val views : t -> (string * view) list
(** Every instrument, name-sorted, as value copies — the raw material
    of {!Snapshot.of_registry}. *)

(** {1 Export} *)

val dump : t -> string
(** Human-readable listing, sorted by name; histogram buckets are
    printed with their value ranges. The JSON export is
    {!Snapshot.to_json} over {!Snapshot.of_registry}. *)
