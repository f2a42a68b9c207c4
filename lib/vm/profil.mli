(** The program-counter histogram — profil(2).

    "the operating system can provide a histogram of the location of
    the program counter at the end of each clock tick … The histogram
    is assembled in memory as the program runs." The granularity is a
    scale: with [bucket_size = 1] "program counter values map
    one-to-one onto the histogram" (the paper's configuration); larger
    bucket sizes trade memory for attribution precision (the
    retrospective's 16-bit-era compromise, measured by bench
    [t-gran]). *)

type t

val create : lowpc:int -> highpc:int -> bucket_size:int -> t
(** Zeroed, enabled histogram over [\[lowpc, highpc)]. *)

val enabled : t -> bool

val enable : t -> unit

val disable : t -> unit

val sample : t -> pc:int -> unit
(** Record one clock tick observed at [pc]; allocates nothing, so a
    clock of any rate costs the host no garbage. No-op when disabled;
    a [pc] outside the covered range is not counted but is tallied in
    {!overflow}. *)

val ticks : t -> int
(** Total ticks recorded since creation/reset. *)

val overflow : t -> int
(** Ticks observed while enabled whose pc fell outside the covered
    range — the histogram-overflow the paper's profil(2) silently
    drops. *)

val collisions : t -> int
(** Ticks that landed in a bucket previously hit by a {e different}
    address: the attribution ambiguity introduced by bucket sizes
    greater than one. Always 0 when [bucket_size = 1]. *)

val observe : t -> Obs.Metrics.t -> unit
(** Publish ticks, overflow, collisions, and bucket occupancy into a
    registry under [profil.*]. *)

val hist : t -> Gmon.hist
(** Snapshot (the counts array is copied). *)

val take_delta : t -> base:int array -> int array
(** The counts gained since [base], one cell per bucket; [base] then
    holds the current counts. One pass, with no snapshot of the
    histogram. *)

val reset : t -> unit
