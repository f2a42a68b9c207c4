(** Complete-call-stack sampling through an interning trace buffer.

    The retrospective: "Modern profilers solve both these problems by
    periodically gathering not just isolated program counter samples
    and isolated call graph arcs, but complete call stacks. The
    additional overhead of gathering the call stack can be hidden by
    backing off the frequency with which the call stacks are
    sampled." This collector does exactly that inside the VM: every
    [interval] clock ticks it walks the frame stack and records the
    chain of function entry addresses, root first, leaf last.

    Long runs revisit the same few hundred stacks, so the buffer
    interns: each distinct stack is stored once, keyed by its frames,
    with a sample count, giving bounded memory and the folded
    representation downstream consumers ({!Stacksample.Stackprof}, the
    sprof container, flame export) want directly. When the intern
    table is full, samples of {e new} stacks are dropped and counted
    as skipped — never mis-credited to another stack. *)

type t

val create : ?capacity:int -> interval:int -> unit -> t
(** Sample every [interval]-th clock tick ([1] = every tick), keeping
    at most [capacity] distinct stacks (default 4096).
    @raise Invalid_argument if [interval < 1] or [capacity < 1]. *)

val interval : t -> int

val capacity : t -> int

val due : t -> bool
(** Whether {!on_tick} will read the next tick's [stack]. *)

val on_tick : t -> stack:int array -> int
(** Offer the current stack (root first) on a clock tick; the sampler
    interns it if this tick is on its schedule. Returns the cycle cost
    charged for the walk (proportional to the stack depth when
    sampled, 0 when skipped by the schedule). A sample dropped because
    the intern table is full still pays the walk. *)

val folded : t -> (int array * int) list
(** The interned stacks with their sample counts, in canonical order
    (lexicographic by frame addresses, shorter stack first on a shared
    prefix). Arrays are the live interned keys — treat as read-only. *)

val n_samples : t -> int
(** Samples retained (sum of all counts). *)

val n_skipped : t -> int
(** Samples dropped because the intern table was at capacity. *)

val n_distinct : t -> int

val max_depth : t -> int

val observe : t -> Obs.Metrics.t -> unit
(** Publish the [vm.sample.*] gauges (taken, skipped, distinct,
    capacity, occupancy_pct, max_depth) into a registry. Per-sample
    depths additionally stream into the [vm.sample.depth] histogram of
    the default registry as they happen. *)

val reset : t -> unit
