(** The virtual machine.

    Executes an {!Objcode.Objfile.t} with a per-instruction cycle cost
    model. The cycle counter drives a simulated wall clock: every
    [cycles_per_tick] cycles a clock tick fires, sampling the program
    counter into the {!Profil} histogram (and, when configured, the
    whole call stack into the {!Stacksamp} collector) — the simulated
    equivalent of the paper's 1/60-second hardware clock interrupts.

    Instrumentation costs are charged to the running program: the
    monitor's hash work on every [Mcount], and the stack walk on
    sampled ticks. An uninstrumented binary therefore runs measurably
    faster, which is how the paper's overhead claim is reproduced
    rather than assumed.

    The {!profiling_on}/{!profiling_off}/{!reset_profile}/{!profile}
    quartet is the "programmer's interface to control the profiler"
    that the retrospective added for kernel profiling: the profile of
    a long-running program can be extracted, reset, and toggled
    without stopping execution ({!run_cycles} runs bounded slices). *)

type config = {
  cycles_per_tick : int;
  ticks_per_second : int;
      (** together these define simulated time; defaults give a 60 Hz
          clock over a 1 MHz machine *)
  hist_bucket_size : int;  (** histogram granularity; 1 = one-to-one *)
  keying : Monitor.keying;
  oracle : bool;  (** exact-timing ground truth (no cycle cost) *)
  stack_interval : int option;
      (** sample complete call stacks every k ticks; a tick that falls
          due while a walk's cost is being charged is not offered to
          the sampler *)
  stack_capacity : int option;
      (** distinct-stack bound for the interning sample buffer;
          [None] = the sampler's default (4096) *)
  count_instructions : bool;
      (** report the exact per-address execution counts
          ({!instruction_counts}, which drive the annotated-source
          listing); free of simulated-cycle cost, like a hardware trace
          unit *)
  metrics : bool;
      (** report the self-observability counters (instructions
          executed, dispatch-group breakdown); free of simulated-cycle
          cost. The loop keeps the per-address counts both settings
          read whether or not either is set, so neither costs host time
          (bench [t-obs] measures the difference) *)
  tick_jitter : float;
      (** 0 = strictly periodic ticks; q > 0 randomizes each interval
          uniformly within ±q/2 of its length, modelling an imperfect
          clock *)
  seed : int;  (** PRNG seed for [rand] and jitter *)
  max_cycles : int option;  (** fault when exceeded; None = unlimited *)
  max_depth : int;  (** call-stack depth limit *)
  fault_after_instr : int option;
      (** fault injection: abort with {!injected_fault_reason} after
          executing N instructions, simulating a program killed
          mid-run — the normal way to produce the partial profiles the
          salvage decoder must tolerate *)
  epoch_ticks : int option;
      (** snapshot the live profile counters every N clock ticks,
          recording each window's delta as one epoch of a
          {!Gmon.Epoch} timeline container ({!epochs}); host-time
          only, free of simulated-cycle cost (bench [t-timeline]
          bounds the overhead) *)
}

val default_config : config
(** 16666 cycles/tick, 60 ticks/s, bucket size 1, [Site_primary],
    metrics on, no oracle, no stack sampling, no jitter, seed 1,
    max_cycles [None], depth 100000. *)

type fault = { fault_pc : int; reason : string }

val injected_fault_reason : string
(** The [reason] of a fault produced by [fault_after_instr], so
    drivers can distinguish deliberate crashes from real ones. *)

val pp_fault : Format.formatter -> fault -> unit

type status = Running | Halted | Faulted of fault

type t

val create : ?config:config -> Objcode.Objfile.t -> t
(** Verify the object code ({!Objcode.Verify.check}) and set up a
    machine at its entry point. The machine keeps its own copy of the
    verified text, so writing the object's text afterwards does not
    change the run.

    Verified code then runs in one dispatch loop that keeps the program
    counter, the operand-stack height and the cycle count in registers
    and makes one comparison per instruction: the instruction's end
    cycle against a horizon, the nearest of the next clock tick, the
    cycle limit and the {!run_cycles} stop point. The instruction that
    reaches the horizon, every {!step}, and every instruction of a run
    with [fault_after_instr] set take the same loop one instruction at
    a time, followed by the ticks it completes.

    The loop does not bounds-check what {!Objcode.Objfile.validate} and
    {!Objcode.Verify.check} proved: the text and cost table at the pc,
    the operand stack, the locals of frames whose slots were verified,
    global, array and pcount ids, and the callee's [min_args]. The
    faults left to run time are an array index out of bounds, division
    by zero, a [calli] target outside the text or not a function entry,
    a local slot out of range in a frame entered through [calli] with
    fewer arguments than its body reads, the depth limit, the cycle
    limit, and the injected fault; each names the faulting pc.
    @raise Invalid_argument on an empty text segment, a non-positive
    [cycles_per_tick], [ticks_per_second] or [epoch_ticks], or refused
    code, with the verifier's located message: ["Machine.create: main+2
    (pc 77): operand stack underflow"]. *)

val obj : t -> Objcode.Objfile.t

val step : t -> status
(** Execute one instruction (and any clock ticks it completes). *)

val run : t -> status
(** Run until halt or fault. *)

val run_cycles : t -> int -> status
(** [run_cycles m n] runs until at least [n] more cycles have elapsed
    (or halt/fault): it stops before the first instruction that would
    start at or past the budget. Returns [Running] if the budget
    expired. A budget that reaches past [max_int] cycles runs like
    {!run}. *)

val status : t -> status

val cycles : t -> int

val ticks : t -> int

val output : t -> string
(** Everything the program printed so far. *)

val result : t -> int option
(** [main]'s return value once halted normally. *)

val pcounts : t -> int array
(** The prof-style per-function counters, indexed by symbol id. *)

val instruction_counts : t -> int array option
(** Exact execution count per text address, when
    [count_instructions] was configured. *)

val call_stack : t -> int array
(** Entry addresses of the live frames, root first. *)

val monitor : t -> Monitor.t

val mcount_cycles : t -> int
(** Total cycles charged by the monitoring routine so far. *)

val instructions_executed : t -> int
(** Instructions dispatched so far, summed from the per-address
    execution counts the [metrics] keep; 0 when [metrics] is off. *)

val dispatch_counts : t -> (string * int) list
(** Execution count per {!Objcode.Instr.group}, as
    [(group name, count)] in group order; all zero when [metrics] is
    off. *)

val observe : t -> Obs.Metrics.t -> unit
(** Publish the machine's execution metrics ([vm.*]) and its
    monitor's ([monitor.*]) and histogram's ([profil.*]) into a
    registry. *)

val the_oracle : t -> Oracle.t option

val sampler : t -> Stacksamp.t option

val stack_folded : t -> (int array * int) list
(** The interned call-stack samples as [(stack, count)] in the
    sampler's canonical order; [[]] when sampling is off. *)

val sprof : t -> Gmon.Sprof.t option
(** Condense the interned sample buffer to a sampled-profile
    container at this machine's clock rates; [None] when sampling is
    off. Usable mid-run and after a fault, like {!profile}. *)

val profiling_on : t -> unit

val profiling_off : t -> unit
(** Stop the histogram and the arc recording; a run starts with both
    on, and [profiling_off] right after {!create} starts it with
    profiling off. *)

val reset_profile : t -> unit
(** Zero the histogram, the arc table, and the per-function
    counters. *)

val profile : t -> Gmon.t
(** Snapshot the current histogram and arc table as a profile data
    record ([runs = 1]); usable mid-run. *)

val epochs : t -> Gmon.Epoch.t option
(** The timeline gathered so far, when [epoch_ticks] was configured:
    one epoch per completed window plus, when any data accrued after
    the last boundary, a trailing partial epoch. Usable mid-run and
    idempotent (the engine's baselines are not advanced). Summing the
    epochs reproduces {!profile} exactly. *)
