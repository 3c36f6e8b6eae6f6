(** The Quamachine performance-monitoring unit (§6.1): the machine's
    built-in counters — instructions retired, memory references,
    interrupts taken, cycles — packaged as programmable sampling
    windows, plus timer-driven pc sampling in the step loop.

    Purely host-side: a PMU never charges a simulated cycle, so
    instrumented and uninstrumented runs execute bit-identical
    instruction streams ([bench/pmu_overhead.ml] asserts it). *)

type counter = Cycles | Instructions | Mem_refs | Interrupts

type t

val create : Machine.t -> t

(** {1 Counter windows}

    [start] opens a window; [stop] closes it and folds the deltas into
    the running totals; [read] reports totals including the window
    currently open, so it can be polled mid-run. *)

val start : t -> unit
val stop : t -> unit
val read : t -> counter -> int

(** {1 PC sampling}

    Every [period] simulated cycles the step loop records the pc just
    executed, weighted by the cycles elapsed since the previous
    sample — weights tile the sampled window.  Samples are kept only
    while a counter window is open. *)

val enable_sampling : t -> period:int -> unit

(** The configured period; 0 when sampling is off. *)
val sampling_period : t -> int

val sample_count : t -> int

(** Sum of sample weights. *)
val sampled_cycles : t -> int

(** Aggregate weight per pc, heaviest first. *)
val sample_histogram : t -> (int * int) list

val pp : Format.formatter -> t -> unit
