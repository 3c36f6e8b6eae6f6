(** Counter/gauge registry and the scheduler's typed epoch history.

    Host-side bookkeeping only: touching a metric never charges
    simulated cycles.  A kernel has one registry, [Kernel.metrics]:
    faults, repairs, the synthesis cache, kspan's histograms and the
    fine-grain scheduler's counters and epochs all land in it, so one
    dump (and [Kernel.postmortem]) shows them together. *)

type t

type counter
type gauge

(** One thread's row in a scheduler rebalance: the I/O rate observed
    over the epoch and the quantum assigned from it (§4: quantum ∝
    1/rate). *)
type epoch_entry = { ep_tid : int; ep_rate : int; ep_quantum : int }

(** One scheduler rebalance, stamped with simulated time. *)
type epoch_record = { ep_time_us : float; ep_entries : epoch_entry list }

val create : unit -> t

(** {1 Well-known names}

    The ksynth synthesis cache's counters, spelled once so the cache,
    the profiler and the dumps agree. *)

val synth_cache_hits : string
val synth_cache_misses : string
val synth_cache_evictions : string
val synth_cache_resynth : string

(** {1 Counters} *)

(** Find-or-create by name. *)
val counter : t -> string -> counter

val counter_value : counter -> int

(** Find-or-create and add one. *)
val bump : t -> string -> unit

(** Value of a named counter, 0 when absent. *)
val read : t -> string -> int

(** {1 Gauges} *)

val gauge : t -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Windowed rates}

    §3's gauge as policy reads it: a counter that synthesized code or a
    device ticks, sampled once per window into a named gauge. *)

type rate

(** Open a window at [cycles] with the counter at [count]; samples
    land in the gauge [name]. *)
val rate : t -> string -> count:int -> cycles:int -> rate

(** Close the window at [cycles] with the counter at [count], set the
    gauge to the window's events per kilocycle and open the next.  The
    count delta is taken modulo 2^32 (wrap-correct); a zero-width
    window keeps the previous rate instead of dividing by zero. *)
val sample : rate -> count:int -> cycles:int -> unit

(** {1 Histograms}

    Latency histograms live in the same registry as counters and
    gauges so one dump (and one profile JSON) shows counts next to
    tails.  See {!Histogram}. *)

(** Find-or-create by name. *)
val histogram : t -> string -> Histogram.t

(** Find-or-create and record one observation. *)
val observe : t -> string -> int -> unit

(** All histograms, sorted by name. *)
val histograms : t -> (string * Histogram.t) list

(** {1 Scheduler epochs}

    One record per rebalance, the newest 64 kept; the
    ["sched.rebalances"] counter counts every rebalance. *)

val record_epoch : t -> epoch_record -> unit

(** Newest first. *)
val epoch_history : t -> epoch_record list

(** {1 Dumping} *)

(** Counters, gauges and histograms, each sorted by name. *)
val pp : Format.formatter -> t -> unit
