(** kperf profiler: flat and per-owner profiles of the synthesized
    kernel, built from the PMU's pc samples and ktrace's exact cycle
    attribution.

    The per-owner view is exact — owner totals (plus a "(boot,
    pre-attach)" line for cycles spent before tracing attached) sum to
    the machine's cycle total to the cycle, so the reported
    percentages partition 100%.  The flat view is sampled: per-address
    weights labelled with the owning synthesized routine. *)

type line = { l_name : string; l_cycles : int; l_share : float }

type t = {
  p_total : int;  (** machine cycle total; owner lines sum to it *)
  p_owners : line list;  (** exact attribution, biggest first *)
  p_flat : (int * string * int) list;
      (** hottest sampled addresses: (addr, owning routine, weight) *)
  p_sample_count : int;
  p_sampled_cycles : int;
  p_period : int;  (** 0 when sampling was off *)
  p_synth : Ksynth.stats;  (** synthesis-cache counters for the run *)
  p_hist : (string * Histogram.t) list;
      (** kspan latency histograms from the metrics registry *)
}

(** Snapshot the profile of a kernel run.  Per-owner exactness needs
    tracing attached ({!Kernel.attach_tracing}); without it the whole
    total lands on one "(unattributed)" line.  The flat list keeps the
    24 hottest addresses. *)
val collect : Kernel.t -> Quamachine.Pmu.t -> t

(** Sum of the owner lines — equals [p_total] whenever attribution was
    attached; {!balanced} checks it. *)
val owners_total : t -> int

val balanced : t -> bool

(** Prints at most 16 owner lines and 16 sampled addresses. *)
val pp : Format.formatter -> t -> unit

val to_json : t -> string
