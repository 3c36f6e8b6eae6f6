(** kfault: seeded, fully deterministic fault injection.

    A {!plan} is compiled from a seed by a self-contained PRNG, so a
    (seed, config) pair names one exact fault schedule on every host.
    {!arm} registers a host-side machine device that fires the plan's
    events — spurious interrupts, stalled or dropped device
    completions, bit flips in data regions or in the code store — and
    chains transient CAS failures through [Machine.set_cas_fail].

    Everything is injected from the host side of the step loop: a
    machine that never arms a plan runs cycle- and
    instruction-identically to one built without this module (the same
    zero-overhead discipline as the PMU; asserted by
    [bench fault-overhead]). *)

type target =
  | Data  (** one bit of data memory *)
  | Code
      (** one instruction of the code store: the word no longer
          decodes, so executing it raises an illegal-instruction
          fault (instruction-granularity model of a flipped opcode
          bit) *)

type action =
  | Spurious_irq of { cpu : int option; level : int; vector : int }
      (** post an interrupt no device asked for; [cpu = None] follows
          the machine's per-level route, [Some c] pins it to core [c] *)
  | Bit_flip of { target : target; addr : int; bit : int }
      (** flip one bit of data memory or corrupt one code word *)
  | Stall of { device : string; delay_cycles : int }
      (** push an in-flight completion later *)
  | Drop_completion of { device : string }
      (** lose an in-flight completion entirely *)
  | Power_cut of { device : string; torn_words : int }
      (** cut power to a persistent device: the platter freezes, an
          in-flight write lands at most its first [torn_words] words
          (-1 = lost whole), and the controller goes dead until the
          host powers it back on (kcrash); only hand-built plans
          ({!make_plan}) carry it *)
  | Core_stall of { cpu : int; stall_cycles : int }
      (** kSMP: skew one core's local clock forward, forcing a
          different cross-core interleaving without touching any
          architectural state (ignored for out-of-range cores) *)
  | Frame_fault of { device : string; dir : int; kind : int }
      (** kserve: arm a one-shot fault against the named device's
          next frame — [dir] 0 = rx, 1 = tx; [kind] 0 = drop,
          1 = duplicate, 2 = reorder.  Devices with no registered
          frame hook ignore it.  Only hand-built plans ({!make_plan})
          carry it. *)

val corrupt_code : Machine.t -> addr:int -> bit:int -> unit
(** Apply a [Code] flip directly (outside any plan). *)

type event = { ev_after : int; ev_action : action }
(** [ev_after] is cycles after {!arm}. *)

type plan = private {
  seed : int;
  events : event list;  (** sorted by [ev_after] *)
  cas_gaps : int list;
      (** gaps (in executed-Cas counts) between forced CAS failures *)
}

type config = {
  horizon_cycles : int;  (** events land uniformly in \[1, horizon\] *)
  n_irqs : int;
  n_flips : int;
  n_stalls : int;
  n_drops : int;
  n_cas_fails : int;
  cas_gap : int;  (** max gap between consecutive forced CAS failures *)
  irq_choices : (int * int) list;  (** (level, vector) pool for spurious irqs *)
  stall_devices : string list;
  flip_base : int;  (** bit flips land in \[flip_base, flip_base+flip_len) *)
  flip_len : int;  (** 0 disables flips (callers aim at scratch data) *)
  n_code_flips : int;
  code_regions : (int * int) list;
      (** (base, len) code-store spans code flips are aimed at —
          typically registered synthesized regions; [[]] disables
          code flips *)
  irq_cpus : int list;
      (** cores spurious irqs are pinned to; [[]] (the default) follows
          the machine's per-level routes *)
  n_core_stalls : int;
  core_stall_cpus : int list;  (** cores eligible; [[]] disables *)
  core_stall_cycles : int;  (** max stall magnitude *)
}

val default_config : config
(** Timer/disk/alarm spurious irqs (handlers are idempotent; tty is
    excluded because its handler reads a data register), disk/tty
    stalls and drops, 4 CAS failures, no bit flips (no safe default
    target — aim data flips with [flip_base]/[flip_len] at a scratch
    window such as [Layout.fault_scratch_base], and code flips with
    [code_regions] at registered synthesized regions). *)

val compile : ?config:config -> int -> plan
(** [compile seed] deterministically expands a seed into a plan of
    spurious irqs, core stalls, bit flips, stalls and drops; it never
    draws a [Power_cut] or [Frame_fault]. *)

val make_plan : seed:int -> event list -> plan
(** Hand-built plan for targeted scenarios: explicit events (sorted
    for you) instead of seed-expanded ones, and no forced CAS
    failures. *)

type t
(** An armed plan: live injection state on one machine. *)

val arm : Machine.t -> plan -> t
(** Register the injector; event times are relative to the current
    cycle count. *)

val disarm : Machine.t -> t -> unit
(** Remove the injector device and any armed CAS failure. *)

val injected : t -> int
(** Faults actually delivered so far (scheduled events may still be
    pending; stalls/drops with no in-flight completion still count as
    delivered but have no effect). *)
