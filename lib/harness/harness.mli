(** Measurement harness: runs the same Unix-ABI programs on the
    Synthesis kernel (through the UNIX emulator) and on the baseline
    kernel, and provides the microsecond instrumentation used by
    Tables 2–5 (the Quamachine's counters, §6.1). *)

open Quamachine

(** Timestamps: a host-call that records the cycle counter — the
    software twin of the Quamachine's microsecond interval timer. *)
module Stamps : sig
  type t = Machine.t * int * int list ref

  val create : Machine.t -> t

  (** The instruction to embed at each measurement point. *)
  val mark : t -> Insn.insn

  (** Intervals between consecutive stamps, in microseconds. *)
  val spans : t -> float list

end

(** {1 Stepping helpers} *)

val run_until : Machine.t -> max_insns:int -> (unit -> bool) -> bool
val run_until_pc : Machine.t -> max_insns:int -> int -> bool
val run_until_user : Machine.t -> max_insns:int -> bool

(** {1 A booted Synthesis instance} (all servers, the emulator, the
    4,096-word benchmark file, a populated user-data region,
    timestamps). *)

type synthesis_env = {
  s_boot : Synthesis.Boot.t;
  s_env : Programs.env;
  s_stamps : Machine.t * int * int list ref;
}

val synthesis_setup : ?cost:Cost.t -> unit -> synthesis_env

(** Run a program to completion in a thread with a 10 ms quantum;
    returns elapsed simulated seconds.  Fails loudly if any thread
    died of a fault or 2e9 instructions did not finish it. *)
val synthesis_run : synthesis_env -> program:Insn.insn list -> float

(** {1 A booted baseline instance} *)

type baseline_env = { b_kernel : Baseline.t; b_env : Programs.env }

val baseline_setup : ?cost:Cost.t -> unit -> baseline_env

val baseline_run : baseline_env -> program:Insn.insn list -> float

(** {1 The two-stage pipe pipeline}

    The shared observability workload: a producer thread writes
    [total] words into a 64-word pipe in 8-word bursts, a consumer reads and
    sums them.  Used by the ktrace/kperf CLI commands, the overhead
    benches, and the trace/profiler tests.  [build] on a freshly
    booted instance; [run] executes it and verifies the checksum. *)

module Pipeline : sig
  type t = {
    pl_boot : Synthesis.Boot.t;
    pl_producer : Synthesis.Kernel.tte;
    pl_consumer : Synthesis.Kernel.tte;
    pl_result : int;  (** data address of the consumer's final sum *)
    pl_total : int;
  }

  val build : ?total:int -> Synthesis.Boot.t -> t
  val run : t -> unit
end

(** {1 Zero cost on and off}

    Every instrumentation layer — ktrace, kspan, the PMU, the fault
    injector — observes from the host side, so attached (collecting or
    not) a kernel runs the identical instruction stream, in the same
    cycles, as a plain one.  [rows] is the one list of instrumented
    setups the overhead bench and its test iterate. *)

module Zero_cost : sig
  (** Instrument a freshly booted kernel, before anything runs; the
      result runs once the workload is done (stop the PMU, disarm a
      plan). *)
  type setup = Synthesis.Boot.t -> unit -> unit

  (** No instrumentation. *)
  val plain : setup

  (** (baseline row, label, setup), one per instrumented configuration. *)
  val rows : (string * string * setup) list

  (** Boot, apply [setup], run the {!Pipeline} over [total] words
      (default 2048): the kernel, its cycles and its instructions. *)
  val workload : ?total:int -> setup -> Synthesis.Kernel.t * int * int

  (** The setup of the row with that baseline name; [Invalid_argument]
      if there is none. *)
  val row : string -> setup

  (** Run the {!workload} plain, then under each named row's setup: one
      line per row whose cycles or instructions differ from the plain
      run's, so [[]] when every named layer is free. *)
  val mismatches : ?total:int -> string list -> string list
end

(** {1 Output helpers} *)

val header : string -> unit
