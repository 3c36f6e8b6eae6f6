(** Kernel bring-up: shared handlers (faults, thread-operation system
    calls, signals, alarms), the idle thread, and the name space.
    [go] transfers control to the first ready thread by jumping into
    its synthesized switch-in code.

    The machine halts when the last non-system thread exits. *)

type t = {
  kernel : Kernel.t;
  vfs : Vfs.t;
  idle : Kernel.tte;  (** core 0's idle thread *)
  mutable at_boot : (unit -> unit) list;
  mutable entered : bool;
      (** an earlier [go] staged core 0; a later one resumes it *)
}

(** [cores] boots an SMP kernel: every core gets a pinned idle thread
    and, once [go] enters the scheduler, runs its own ready ring
    (secondaries wake via {!Quamachine.Machine.start_core}). *)
val boot : ?cost:Quamachine.Cost.t -> ?cores:int -> unit -> t

(** Enter the scheduler: stage and wake each secondary core not yet
    started, then (with [stage_core0], the default) point core 0 at
    its ready ring's switch-in on a fresh boot stack, supervisor, IPL
    7.  [go] does this; the explorer calls it to drive the machine
    step by step. *)
val enter_scheduler : ?stage_core0:bool -> Kernel.t -> unit

(** Park core 0 on its idle thread: its switch-in on a fresh boot
    stack, supervisor, IPL 0, so host-driven synchronous waits (disk
    reads, [at_boot] hooks) can take completion interrupts.  [go] does
    this before running boot hooks. *)
val park_on_idle : Kernel.t -> unit

(** Register a hook run by the next [go], once the scheduler is
    entered but before user threads get the machine.  Hooks may step
    the machine (synchronous disk reads); file-system recovery — the
    intent-log replay in {!Dfs.mount} — registers itself here so a
    reboot replays before anything can look at the disk.  Hooks run
    once and are cleared; if afterwards no user work remains, [go]
    returns [Halted] cleanly. *)
val at_boot : t -> (unit -> unit) -> unit

(** Run the machine until it halts, [max_insns] instructions have run,
    or [max_cycles] simulated cycles have passed — the budget that ends
    a run whose cores all sleep (a server never shut down); either
    budget running out returns [Insn_limit].  The first [go] stages
    core 0 on its ring's switch-in, as does a [go] after a halt; a
    [go] after an [Insn_limit] resumes every core where it stopped,
    a sleeping one included.  A double fault is always
    logged ("double_fault"); with [restart_on_double_fault] the crashed
    thread is restarted through {!Kernel.restart_thread} (bounded by
    {!double_fault_restart_cap}) and the scheduler re-entered instead
    of staying halted. *)
val go :
  ?max_insns:int ->
  ?max_cycles:int ->
  ?restart_on_double_fault:bool ->
  t ->
  Quamachine.Machine.run_result

