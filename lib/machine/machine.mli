(** The simulated Quamachine (§6.1): CPU cores, memory with protection
    maps, an append-only patchable code store, prioritized interrupts,
    devices, host-call hooks, and the instruction / memory-reference /
    cycle counters the paper's measurements rely on.

    With [create ~cores:n], [n] cores step over the one shared memory
    and code store.  Each core keeps a local absolute cycle clock;
    [step] always runs the runnable core with the smallest clock (ties
    broken by a rotation seeded with {!set_schedule_seed}), so the
    interleaving is deterministic and cores progress in
    simulated-parallel time.  An interrupt goes to the core it names,
    or to core 0; cores interleave at instruction granularity, so every
    shared-memory access is a potential switch point and another
    core's committed [Cas] is a real contention source.  With one core
    the machine is cycle-identical to the uniprocessor it replaces. *)

type t

(** CPU faults delivered through the current vector table. *)
type fault =
  | Bus_error of int
  | Div_zero
  | Privilege
  | Illegal
  | Fp_unavailable

exception Cpu_fault of fault

(** Every core is stopped waiting for an interrupt no device will ever
    deliver. *)
exception Deadlock

(** Control flow left the code store: there is no vector for this. *)
exception Wild_jump of int

(** Observability hooks (ktrace).  Callbacks run host-side and must not
    charge simulated cycles; with hooks unset the fast paths pay
    nothing beyond a field load. *)
type hooks = {
  h_post : source:string -> level:int -> vector:int -> unit;
      (** a device posted an interrupt *)
  h_irq : level:int -> vector:int -> unit;
      (** the CPU accepted a pending interrupt *)
  h_device : string -> unit;  (** a device tick ran *)
  h_fault : fault -> unit;  (** a CPU fault was raised *)
}

(** A device: [dev_tick] runs once when the global clock (the minimum
    over runnable cores' clocks) reaches [next_due].  Deadlines are
    one-shot: the machine sets [next_due] to [max_int] just before the
    tick runs, so a tick that wants to fire again must re-arm the
    device with {!device_schedule}; a tick that does not re-arm fires
    exactly once.  Change [next_due] only through {!device_schedule}
    and {!device_idle}. *)
type device = {
  dev_name : string;
  mutable next_due : int;
  mutable dev_tick : t -> unit;
}

(** First data address routed to MMIO handlers instead of memory. *)
val mmio_base : int

val create : ?mem_words:int -> ?cores:int -> Cost.t -> t

(** {1 Cores (SMP Quamachine)}

    Host services (register access, [charge], [peek]/[poke], code
    synthesis) act on the {e active} core — during execution the core
    whose instruction (or hcall) is running, between steps whichever
    core was last active or was selected with [set_active_core]. *)

(** Hard cap on [create ~cores]. *)
val max_cores : int

val num_cores : t -> int

(** The active core's id. *)
val current_core : t -> int

(** Retarget host services at core [i] (staging a secondary core's
    registers at boot, inspecting another core in tests). *)
val set_active_core : t -> int -> unit

(** Wake core [i] at the caller's present; its registers, stack, and
    pc must have been staged via [set_active_core]. *)
val start_core : t -> int -> unit

val core_stopped : t -> int -> bool

(** Has [start_core] ever woken this core?  (A stop-waiting core is
    [core_stopped] but still started; core 0 boots started.) *)
val core_started : t -> int -> bool

val core_pc : t -> int -> int

(** Per-core counters: local clock, instructions, memory references,
    interrupts accepted, Cas executed, Cas that observed a changed
    word (lost races — on several cores, real cross-core contention). *)

val core_cycles : t -> int -> int
val core_insns : t -> int -> int
val core_refs : t -> int -> int
val core_irqs : t -> int -> int
val core_cas_lost : t -> int -> int

(** Completion time: the largest local clock over all cores. *)
val max_core_cycles : t -> int

(** Seed the rotating tie-break of the core-interleaving schedule. *)
val set_schedule_seed : t -> int -> unit

(** kfault: delay core [cpu]'s next turn by skewing its local clock —
    the lever for forcing a different cross-core interleaving. *)
val stall_core : t -> cpu:int -> cycles:int -> unit

(** {1 Counters and simulated time} *)

val cycles : t -> int
val insns_executed : t -> int
val mem_refs : t -> int

(** Interrupts accepted by the CPU since reset. *)
val irqs_taken : t -> int

val time_us : t -> float

(** Host services account their cost explicitly. *)
val charge : t -> int -> unit

(** Charge [n] memory references (cycles and the reference counter). *)
val charge_refs : t -> int -> unit

type stats = { s_cycles : int; s_insns : int; s_refs : int }

val snapshot : t -> stats
val delta : t -> stats -> stats
val stats_us : t -> stats -> float

(** {1 Registers and status} *)

val get_reg : t -> Insn.reg -> int
val set_reg : t -> Insn.reg -> int -> unit
val get_freg : t -> int -> float
val get_pc : t -> int
val set_pc : t -> int -> unit
val in_supervisor : t -> bool
val set_supervisor : t -> bool -> unit
val pack_sr : t -> int
val other_sp : t -> int
val set_other_sp : t -> int -> unit
val set_vbr : t -> int -> unit
val set_ipl : t -> int -> unit
val set_fp_enabled : t -> bool -> unit
val fp_enabled : t -> bool
val last_fault_addr : t -> int

(** {1 Memory} *)

(** Checked, charged access (protection + MMIO dispatch); what
    executing instructions use. *)
val read_mem : t -> int -> int

val write_mem : t -> int -> int -> unit

(** Host-side access: unchecked and uncharged; pair with [charge]. *)
val peek : t -> int -> int

val poke : t -> int -> int -> unit

val map_mmio_read : t -> addr:int -> (unit -> int) -> unit
val map_mmio_write : t -> addr:int -> (int -> unit) -> unit

(** Address-space maps: a map is a list of [(base, length)] segments
    user-mode code may touch. *)
val define_map : t -> id:int -> (int * int) list -> unit

val map_segments : t -> id:int -> (int * int) list
val set_map : t -> int -> unit
val mem_words : t -> int

(** {1 Code store}

    Every write to a slot compiles its instruction for the step loop
    there and then.  Compiling never fails: an instruction that cannot
    run (an unresolved label, an immediate destination, a
    pseudo-instruction patched in) raises [Invalid_argument] only when
    the slot executes.  [append_code] still refuses labels and probes
    up front. *)

(** Append resolved instructions; returns the entry address. *)
val append_code : t -> Insn.insn list -> int

(** Reserve a patchable region of [n] slots (initially halting). *)
val reserve_code : t -> int -> int

(** Rewrite one instruction in place — executable data structures.
    The next execution of the slot runs the new instruction. *)
val patch_code : t -> int -> Insn.insn -> unit

val read_code : t -> int -> Insn.insn
val code_size : t -> int

(** {1 Host-side probes}

    A probe is a host closure on a code slot: the step loop runs it
    just before the slot's instruction executes (not when an interrupt
    is taken in front of it).  It must only observe, so probed and
    unprobed runs are cycle- and instruction-identical.  [patch_code]
    keeps a slot's probes. *)

(** Hang [f] on slot [addr], after any probes already there. *)
val add_probe : t -> int -> (t -> unit) -> unit

(** Remove every probe in [entry .. entry+len-1]. *)
val clear_probes : t -> entry:int -> len:int -> unit

(** {1 Host calls} *)

(** Register a host service invocable by [Insn.Hcall]; returns its id. *)
val register_hcall : t -> (t -> unit) -> int

(** {1 Devices and interrupts} *)

(** Register a device with its first deadline ([max_int] = idle).
    Devices due at the same step tick newest first. *)
val add_device : t -> name:string -> due:int -> tick:(t -> unit) -> device

(** Set the device's next (one-shot) deadline, replacing any pending
    one.  O(1) unless it moves the machine's earliest deadline later.
    A deadline at or before the present fires at the next device pass,
    which runs at the end of a step. *)
val device_schedule : t -> device -> int -> unit

(** Cancel the device's pending deadline. *)
val device_idle : t -> device -> unit

(** Look up an installed device by name (kfault stalls device
    completions by rescheduling or idling its deadline). *)
val find_device : t -> string -> device option

(** Unregister a device (e.g. disarming a fault injector). *)
val remove_device : t -> device -> unit

(** [source] labels the posting device for the observability hooks;
    [cpu] targets a core directly, otherwise core 0.  Posting to a stopped core wakes it at the caller's
    present. *)
val post_interrupt :
  ?source:string -> ?cpu:int -> t -> level:int -> vector:int -> unit

(** Clear [level]'s pending interrupt on the acting core only (the
    per-core acknowledge register {!Mmio_map.irq_ack}); other cores'
    pending interrupts at the same level stay posted.  Levels outside
    1..7 are ignored. *)
val ack_interrupt : t -> level:int -> unit

(** {2 Sleeping machines}

    While every core is stopped, only device ticks change the
    machine's state, so a device whose ticks would find nothing to do
    may skip to the next event: the earliest other deadline
    ([next_event]).  It must go back to its own schedule when a core
    wakes ([on_wake]) or host code hands it work. *)

(** Is every core stopped (asleep or never started)? *)
val all_stopped : t -> bool

(** The global clock that device deadlines fire against: the smallest
    local clock among runnable cores ([cycles] reads the acting
    core's). *)
val global_cycles : t -> int

(** The earliest deadline among the devices other than [except],
    bounded by the cycle budget of the {!run} in progress; [max_int]
    if there is neither. *)
val next_event : t -> except:device -> int

(** Call [f] whenever a stopped core becomes runnable: an interrupt
    posted to it (by a device tick or by host code) or {!start_core}.
    It runs after the core is woken. *)
val on_wake : t -> (unit -> unit) -> unit

(** {1 Power cuts (kcrash)}

    Devices that model persistence register a cut handler; the
    argument is the torn-word bound for an in-flight write (-1 = the
    transfer is lost whole, [k >= 0] = exactly the first [k] words
    land). *)

val register_power_hook : t -> device:string -> (int -> unit) -> unit

(** Cut power to the named device at the current cycle; cuts to
    devices with no registered handler are ignored. *)
val power_cut : t -> device:string -> torn_words:int -> unit

(** {1 Frame faults (kserve)}

    Devices that move frames (the NIC) register a handler; [dir] is
    0 = rx, 1 = tx and [kind] is 0 = drop, 1 = duplicate, 2 = reorder.
    The handler arms a one-shot fault against the next frame moved in
    that direction. *)

val register_frame_hook :
  t -> device:string -> (dir:int -> kind:int -> unit) -> unit

(** Arm a one-shot frame fault; faults to devices with no registered
    handler are ignored (same contract as [power_cut]). *)
val frame_fault : t -> device:string -> dir:int -> kind:int -> unit

(** {1 Observability hooks} *)

val set_hooks : t -> hooks option -> unit

(** {1 Cycle attribution by owner}

    A second, coarser profile: every code address maps to an integer
    owner (a thread, a quaject, a synthesized routine...) and every
    elapsed cycle is accumulated against exactly one owner, so the
    per-owner totals sum to the machine total over the attributed
    window.  Owners [0..owner_first-1] are reserved:
    {ul
    {- [owner_unowned] — code nobody registered;}
    {- [owner_host] — host-side services ([charge]/[charge_refs]) and
       device ticks;}
    {- [owner_idle] — stopped-CPU time fast-forwarded to the next
       device event;}
    {- [owner_irq] — exception/interrupt delivery (vector fetch,
       frame pushes).}} *)

val owner_unowned : int
val owner_host : int
val owner_idle : int
val owner_irq : int

(** First id available for registered owners. *)
val owner_first : int

val attribution_enable : t -> bool -> unit

(** Assign code addresses [entry .. entry+len-1] to [owner]. *)
val set_owner_range : t -> entry:int -> len:int -> owner:int -> unit

(** Attribute host-charged cycles accumulated since the last step to
    [owner_host]; call before reading totals so the books balance. *)
val attribution_flush : t -> unit

val owner_cycles : t -> int -> int

(** Largest owner id with an accumulator slot. *)
val max_owner : t -> int

(** {1 Execution} *)

(** [Insn_limit] means a budget ran out: the instruction one, or the
    cycle one. *)
type run_result = Halted | Insn_limit

val step : t -> unit

(** Step until the machine halts or a budget runs out:
    [max_insns] instructions executed, or [max_cycles] simulated
    cycles on the global clock.  Only the cycle budget can end a run
    whose cores all sleep while its devices keep ticking.  The run
    ends at the same cycle whether or not a device skips idle ticks
    ({!next_event} includes the budget). *)
val run : ?max_insns:int -> ?max_cycles:int -> t -> run_result
val halted : t -> bool
val set_halted : t -> bool -> unit

(** A fault was raised while entering a fault handler (ruined
    supervisor stack or unreadable vector); the machine halted, like a
    68020 double bus fault. *)
val double_faulted : t -> bool

(** Acknowledge a double fault so a recovery host can resume the
    machine and still detect the next one. *)
val clear_double_fault : t -> unit

val stopped : t -> bool
val cost_model : t -> Cost.t

(** {1 kfault: transient CAS-failure injection}

    Deterministic fault injection for the optimistic-synchronization
    retry loops.  [Cas] instructions are numbered from 1 as they
    execute; arming a failure at index [at] makes that Cas suppress
    its store and report Z clear — indistinguishable from losing the
    race to another processor — then invoke [hook] (which may re-arm
    for a later index).  Entirely host-side: with nothing armed the
    Cas path pays one integer compare, and simulated cycle, insn, and
    reference counts are identical to a machine without the feature. *)

(** Cas instructions executed since reset. *)
val cas_executed : t -> int

(** Force the [at]-th Cas (1-based, must be in the future) to fail. *)
val set_cas_fail : t -> at:int -> hook:(t -> unit) -> unit

val clear_cas_fail : t -> unit
val cas_fail_armed : t -> bool

(** {1 Trace (kernel monitor, §6.1)} *)

val trace_enable : t -> bool -> unit

(** The most recent executed PCs, oldest first. *)
val trace_window : t -> int -> int list

(** {1 PC sampling (kperf PMU)}

    Timer-driven sampling in the step loop, mirroring the Quamachine's
    built-in instrumentation (§6.1): every [period] cycles the hook
    receives the pc just executed and the cycles elapsed since the
    previous sample (so weights tile the sampled window).  Entirely
    host-side — simulated cycle and instruction counts are identical
    with sampling on, off, or never configured; [Pmu] wraps this with
    counter windows and a sample buffer. *)

val set_sampling : t -> period:int -> (pc:int -> weight:int -> unit) -> unit
val clear_sampling : t -> unit
