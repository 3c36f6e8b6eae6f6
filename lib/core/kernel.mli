(** The Synthesis kernel instance: the simulated machine and its
    devices, the kernel allocator, the thread table, and the registry
    of synthesized code.  The running thread is identified by the
    [Layout.cur_tte_cell] kernel global, which every thread's
    synthesized switch-in code keeps current — host structures mirror
    the machine, they never drive it.

    The records are transparent: subsystem modules are the kernel and
    manipulate them directly. *)

open Quamachine

type thread_state = Ready | Blocked | Stopped | Zombie

(** ksynth: one memoized code page — the unit the synthesis cache
    hands out.  Instantiations with the same key share the page
    (read-only by convention), refcounted by live handles; patching a
    shared page forks a private copy, patching a sole-owner cached
    page detaches it in place ([sp_cached = false]). *)
type synth_page = {
  sp_key : string;  (** cache key; stable across re-instantiations *)
  sp_name : string;  (** name of the first instantiation *)
  sp_kind : string;  (** arena kind (name prefix by default) *)
  mutable sp_entry : int;
  sp_len : int;
  mutable sp_syms : (string * int) list;
  mutable sp_refs : int;  (** live handles *)
  mutable sp_hits : int;
  mutable sp_stamp : int;  (** LRU clock at last use *)
  mutable sp_cached : bool;  (** still reachable through the cache? *)
  sp_pinned : bool;  (** boot-time install: never evicted or released *)
}

(** Host-side probes.  A template marks zero-width probe points
    ([Insn.Probe name]); the synthesizing site binds each name to an
    action, recorded with the code and hung on the machine's probe
    table for whichever layers are attached, now or later.  [Trace]
    emits into the trace (its black box too, with collection off). *)
type probe_action =
  | Trace of (Machine.t -> Ktrace.kind)
  | Span of (Kspan.t -> Machine.t -> unit)

type probe = string * probe_action  (** point name, action *)

(** ksynth: the recipe kept for an evicted page, so a later re-miss on
    the same key resynthesizes from the recorded generator. *)
type synth_recipe = {
  rc_name : string;
  rc_kind : string;
  rc_template : Template.t;
  rc_env : (string * int) list;
  rc_probes : (int * probe) list;  (** bound probe points, entry-relative *)
}

type tte = {
  tid : int;
  base : int; (** data address of the 256-word TTE block (Figure 3) *)
  map_id : int;
  mutable cpu : int; (** home core: which ready ring it runs on *)
  mutable state : thread_state;
  mutable sw_out : int;
  mutable sw_in : int;
  mutable sw_in_mmu : int;
  mutable jmp_slot : int; (** the ready queue's patchable jmp *)
  mutable quantum_slot : int; (** the scheduler's patchable quantum *)
  mutable uses_fp : bool;
  mutable quantum_us : int;
  mutable rq_next : tte option; (** host mirror of the executable ring *)
  mutable rq_prev : tte option;
  mutable waiting_on : string option;
  mutable owned_blocks : int list;
  mutable owned_pages : int list;
      (** ksynth page entries released at destroy *)
  mutable is_system : bool;
  mutable entry : int;  (** original entry point (crash restart) *)
  mutable ustack : int;
  mutable ustack_words : int;
}

(** A per-resource wait queue (§4.1: no general blocked queue). *)
type waitq = {
  wq_name : string;
  mutable waiters : tte list;
  mutable wq_block_hcall : int;
  mutable wq_unblock_hcall : int;
}

val waitq : name:string -> waitq

(** One entry in the bounded fault log; [f_tid] is 0 for faults not
    attributable to a thread (e.g. a machine double fault); [f_cpu] is
    the core that was executing when the fault was logged. *)
type fault_entry = { f_cycle : int; f_tid : int; f_cpu : int; f_reason : string }

(** kheal: one record per synthesized code region — the generator
    (template + the exact invariant bindings synthesis folded in) and
    a checksum of the installed instructions, enough to detect
    corruption and rebuild the region in place.  [cr_patches] holds
    every legitimate post-synthesis patch (newest first per address)
    so repair restores live values; [cr_mutable] names
    scheduling-state slots that cross-kernel comparison must skip;
    [cr_probes] are the bound probe points, entry-relative. *)
type code_region = {
  cr_name : string;
  cr_entry : int;
  cr_len : int;
  cr_template : Template.t;
  cr_env : (string * int) list;
  mutable cr_patches : (int * Insn.insn) list;
  mutable cr_mutable : int list;
  mutable cr_checksum : int;
  mutable cr_probes : (int * probe) list;
}

type t = {
  machine : Machine.t;
  alloc : Kalloc.t;
  timer : Devices.Timer.t;  (** core 0's quantum timer, [= timers.(0)] *)
  timers : Devices.Timer.t array;  (** per-core quantum timers *)
  alarm : Devices.Timer.t;
  tty : Devices.Tty.t;
  disk : Devices.Disk.t;
  ad : Devices.Ad.t;
  da : Devices.Da.t;
  threads : (int, tte) Hashtbl.t;
  by_base : (int, tte) Hashtbl.t;
  mutable next_tid : int;
  rq_anchors : tte option array;  (** per-core executable ready rings *)
  mutable registry : (string * int * int) list;
  mutable code_regions : code_region list;  (** kheal region table, newest first *)
  mutable synthesized_insns : int;
  codegen_cycles_fixed : int;
  codegen_cycles_per_insn : int;
  default_vectors : int array;
  shared : (string, int) Hashtbl.t;  (** named entries ([Ksynth.lookup]) *)
  synth_cache : (string, synth_page) Hashtbl.t;  (** key → live page *)
  page_index : (int, synth_page) Hashtbl.t;
      (** every code address of every live page (O(1) shared test) *)
  synth_arenas : (string, Kalloc.arena) Hashtbl.t;
  synth_caps : (string, int) Hashtbl.t;
      (** optional per-kind live-word budgets (LRU eviction) *)
  synth_evicted : (string, synth_recipe) Hashtbl.t;
  mutable synth_clock : int;
  mutable pipe_carcasses : (int * int * int * waitq * waitq) list;
      (** recycled (cap, desc, buf, readers, writers): reusing cells
          and wait queues keeps a reopened pipe's code byte-identical,
          which is what lets the synthesis cache hit *)
  idle_threads : tte option array;  (** per-core pinned idle threads *)
  mutable sig_xc : tte list;
      (** threads with a cross-core signal awaiting their home core's
          signal IPI (drained by the boot-installed IPI handler) *)
  mutable fault_log : fault_entry list;  (** newest first, bounded *)
  mutable fault_log_len : int;
  mutable fault_dropped : int;  (** entries evicted by the bound *)
  metrics : Metrics.t;  (** kernel-wide counters/gauges *)
  mutable ktrace : Ktrace.t option;
  mutable restart_hook : (tte -> unit) option;
      (** [Thread.restart], installed at boot *)
  mutable kspan : Kspan.t option;
      (** request-scoped spans; None = never attached *)
  mutable last_postmortem : string option;
      (** most recent {!postmortem} dump *)
}

val create : ?cost:Cost.t -> ?mem_words:int -> ?cores:int -> unit -> t

(** {1 Cores}

    A one-core kernel is byte- and cycle-identical to the uniprocessor
    kernel it replaces; with [create ~cores:n] each core owns a
    quantum timer, an executable ready ring, an idle thread, and a
    private copy of the current-thread kernel cells. *)

val cores : t -> int

(** The core whose instruction (or hcall) is executing. *)
val this_cpu : t -> int

val timer_for : t -> int -> Devices.Timer.t
val anchor : t -> int -> tte option
val set_anchor : t -> int -> tte option -> unit
val idle_of : t -> int -> tte option
val set_idle : t -> int -> tte -> unit

(** Is [t] one of the per-core idle threads? *)
val is_idle : t -> tte -> bool

(** {1 Fault log} *)

(** Maximum entries retained in [fault_log] (oldest evicted first). *)
val fault_log_cap : int

(** Record a fault: prepend a bounded structured entry, bump the
    "kernel.faults_total" counter, and emit [Ktrace.Fault] when a
    trace is attached.  Host-side — charges no simulated cycles. *)
val log_fault : t -> tid:int -> reason:string -> unit

(** Total faults ever logged (survives fault-log eviction). *)
val faults_total : t -> int

(** {1 Tracing}

    Attached or not, synthesized code is byte-identical and runs in
    the same cycles: trace probes are host-side. *)

(** Attach: machine hooks, cycle attribution from now on, owner
    registration for everything synthesized so far and hereafter, and
    every trace probe bound so far and hereafter. *)
val attach_tracing : t -> Ktrace.t -> unit

(** Emit an event if tracing is attached. *)
val trace : t -> Ktrace.kind -> unit

(** {1 Spans}

    Request-scoped causal tracing ({!Kspan}).  Like tracing, attaching
    changes no simulated cycle: span probes are host-side. *)

(** Attach a span layer sharing the kernel metrics registry and the
    attached trace (attach tracing first if events are wanted), and
    arm every span probe bound so far and hereafter. *)
val attach_spans : t -> Kspan.t

(** Run a host-side span action if a layer is attached; free
    otherwise. *)
val span : t -> (Kspan.t -> unit) -> unit

(** {1 Probes} *)

(** Bind a fragment's [Insn.Probe] points: (offset, binding) for every
    binding of each point's name, in fragment order. *)
val probe_points : Insn.insn list -> probe list -> (int * probe) list

(** Replace a region's probe points (entry-relative) and rearm its
    range for the layers attached now. *)
val set_region_probes : t -> code_region -> (int * probe) list -> unit

(** {1 Flight recorder}

    Assemble the crash black box — last trace events, open spans,
    fault log, kheal registry state, metrics — into one readable dump,
    remembered in [last_postmortem].  Called on double fault, failed
    repair, watchdog escalation, and by the harness when an invariant
    trips; host-side only, charges nothing. *)
val postmortem : ?reason:string -> t -> string

(** {1 Code synthesis}

    [Ksynth.instantiate] is the code-generation API; the functions
    here are the backends underneath it. *)

(** ksynth backend: install an already-optimized body at [at] (an
    arena range of patchable slots), with {!register_region}'s
    bookkeeping.  Charges nothing — the cache prices hits and misses.
    Returns the absolute symbol table. *)
val install_at :
  ?probes:(int * probe) list ->
  t ->
  name:string ->
  at:int ->
  template:Template.t ->
  env:(string * int) list ->
  Insn.insn list ->
  Asm.symbols

(** ksynth backend: drop the registry and kheal records of the page at
    [entry] (freed or evicted), and clear its probes. *)
val unregister_region : t -> entry:int -> unit

(** Record code installed outside [install_at]: registry entry, kheal
    region (checksumming current content), trace owner, and [probes]
    (entry-relative) bound. *)
val register_region :
  ?probes:(int * probe) list ->
  t ->
  name:string ->
  entry:int ->
  len:int ->
  template:Template.t ->
  env:(string * int) list ->
  unit

(** {1 Threads} *)

val thread : t -> int -> tte option

(** The thread running on a core ([cpu] defaults to the executing
    core), per that core's cur_tte kernel cell. *)
val current : ?cpu:int -> t -> tte option

val current_exn : ?cpu:int -> t -> tte

(** Rebuild a crashed thread's initial context and reinsert it at the
    front of the ready queue, bumping "kernel.thread_restarts_total"
    (dispatches to [Thread.restart] through the boot-installed hook). *)
val restart_thread : t -> tte -> unit

(** {1 Vector tables} *)

val vector_addr : tte -> int -> int
val set_vector : t -> tte -> int -> int -> unit

(** Set a default vector and propagate to all existing threads. *)
val set_vector_all : t -> int -> int -> unit

(** {1 kheal: code-region audit and repair by resynthesis}

    Kernel code is data the kernel can regenerate: every synthesized
    region is recorded with its template and invariants, corruption is
    detected by checksum mismatch (or a faulting PC inside a region),
    and repair reruns the synthesizer in place.  Detection is
    host-side and free; repair charges the normal code-generation
    cost, bumps "kernel.code_repairs_total", and logs to
    [fault_log]. *)

(** Region containing a code address (e.g. a faulting PC). *)
val find_region : t -> int -> code_region option

(** Newest region registered under [name]. *)
val find_region_by_name : t -> string -> code_region option

(** Does the region's current content disagree with its checksum? *)
val region_dirty : t -> code_region -> bool

(** All regions, oldest first. *)
val code_regions : t -> code_region list

(** Rebuild one region from its template + recorded invariants,
    patch it in place (entries and op slots stay valid), reapply live
    patches, and update the checksum.  [origin] tags the fault-log
    entry ("audit", "trap", "patch"...). *)
val repair_region : ?origin:string -> t -> code_region -> unit

(** Checksum-walk every region and repair the dirty ones; returns the
    number repaired.  Callable from the watchdog — detection charges
    no simulated cycles, each repair charges synthesis cost. *)
val audit_code : ?origin:string -> t -> int

(** The "kernel.code_repairs_total" metric. *)
val code_repairs_total : t -> int

(** Patch one code word through the region table: repairs the owning
    region first if it is already corrupted (a patch must never bless
    corruption into the checksum), records the patch for future
    repairs, and re-checksums.  All legitimate post-synthesis patching
    (ready-ring jmp targets, quantum slots) goes through here.

    ksynth pages: raises [Invalid_argument] if [addr] lies in a page
    shared by several handles (copy-on-patch — [Ksynth.patch] forks a
    private copy instead); a sole-owner cached page silently detaches
    from the cache first, so patched content is never served to a
    fresh instantiation. *)
val patch_code : t -> int -> Insn.insn -> unit

(** Mark a scheduling-state slot (excluded from {!code_state_hash}). *)
val region_mark_mutable : t -> addr:int -> unit

(** Deterministic fingerprint of all regenerable code content, mutable
    slots excluded: identically-booted kernels agree on it, and a
    repaired kernel must converge back to it. *)
val code_state_hash : t -> int

(** {1 Synthesized-code accounting (§6.4)} *)

val registry : t -> (string * int * int) list
val synthesized_insns : t -> int

(** (prefix, routine count, instruction count) per subsystem. *)
val registry_report : t -> (string * int * int) list
