(** The Synthesis kernel instance: the simulated machine and its
    devices, the kernel allocator, the thread table, and the table of
    synthesized pages.  The running thread is identified by the
    [Layout.cur_tte_cell] kernel global, which every thread's
    synthesized switch-in code keeps current — host structures mirror
    the machine, they never drive it.

    The records are transparent: subsystem modules are the kernel and
    manipulate them directly. *)

open Quamachine

type thread_state = Ready | Blocked | Stopped | Zombie

(** Host-side probes.  A template marks zero-width probe points
    ([Insn.Probe name]); the synthesizing site binds each name to an
    action, recorded with the code and hung on the machine's probe
    table for whichever layers are attached, now or later.  [Trace]
    emits into the trace (its black box too, with collection off). *)
type probe_action =
  | Trace of (Machine.t -> Ktrace.kind)
  | Span of (Kspan.t -> Machine.t -> unit)

type probe = string * probe_action  (** point name, action *)

(** One synthesized page: the unit the synthesis cache ({!Ksynth})
    hands out and the unit kheal audits and rebuilds.  Instantiations
    with the same key share the page (read-only by convention),
    refcounted by live handles; patching a shared page forks a private
    copy, patching a sole-owner cached page detaches it in place
    ([sp_cached = false]).

    The template (a generator closed over the invariants synthesis
    folded in) and the checksum of the installed instructions are
    enough to detect corruption and rebuild the page in place.
    [sp_patches] holds every legitimate post-synthesis patch (newest
    first per address) so repair restores live values; [sp_mutable]
    names scheduling-state slots that cross-kernel comparison must
    skip; [sp_probes] are the bound probe points, entry-relative. *)
type synth_page = {
  sp_key : string;  (** cache key; stable across re-instantiations *)
  sp_name : string;  (** name of the first instantiation *)
  sp_kind : string;  (** arena kind (name prefix by default) *)
  sp_entry : int;
  sp_len : int;  (** instructions *)
  sp_body : Insn.insn list;  (** the optimized body; a cache hit must match it *)
  sp_template : Template.t;
  sp_syms : (string * int) list;
  mutable sp_refs : int;  (** live handles *)
  mutable sp_stamp : int;  (** LRU clock at last use *)
  mutable sp_cached : bool;  (** still reachable through the cache? *)
  sp_pinned : bool;  (** boot-time install: never evicted or released *)
  mutable sp_patches : (int * Insn.insn) list;
  mutable sp_mutable : int list;
  mutable sp_checksum : int;
  mutable sp_probes : (int * probe) list;
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
  mutable ustack : int;  (** 512 words *)
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
  mutable synth_pages : synth_page list;
      (** every live synthesized page, newest first *)
  mutable synthesized_insns : int;
  codegen_cycles_fixed : int;
  codegen_cycles_per_insn : int;
  default_vectors : int array;
  shared : (string, int) Hashtbl.t;  (** named entries ([Ksynth.lookup]) *)
  synth_cache : (string, synth_page) Hashtbl.t;  (** key → cached page *)
  page_index : (int, synth_page) Hashtbl.t;
      (** every code address of every live page ({!find_region}) *)
  synth_arenas : (string, Kalloc.arena) Hashtbl.t;
  synth_caps : (string, int) Hashtbl.t;
      (** optional per-kind live-word budgets (LRU eviction) *)
  evicted_keys : (string, unit) Hashtbl.t;
      (** keys of evicted pages, bounded: a miss on one is resynthesis *)
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

val create : ?cost:Cost.t -> ?cores:int -> unit -> t

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

(** Replace a page's probe points (entry-relative) and rearm its
    range for the layers attached now. *)
val set_region_probes : t -> synth_page -> (int * probe) list -> unit

(** {1 Flight recorder}

    Assemble the crash black box — last trace events, open spans,
    fault log, kheal registry state, metrics — into one readable dump,
    remembered in [last_postmortem].  Called on double fault, failed
    repair, watchdog escalation, and by the harness when an invariant
    trips; host-side only, charges nothing. *)
val postmortem : ?reason:string -> t -> string

(** {1 The page table}

    [Ksynth] builds every page record; these are the only writers of
    [synth_pages] and [page_index]. *)

(** Record a page whose code was just installed: prepend it to
    [synth_pages], index its addresses, checksum its current content,
    register its trace owner and arm its [sp_probes]. *)
val add_page : t -> synth_page -> unit

(** Forget a freed or evicted page: unlist, unindex, clear its probes. *)
val drop_page : t -> synth_page -> unit

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
    page carries its template (invariants bound), corruption is
    detected by checksum mismatch (or a faulting PC inside a page's
    region of code), and repair reruns the synthesizer in place.
    Detection is host-side and free; repair charges the normal
    code-generation cost, bumps "kernel.code_repairs_total", and logs
    to [fault_log]. *)

(** Page containing a code address (e.g. a faulting PC): one lookup
    in [page_index]. *)
val find_region : t -> int -> synth_page option

(** Newest page named [name]. *)
val find_region_by_name : t -> string -> synth_page option

(** Does the page's current content disagree with its checksum? *)
val region_dirty : t -> synth_page -> bool

(** All live pages, oldest first. *)
val pages : t -> synth_page list

(** Rebuild one page from its recorded template,
    patch it in place (entries and op slots stay valid), reapply live
    patches, and update the checksum.  [origin] tags the fault-log
    entry ("audit", "trap", "patch"...). *)
val repair_region : ?origin:string -> t -> synth_page -> unit

(** Checksum-walk every page and repair the dirty ones; returns the
    number repaired.  Callable from the watchdog — detection charges
    no simulated cycles, each repair charges synthesis cost. *)
val audit_code : ?origin:string -> t -> int

(** The "kernel.code_repairs_total" metric. *)
val code_repairs_total : t -> int

(** Patch one code word through the page table: repairs the owning
    page first if it is already corrupted (a patch must never bless
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

val synthesized_insns : t -> int

(** (prefix, routine count, instruction count) per subsystem. *)
val registry_report : t -> (string * int * int) list
