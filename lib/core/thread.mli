(** Synthesis threads (§4): creation fills the ~1 KiB TTE and
    synthesizes the thread's private kernel code (switch procedures,
    fd dispatchers); signal/start/stop/step/destroy manipulate only
    the TTE and the executable ready queue. *)

(** Create a thread whose saved context enters [entry] in user mode.
    It gets a 512-word user stack.
    [segments] extends its quaspace; [share_map] joins another
    thread's quaspace instead (enabling the non-MMU switch path
    between them); [system] threads don't keep the machine alive.
    ~142 µs of simulated time (Table 3). *)
val create :
  Kernel.t ->
  ?cpu:int ->
  ?quantum_us:int ->
  ?uses_fp:bool ->
  ?segments:(int * int) list ->
  ?system:bool ->
  ?share_map:Kernel.tte ->
  entry:int ->
  unit ->
  Kernel.tte

val destroy : Kernel.t -> Kernel.tte -> unit

(** Suspend: unlink the TTE from the ready queue. *)
val stop : Kernel.t -> Kernel.tte -> unit

(** Resume at the front of the ready queue, preempting the CPU. *)
val start : Kernel.t -> Kernel.tte -> unit

(** Run one instruction of a stopped thread, then stop again (§4.3's
    debugger support).  Poll {!fully_stopped} before reading state. *)
val step : Kernel.t -> Kernel.tte -> unit

(** A stopped thread's context is in its TTE only once its switch-out
    has run; wait for this before reading registers or re-stepping. *)
val fully_stopped : Kernel.t -> Kernel.tte -> bool

(** Restart a crashed thread: rebuild the initial register image from
    the creation parameters kept in the TTE, clear pending signal
    state, reinsert at the front of the ready queue, and bump the
    "kernel.thread_restarts_total" metric.  The synthesized switch
    code and fd tables survive.  Raises on a destroyed (zombie)
    thread.  Also reachable as [Kernel.restart_thread]. *)
val restart : Kernel.t -> Kernel.tte -> unit

(** {1 Saved context access (host-side debugger)} *)

val saved_pc : Kernel.t -> Kernel.tte -> int
val saved_reg : Kernel.t -> Kernel.tte -> Quamachine.Insn.reg -> int
val set_saved_reg : Kernel.t -> Kernel.tte -> Quamachine.Insn.reg -> int -> unit

(** {1 Signals (§4.3)} *)

(** Rewrite a return address to run the thread's signal trampoline:
    the TTE's saved PC for a thread suspended in user mode, the
    deepest kernel-stack frame for one inside a kernel operation
    (Procedure Chaining).  A thread running on {e another} core right
    now is queued on [k.sig_xc] and its home core is interrupted at
    {!sig_ipi_level}; the IPI handler re-delivers there.  [false] if
    no handler is registered. *)
val deliver_signal : Kernel.t -> Kernel.tte -> bool

val sig_ipi_vector : int

(** Re-deliver queued cross-core signals targeting the executing core
    (the body of the IPI handler Boot installs). *)
val drain_cross_signals : Kernel.t -> unit

(** Synthesize the user-mode trampoline with [handler] folded in. *)
val set_signal_handler : Kernel.t -> Kernel.tte -> int -> unit

(** {1 Error traps (§4.3)} *)

(** Install a user-mode error procedure: the synthesized trap handler
    copies the exception frame (faulting PC, then SR) onto the user
    stack and re-enters user mode at [user_proc] — arbitrarily complex
    error handling in user mode, including emulation of unimplemented
    instructions.  Returns the handler's entry point. *)
val set_error_handler : Kernel.t -> Kernel.tte -> user_proc:int -> int

(** {1 Blocking protocol} *)

(** Memoized host-call ids for a wait queue. *)
val block_hcall : Kernel.t -> Kernel.waitq -> int

val unblock_hcall : Kernel.t -> Kernel.waitq -> int

(** Pop one waiter and put it at the front of the ready queue,
    arming a short preemption (§4.4: minimize response time). *)
val unblock : Kernel.t -> Kernel.waitq -> Kernel.tte option

(** Wake every waiter; each re-checks its condition on resume. *)
val unblock_all : Kernel.t -> Kernel.waitq -> unit

(** Fragment a synthesized kernel path embeds to block the current
    thread on [wq] and resume at label [retry] in supervisor mode.
    Callers are responsible for the lost-wakeup guard (see
    [Tty.guarded_block]). *)
val block_code : Kernel.t -> Kernel.waitq -> retry:string -> Quamachine.Insn.insn list
