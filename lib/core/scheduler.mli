(** Fine-grain scheduling (§4.4): round-robin order comes from the
    executable ready queue; this module retunes each thread's CPU
    quantum from its measured I/O rate by patching the quantum
    immediate in the thread's synthesized switch-in code. *)

(** Install as a periodic machine device rebalancing every
    [epoch_us], assigning quanta from 100 to 1,000 µs.  Each rebalance
    bumps [sched.rebalances] (and [sched.retunes] per changed quantum)
    and records an epoch (the registry keeps the newest 64), all in
    the kernel's [metrics].  With a trace attached it also sets the
    [sched.share_drift] gauge from the trace's switch events; an
    untraced run measured no shares and leaves it unset. *)
val install : Kernel.t -> ?epoch_us:int -> unit -> unit
