(** SMP load balancing: thread migration and work stealing.

    A thread's home core is baked into its synthesized switch code, so
    migration is resynthesis with the destination core's invariants.
    The dispatch guard refuses to move a thread whose context is split
    between its TTE and its home core's registers (it is that core's
    current thread, or the core's PC sits inside the thread's own
    synthesized pages mid-switch). *)

(** Sabotage lever (tests/explorer only): skip the dispatch guard so
    harness invariants can demonstrate the corruption it prevents. *)
val unsafe_skip_guard : bool ref

(** May [t] be pulled off its home ring right now? *)
val stealable : Kernel.t -> Kernel.tte -> bool

(** Move [t] to [cpu]; [false] if the dispatch guard refuses.  Raises
    on a bad core id or an idle thread (pinned). *)
val migrate : Kernel.t -> Kernel.tte -> cpu:int -> bool

(** Steal one thread for [thief] from the most loaded other core
    (victim keeps at least one); bumps "smp.steals_total". *)
val steal : Kernel.t -> thief:int -> Kernel.tte option

(** Periodic stealer device for one core: when [cpu]'s ring holds no
    real work, try to steal some (default every 500 µs). *)
val install_stealer :
  Kernel.t -> cpu:int -> ?period_us:int -> unit -> Quamachine.Machine.device

(** The "smp.migrations_total" / "smp.steals_total" counters. *)
val migrations : Kernel.t -> int

val steals : Kernel.t -> int
