(** Fine-grain scheduling (§4.4): round-robin order comes from the
    executable ready queue; this module retunes each thread's CPU
    quantum from its measured I/O rate by patching the quantum
    immediate in the thread's synthesized switch-in code. *)

type t

(** Install as a periodic machine device rebalancing every
    [epoch_us], assigning quanta from 100 to 1,000 µs. *)
val install : Kernel.t -> ?epoch_us:int -> unit -> t

(** Expected CPU share of a thread under the current quanta:
    quantum / sum of quanta (§4.4). *)
val cpu_share : t -> Kernel.tte -> float

val epochs : t -> int

(** The scheduler's metrics registry ([sched.rebalances],
    [sched.retunes], epoch records).  Shared with the kernel's ktrace
    registry when tracing was attached before [install]. *)
val metrics : t -> Metrics.t

(** Epoch history, newest first. *)
val history : t -> Metrics.epoch_record list
