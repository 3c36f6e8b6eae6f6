(** Memory-mapped device register allocation (§6.1's I/O devices) and
    their interrupt levels/vectors. *)

(** {1 Real-time clock} — read the acting core's time in microseconds. *)

val rtc_us : int

(** {1 Interval timers} — write microseconds to arm a one-shot
    interrupt, 0 to cancel, read for the remainder. *)

val timer_alarm : int

(** SMP: core [c]'s private quantum timer register ([timer_alarm + c];
    core 0 keeps the plain [timer_alarm] the uniprocessor used). *)
val timer_alarm_for : int -> int

(** the user-visible alarm timer (Table 5) *)
val alarm_set : int

(** {1 SMP per-core register window} — dispatch, host-side, to the
    {e executing} core's current-thread kernel cells at the same
    one-reference cost as touching the cell directly.  Shared kernel
    paths (yield, block, chaining) go through these; per-thread
    synthesized code binds its home core's cell addresses.  Handlers
    are installed by the kernel, which owns the cell layout. *)

val cur_sw_out : int
val cur_tte : int
val cur_tid : int
val chain_scratch : int

(** Interrupt acknowledge: write a level to clear that level's
    pending interrupt on the executing core only
    ({!Machine.ack_interrupt}). *)
val irq_ack : int

(** {1 Serial TTY} *)

val tty_data_in : int
val tty_data_out : int

(** {1 Disk controller} *)

val disk_block : int
val disk_buffer : int
val disk_command : int
val disk_status : int

(** {1 A/D and D/A converters} *)

val ad_data : int
val da_data : int

(* The network card (kserve) has no registers here: it is configured
   from the host and driven through polled data cells ({!Devices.Nic});
   it owns only [nic_level] and [nic_vector] below. *)

(** {1 CPU control} *)

(** FP-coprocessor availability for the running thread (lazy-FP). *)
val fp_control : int

(** The inactive (user) stack pointer, 68k "move usp" equivalent. *)
val usp : int

(** {1 Interrupt levels and autovectors} *)

val timer_level : int
val ad_level : int
val tty_level : int
val disk_level : int
val alarm_level : int
val nic_level : int
val timer_vector : int
val ad_vector : int
val tty_vector : int
val disk_vector : int
val alarm_vector : int
val nic_vector : int
