(* Memory-mapped device register allocation (all in the MMIO window). *)

let base = Machine.mmio_base

(* Real-time clock (§6.1 measurement facilities). *)
let rtc_us = base + 0x00

(* Interval timer: write an interval in microseconds to arm a one-shot
   alarm interrupt; write 0 to cancel; read remaining microseconds. *)
let timer_alarm = base + 0x10

(* SMP: each core owns a private quantum timer; core [c]'s register is
   [timer_alarm + c] (c < 8, so the window stops short of [alarm_set]).
   Core 0's is the plain [timer_alarm] the uniprocessor always used. *)
let timer_alarm_for c = timer_alarm + c

(* Second interval timer for user-visible alarms (Table 5). *)
let alarm_set = base + 0x18

(* SMP per-core register window: shared kernel paths (yield, block,
   procedure chaining) must act on the *executing* core's
   current-thread state, whichever core that is.  These registers
   dispatch, host-side, to the executing core's kernel cells — the
   same one-memory-reference cost as reading the cell directly, so a
   one-core machine is cycle-identical whether code uses the cell or
   the window.  Installed by the kernel (which owns the cell layout). *)
let cur_sw_out = base + 0x60
let cur_tte = base + 0x61
let cur_tid = base + 0x62
let chain_scratch = base + 0x63

(* Interrupt acknowledge, also per core: writing a level clears that
   level's pending interrupt on the executing core only.  A handler
   that has already seen the cause of an interrupt it holds off (a
   serve pump's wait handler, woken while masked) drops it here rather
   than taking its entry once the mask lifts.  Installed with the CPU
   control registers. *)
let irq_ack = base + 0x64

(* Serial TTY. *)
let tty_data_in = base + 0x20
let tty_data_out = base + 0x22

(* Disk controller. *)
let disk_block = base + 0x30
let disk_buffer = base + 0x31
let disk_command = base + 0x32
let disk_status = base + 0x33

(* A/D converter (two-channel 16-bit analog input, §6.1). *)
let ad_data = base + 0x40

(* D/A converter (sound output). *)
let da_data = base + 0x50

(* The network card (kserve) has no registers: it is configured from
   the host and driven through polled data cells (Devices.Nic), and
   owns only [nic_level] and [nic_vector] below. *)

(* CPU control: write 0/1 to disable/enable the FP coprocessor for the
   currently running thread (used by the lazy-FP context switch). *)
let fp_control = base + 0xFF0

(* User stack pointer: the inactive stack pointer, readable/writable
   from supervisor mode (68k "move usp" equivalent). *)
let usp = base + 0xFF1

(* Interrupt levels and autovectors. *)
let timer_level = 6
let ad_level = 5
let tty_level = 4
let disk_level = 3
let alarm_level = 2
let nic_level = 1

let timer_vector = Insn.Vector.autovector timer_level
let ad_vector = Insn.Vector.autovector ad_level
let tty_vector = Insn.Vector.autovector tty_level
let disk_vector = Insn.Vector.autovector disk_level
let alarm_vector = Insn.Vector.autovector alarm_level

(* The NIC supplies its own vector during the interrupt acknowledge
   cycle instead of using autovector(1): level 1's autovector belongs
   to the cross-core signal IPI, and routing card interrupts through
   the signal handler corrupts whatever thread they land on. *)
let nic_vector = 12
