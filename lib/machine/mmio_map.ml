(* Memory-mapped device register allocation (all in the MMIO window). *)

let base = Machine.mmio_base

(* Real-time clock / monitor counters (§6.1 measurement facilities). *)
let rtc_us = base + 0x00
let rtc_cycles = base + 0x01
let rtc_insns = base + 0x02

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
let tty_status = base + 0x21
let tty_data_out = base + 0x22

(* Disk controller. *)
let disk_block = base + 0x30
let disk_buffer = base + 0x31
let disk_command = base + 0x32
let disk_status = base + 0x33

(* A/D converter (two-channel 16-bit analog input, §6.1). *)
let ad_data = base + 0x40
let ad_control = base + 0x41

(* D/A converter (sound output). *)
let da_data = base + 0x50

(* Network card (kserve).  Each of the card's queues has two
   descriptor rings in guest memory (4-word descriptors: buf, len,
   status, tag); the card DMAs frames into posted rx buffers and
   drains posted tx buffers.  Head/tail indices are free-running;
   occupancy = head - tail.  The ring, index, mailbox and counter
   registers address the queue last written to [nic_qsel].

   User-mode pumps cannot reach the MMIO window (supervisor-only), so
   the card also supports *mailbox cells* in ordinary data memory —
   the rx head is written back to [nic_rx_mail] after every delivery
   (Intel-style head writeback) and the consumer/producer indices are
   polled from [nic_rx_tail_cell]/[nic_tx_head_cell] on each service
   tick.  The MMIO registers remain authoritative for supervisor code
   and tests.  A queue's *arm cell* (set with [Devices.Nic.host_config_rx
   ~arm]) is polled too: a queue that has one interrupts only while the
   cell is nonzero, and the card clears it when it posts, so a consumer
   that arms on its way to sleep is interrupted once, to wake, and
   never while busy. *)
let nic_rx_ring = base + 0x70
let nic_rx_len = base + 0x71
let nic_rx_head = base + 0x72 (* read: device fill index *)
let nic_rx_tail = base + 0x73 (* r/w: consumer index *)
let nic_tx_ring = base + 0x74
let nic_tx_len = base + 0x75
let nic_tx_head = base + 0x76 (* r/w: producer doorbell *)
let nic_tx_tail = base + 0x77 (* read: device consume index *)
let nic_ctrl = base + 0x78 (* bit0 = enable *)
let nic_coalesce = base + 0x79 (* completions per interrupt (0/1 = every) *)
let nic_cause = base + 0x7A (* read-to-clear: bit0 rx, bit1 tx *)
let nic_admit = base + 0x7B (* max admitted rx occupancy; 0 = unlimited *)
let nic_shed = base + 0x7C (* read: frames shed by admission control *)
let nic_overrun = base + 0x7D (* read: frames dropped on rx ring full *)
let nic_rx_mail = base + 0x7E (* write: rx-head writeback cell (0 = off) *)
let nic_tx_mail = base + 0x7F (* write: tx-tail writeback cell (0 = off) *)
let nic_rx_tail_cell = base + 0x80 (* write: polled consumer-index cell *)
let nic_tx_head_cell = base + 0x81 (* write: polled doorbell cell *)
let nic_qsel = base + 0x82 (* r/w: queue the per-queue registers address *)

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
