(** Kernel data-memory layout: global cells kept current by
    synthesized code, the heap region, and the TTE block layout
    (Figure 3). *)

(** Data address of the running thread's TTE (core 0's copy). *)
val cur_tte_cell : int

val chain_scratch_cell : int

(** {1 SMP per-core cells} — each core owns four cells: the code
    address of its running thread's switch-out routine (updated by
    every thread's synthesized switch-in, so shared kernel paths can
    block without knowing who runs them), its running thread's TTE,
    its tid, and a chain scratch word.  Core 0's are the historical
    global cells (a one-core kernel lays memory out byte-identically
    to the uniprocessor); secondary cores' sit in private 4-word
    blocks after them.  Shared code reaches the executing core's copy
    through the MMIO window ({!Mmio_map.cur_sw_out} &c). *)

val cur_sw_out_cell_for : int -> int
val cur_tte_cell_for : int -> int
val cur_tid_cell_for : int -> int
val chain_scratch_cell_for : int -> int

(** Reserved data window for fault-injection bit flips
    ([Fault_inject.config.flip_base/flip_len]): tests aim flips here
    instead of hard-coding magic addresses.  Nothing in the kernel
    reads or writes it. *)
val fault_scratch_base : int

val fault_scratch_words : int
val heap_base : int
val heap_limit : int
val boot_stack_top : int

(** TTE block layout: offsets into the 256-word (~1 KiB) block. *)
module Tte : sig
  val size_words : int
  val off_tid : int

  (** r0..r15 at +0..+15, then SR, PC, USP. *)
  val off_regs : int

  val off_pc : int
  val off_map : int
  val off_quantum : int
  val off_flags : int

  (** I/O events for fine-grain scheduling. *)
  val off_gauge : int

  (** the private vector table (48 entries). *)
  val off_vectors : int

  (** 32 synthesized-routine addresses. *)
  val off_fd_read : int

  val off_fd_write : int
  val off_sig_pending : int
  val off_sig_handler : int
  val off_sig_inh : int
  val off_sig_queued : int
  val off_kstack : int
  val kstack_words : int
  val off_fp_save : int
  val max_fds : int
end
