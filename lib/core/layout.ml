(* Kernel data-memory layout.

   All quaspaces are subspaces of one single address space (§2.1); the
   kernel occupies the low region, user quaspaces are carved out of
   the heap by the allocator and exposed to threads via MMU maps. *)

(* Kernel global cells. *)
let globals_base = 0x100

(* Address of the running thread's context-switch-out routine; kept
   current by every thread's synthesized sw_in code so that shared
   kernel paths can block without knowing which thread runs them. *)
let cur_sw_out_cell = globals_base + 0

(* Data address of the running thread's TTE. *)
let cur_tte_cell = globals_base + 1

(* Tid of the running thread. *)
let cur_tid_cell = globals_base + 2

(* Scratch cell used by procedure chaining. *)
let chain_scratch_cell = globals_base + 3

(* SMP: every core owns a private copy of the four cells above.  Core
   0 keeps the historical addresses (a one-core kernel lays out memory
   byte-identically to the uniprocessor); secondary core [c] gets a
   4-word block in the gap before the fault scratch window — room for
   7 secondaries, matching [Machine.max_cores].  Shared kernel code
   reaches the *executing* core's cells through the MMIO register
   window ([Mmio_map.cur_sw_out] &c); per-thread synthesized code
   binds its home core's cell addresses as invariants. *)
let percpu_cells_base = globals_base + 4

let cur_sw_out_cell_for c =
  if c = 0 then cur_sw_out_cell else percpu_cells_base + (4 * (c - 1))

let cur_tte_cell_for c =
  if c = 0 then cur_tte_cell else percpu_cells_base + (4 * (c - 1)) + 1

let cur_tid_cell_for c =
  if c = 0 then cur_tid_cell else percpu_cells_base + (4 * (c - 1)) + 2

let chain_scratch_cell_for c =
  if c = 0 then chain_scratch_cell else percpu_cells_base + (4 * (c - 1)) + 3

(* kfault scratch: a reserved data window for fault-injection bit
   flips, so tests and explorer subjects aim flips at a Layout-derived
   address instead of hard-coding magic numbers.  Nothing in the
   kernel reads or writes this window. *)
let fault_scratch_base = globals_base + 0x40
let fault_scratch_words = 64

(* Kernel heap managed by [Kalloc]. *)
let heap_base = 0x1000
let heap_limit = 0xE0000

(* Supervisor boot stack (before the first thread exists). *)
let boot_stack_top = 0x1000

(* TTE block layout (offsets into a 256-word block ≈ 1 KiB, §6.3). *)
module Tte = struct
  let size_words = 256
  let off_tid = 0
  let off_regs = 1 (* r0..r15 at +1..+16, the SR at +17 *)
  let off_pc = 18 (* the user SP at +19 *)
  let off_map = 20
  let off_quantum = 21
  let off_flags = 22 (* bit 0: uses FP *)
  let off_gauge = 23 (* I/O events counted for fine-grain scheduling *)
  let off_vectors = 24 (* 48 entries: +24 .. +71 *)
  let off_fd_read = 72 (* 32 code addresses: +72 .. +103 *)
  let off_fd_write = 104 (* 32 code addresses: +104 .. +135 *)
  let off_sig_pending = 136
  let off_sig_handler = 137
  let off_sig_inh = 138 (* a signal handler is running *)
  let off_sig_queued = 139 (* deliveries coalesced while handling *)
  let off_kstack = 140 (* kernel stack area: +140 .. +203 *)
  let kstack_words = 64
  let off_fp_save = 204 (* 8 regs * 3 words: +204 .. +227 *)
  let max_fds = 32
end
