(** Instruction set of the simulated Quamachine: a 68020-flavoured
    32-bit CPU with 16 general registers (r15 is the active stack
    pointer), 8 FP registers, condition codes, supervisor state, an
    interrupt priority level and a per-thread vector base register.

    Code and data are separate address spaces; kernel code synthesis
    appends to and patches the instruction store at run time. *)

type reg = int

val r0 : reg
val r1 : reg
val r2 : reg
val r3 : reg
val r4 : reg
val r5 : reg
val r6 : reg
val r7 : reg
val r8 : reg
val r9 : reg
val r10 : reg
val r11 : reg
val r12 : reg
val r13 : reg
val r14 : reg

(** r15: the active stack pointer (USP in user state, SSP in
    supervisor state, like A7 on the 68k). *)
val sp : reg

val num_regs : int
val num_fregs : int

(** Addressing modes for data operands. *)
type operand =
  | Imm of int  (** immediate constant *)
  | Lbl of string  (** immediate code address, resolved by {!Asm} *)
  | Reg of reg
  | Ind of reg  (** memory at [rN] *)
  | Idx of reg * int  (** memory at [rN + displacement] *)
  | Abs of int  (** memory at an absolute address *)
  | Post_inc of reg  (** memory at [rN], then rN := rN + 1 *)
  | Pre_dec of reg  (** rN := rN - 1, then memory at [rN] *)

type cond =
  | Always
  | Eq
  | Ne
  | Lt  (** signed < *)
  | Ge
  | Le
  | Gt
  | Hi  (** unsigned > *)
  | Ls  (** unsigned <= *)
  | Cs  (** carry set: unsigned < *)
  | Cc  (** carry clear: unsigned >= *)
  | Mi
  | Pl

(** Control-flow targets; [To_label] only in unassembled fragments. *)
type target =
  | To_addr of int
  | To_reg of reg
  | To_mem of operand  (** code address fetched from data memory *)
  | To_label of string

type alu_op = Add | Sub | Mul | Divu | Divs | And | Or | Xor | Lsl | Lsr | Asr
type fpu_op = Fadd | Fsub | Fmul | Fdiv

type insn =
  | Nop
  | Move of operand * operand  (** dst := src; sets N/Z, clears C/V *)
  | Lea of operand * reg  (** rd := effective data address *)
  | Alu of alu_op * operand * reg  (** rd := rd op src *)
  | Alu_mem of alu_op * operand * operand  (** mem dst := dst op src *)
  | Cmp of operand * operand  (** flags from dst - src: [Cmp (src, dst)] *)
  | Tst of operand
  | Neg of reg
  | Not of reg
  | B of cond * target
  | Dbra of reg * target  (** rN := rN - 1; branch unless rN = -1 *)
  | Jmp of target
  | Jsr of target
  | Rts
  | Trap of int  (** software trap 0..15, vectors 32..47 *)
  | Rte  (** return from exception: pop SR, PC *)
  | Cas of reg * reg * operand
      (** [Cas (rc, ru, ea)]: atomically, if [ea] = rc then [ea] := ru
          (Z set) else rc := [ea] (Z clear) — 68020 CAS semantics.

          Atomicity contract: the simulator delivers interrupts only at
          instruction boundaries (checked at the top of [Machine.step],
          never inside [exec]), so the load–compare–store sequence can
          never be split by an interrupt, a device tick, or an MMIO
          side effect that posts one — a pending interrupt raised
          mid-Cas is taken after the store commits.  This is the
          uniprocessor equivalent of the 68020's locked bus cycle and
          is what the paper's lock-free retry loops (§3.2) rely on.

          kfault may veto an individual Cas ([Machine.set_cas_fail]):
          the store is suppressed and Z reads clear, which is
          observationally identical to losing the race against another
          writer — correct optimistic code must take its retry branch,
          and the instruction's cycle/reference cost matches a genuine
          miss. *)
  | Movem_save of reg list * reg  (** push registers via a stack reg *)
  | Movem_load of reg * reg list
  | Push of operand
  | Pop of reg
  | Set_ipl of int  (** supervisor only *)
  | Move_vbr of operand  (** supervisor: load the vector base register *)
  | Move_mmu of operand  (** supervisor: switch the address-space map *)
  | Fmove_imm of float * int
  | Fmove of int * int
  | Fop of fpu_op * int * int
  | Fmovem_save of reg  (** push all 8 FP registers (3 words each) *)
  | Fmovem_load of reg
  | Stop_wait
      (** supervisor: wait for an interrupt; falls through while one is
          already pending, masked or not *)
  | Halt  (** stop the simulation *)
  | Hcall of int  (** invoke a registered host service routine *)
  | Label of string  (** pseudo-instruction: assembly-time label *)
  | Probe of string
      (** pseudo-instruction: a named, zero-width probe point, where
          a host closure may run ({!Machine.add_probe}) *)

(** Exception vector assignments (offsets into a vector table). *)
module Vector : sig
  val bus_error : int
  val illegal : int
  val div_zero : int
  val privilege : int
  val trace : int
  val fp_unavailable : int

  (** Auto-vectored interrupt levels 1..7 map to vectors 25..31. *)
  val autovector : int -> int

  val trap : int -> int
  val table_size : int
end

val pp : Format.formatter -> insn -> unit
