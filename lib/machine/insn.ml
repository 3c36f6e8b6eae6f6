(* Instruction set of the simulated Quamachine.

   The machine is a 68020-flavoured 32-bit CPU: 16 general registers
   (r15 is the active stack pointer), 8 floating-point registers, a
   status register with condition codes / supervisor bit / interrupt
   priority level / trace bit, and a vector base register (VBR) so
   that each Synthesis thread can own a private vector table.

   Code and data live in separate address spaces: code addresses index
   the instruction store (which kernel code synthesis appends to and
   patches at run time), data addresses index word-granular data
   memory.  This keeps the simulator fast while still permitting the
   paper's self-modifying idioms — executable data structures are code
   sequences whose instructions the kernel rewrites in place. *)

type reg = int

let r0 = 0
let r1 = 1
let r2 = 2
let r3 = 3
let r4 = 4
let r5 = 5
let r6 = 6
let r7 = 7
let r8 = 8
let r9 = 9
let r10 = 10
let r11 = 11
let r12 = 12
let r13 = 13
let r14 = 14

(* r15 doubles as user/supervisor stack pointer, like A7 on the 68k. *)
let sp = 15

let num_regs = 16
let num_fregs = 8

(* Addressing modes for data operands. *)
type operand =
  | Imm of int (* immediate constant *)
  | Lbl of string (* immediate code address; resolved by the assembler *)
  | Reg of reg (* register direct *)
  | Ind of reg (* memory at [rN] *)
  | Idx of reg * int (* memory at [rN + displacement] *)
  | Abs of int (* memory at absolute address *)
  | Post_inc of reg (* memory at [rN], then rN := rN + 1 *)
  | Pre_dec of reg (* rN := rN - 1, then memory at [rN] *)

type cond =
  | Always
  | Eq (* Z *)
  | Ne (* ~Z *)
  | Lt (* signed < *)
  | Ge (* signed >= *)
  | Le (* signed <= *)
  | Gt (* signed > *)
  | Hi (* unsigned > *)
  | Ls (* unsigned <= *)
  | Cs (* carry set: unsigned < *)
  | Cc (* carry clear: unsigned >= *)
  | Mi (* negative *)
  | Pl (* non-negative *)

(* Control-flow targets.  [To_label] only appears in unassembled
   fragments; [Asm.assemble] resolves it to [To_addr]. *)
type target =
  | To_addr of int (* absolute code address *)
  | To_reg of reg (* code address held in a register *)
  | To_mem of operand (* code address fetched from data memory *)
  | To_label of string

type alu_op = Add | Sub | Mul | Divu | Divs | And | Or | Xor | Lsl | Lsr | Asr

type fpu_op = Fadd | Fsub | Fmul | Fdiv

type insn =
  | Nop
  | Move of operand * operand (* dst := src; sets N/Z *)
  | Lea of operand * reg (* rd := effective data address of operand *)
  | Alu of alu_op * operand * reg (* rd := rd op src; sets flags *)
  | Alu_mem of alu_op * operand * operand (* mem dst := dst op src *)
  | Cmp of operand * operand (* flags from dst - src: Cmp (src, dst) *)
  | Tst of operand (* flags from operand *)
  | Neg of reg
  | Not of reg
  | B of cond * target (* conditional branch *)
  | Dbra of reg * target (* rN := rN - 1; branch unless rN = -1 *)
  | Jmp of target
  | Jsr of target (* push return address; jump *)
  | Rts
  | Trap of int (* software trap 0..15, vectors 32..47 *)
  | Rte (* return from exception: pop SR, PC *)
  | Cas of reg * reg * operand
    (* Cas (rc, ru, ea): atomically, if [ea] = rc then [ea] := ru
       (Z set) else rc := [ea] (Z clear) — 68020 CAS semantics. *)
  | Movem_save of reg list * reg (* push registers via stack register *)
  | Movem_load of reg * reg list (* pop registers via stack register *)
  | Push of operand
  | Pop of reg
  | Set_ipl of int (* supervisor: set interrupt priority level *)
  | Move_vbr of operand (* supervisor: load vector base register *)
  | Move_mmu of operand (* supervisor: switch address-space map *)
  | Fmove_imm of float * int (* load FP register with a constant *)
  | Fmove of int * int (* FP register to FP register *)
  | Fop of fpu_op * int * int (* fd := fd op fs *)
  | Fmovem_save of reg (* push all 8 FP registers via stack register *)
  | Fmovem_load of reg (* pop all 8 FP registers via stack register *)
  | Stop_wait (* supervisor: halt until an interrupt arrives *)
  | Halt (* stop the machine (simulation exit) *)
  | Hcall of int (* invoke a registered host service routine *)
  | Label of string (* pseudo-instruction: assembly-time label *)
  | Probe of string (* pseudo-instruction: zero-width host-side probe point *)

(* Exception vector assignments (offsets into the current vector table). *)
module Vector = struct
  let bus_error = 2
  let illegal = 4
  let div_zero = 5
  let privilege = 8
  let trace = 9
  let fp_unavailable = 11

  (* Auto-vectored interrupt levels 1..7 map to vectors 25..31. *)
  let autovector level = 24 + level
  let trap n = 32 + n

  (* Vector tables are 48 entries long. *)
  let table_size = 48
end

let pp_operand ppf = function
  | Imm n -> Fmt.pf ppf "#%d" n
  | Lbl l -> Fmt.pf ppf "#%s" l
  | Reg r -> Fmt.pf ppf "r%d" r
  | Ind r -> Fmt.pf ppf "(r%d)" r
  | Idx (r, d) -> Fmt.pf ppf "%d(r%d)" d r
  | Abs a -> Fmt.pf ppf "($%x)" a
  | Post_inc r -> Fmt.pf ppf "(r%d)+" r
  | Pre_dec r -> Fmt.pf ppf "-(r%d)" r

let pp_cond ppf c =
  Fmt.string ppf
    (match c with
    | Always -> "ra"
    | Eq -> "eq"
    | Ne -> "ne"
    | Lt -> "lt"
    | Ge -> "ge"
    | Le -> "le"
    | Gt -> "gt"
    | Hi -> "hi"
    | Ls -> "ls"
    | Cs -> "cs"
    | Cc -> "cc"
    | Mi -> "mi"
    | Pl -> "pl")

let pp_target ppf = function
  | To_addr a -> Fmt.pf ppf "$%x" a
  | To_reg r -> Fmt.pf ppf "(r%d)" r
  | To_mem op -> Fmt.pf ppf "[%a]" pp_operand op
  | To_label l -> Fmt.pf ppf "%s" l

let pp_alu_op ppf op =
  Fmt.string ppf
    (match op with
    | Add -> "add"
    | Sub -> "sub"
    | Mul -> "mul"
    | Divu -> "divu"
    | Divs -> "divs"
    | And -> "and"
    | Or -> "or"
    | Xor -> "xor"
    | Lsl -> "lsl"
    | Lsr -> "lsr"
    | Asr -> "asr")

let pp ppf = function
  | Nop -> Fmt.string ppf "nop"
  | Move (s, d) -> Fmt.pf ppf "move %a, %a" pp_operand s pp_operand d
  | Lea (s, r) -> Fmt.pf ppf "lea %a, r%d" pp_operand s r
  | Alu (op, s, r) -> Fmt.pf ppf "%a %a, r%d" pp_alu_op op pp_operand s r
  | Alu_mem (op, s, d) ->
    Fmt.pf ppf "%a.m %a, %a" pp_alu_op op pp_operand s pp_operand d
  | Cmp (s, d) -> Fmt.pf ppf "cmp %a, %a" pp_operand s pp_operand d
  | Tst o -> Fmt.pf ppf "tst %a" pp_operand o
  | Neg r -> Fmt.pf ppf "neg r%d" r
  | Not r -> Fmt.pf ppf "not r%d" r
  | B (c, t) -> Fmt.pf ppf "b%a %a" pp_cond c pp_target t
  | Dbra (r, t) -> Fmt.pf ppf "dbra r%d, %a" r pp_target t
  | Jmp t -> Fmt.pf ppf "jmp %a" pp_target t
  | Jsr t -> Fmt.pf ppf "jsr %a" pp_target t
  | Rts -> Fmt.string ppf "rts"
  | Trap n -> Fmt.pf ppf "trap #%d" n
  | Rte -> Fmt.string ppf "rte"
  | Cas (rc, ru, ea) -> Fmt.pf ppf "cas r%d, r%d, %a" rc ru pp_operand ea
  | Movem_save (rs, r) ->
    Fmt.pf ppf "movem.save {%a}, -(r%d)" Fmt.(list ~sep:comma int) rs r
  | Movem_load (r, rs) ->
    Fmt.pf ppf "movem.load (r%d)+, {%a}" r Fmt.(list ~sep:comma int) rs
  | Push o -> Fmt.pf ppf "push %a" pp_operand o
  | Pop r -> Fmt.pf ppf "pop r%d" r
  | Set_ipl n -> Fmt.pf ppf "set_ipl #%d" n
  | Move_vbr o -> Fmt.pf ppf "move_vbr %a" pp_operand o
  | Move_mmu o -> Fmt.pf ppf "move_mmu %a" pp_operand o
  | Fmove_imm (f, d) -> Fmt.pf ppf "fmove #%g, f%d" f d
  | Fmove (s, d) -> Fmt.pf ppf "fmove f%d, f%d" s d
  | Fop (op, s, d) ->
    let name =
      match op with Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"
    in
    Fmt.pf ppf "%s f%d, f%d" name s d
  | Fmovem_save r -> Fmt.pf ppf "fmovem.save -(r%d)" r
  | Fmovem_load r -> Fmt.pf ppf "fmovem.load (r%d)+" r
  | Stop_wait -> Fmt.string ppf "stop"
  | Halt -> Fmt.string ppf "halt"
  | Hcall n -> Fmt.pf ppf "hcall #%d" n
  | Label l -> Fmt.pf ppf "%s:" l
  | Probe p -> Fmt.pf ppf "; probe %s" p
