(* Cycle cost model.

   Each instruction is charged [base] cycles (which folds in the
   instruction fetch) plus [mem_ref_cycles] for every data-memory
   reference it performs.  Wait states add to every memory reference,
   which is how the Quamachine emulated a SUN 3/160: clock the CPU at
   16 MHz and insert one wait state per access (paper §6.1).

   The base costs below are in the style of published 68020 timings;
   they are not microarchitecturally exact.  EXPERIMENTS.md records
   paper-vs-measured for every table built on top of this model. *)

type t = {
  name : string;
  clock_mhz : float;
  wait_states : int;
}

(* Native Quamachine configuration (50 MHz, no-wait-state memory). *)
let native = { name = "quamachine-50MHz"; clock_mhz = 50.0; wait_states = 0 }

(* SUN 3/160 emulation mode: 16 MHz plus one wait state (§6.1). *)
let sun3_emulation = { name = "sun3/160-emulation"; clock_mhz = 16.0; wait_states = 1 }

let mem_ref_cycles t = 3 + t.wait_states

(* Base cycles per instruction, excluding data-memory references. *)
let base (i : Insn.insn) =
  match i with
  | Insn.Nop -> 2
  | Insn.Move _ -> 2
  | Insn.Lea _ -> 2
  | Insn.Alu (op, _, _) | Insn.Alu_mem (op, _, _) -> (
    match op with
    | Insn.Mul -> 28
    | Insn.Divu | Insn.Divs -> 44
    | Insn.Lsl | Insn.Lsr | Insn.Asr -> 4
    | Insn.Add | Insn.Sub | Insn.And | Insn.Or | Insn.Xor -> 2)
  | Insn.Cmp _ | Insn.Tst _ -> 2
  | Insn.Neg _ | Insn.Not _ -> 2
  | Insn.B _ -> 5
  | Insn.Dbra _ -> 6
  | Insn.Jmp _ -> 4
  | Insn.Jsr _ -> 7
  | Insn.Rts -> 10
  | Insn.Trap _ -> 20
  | Insn.Rte -> 14
  | Insn.Cas _ -> 12
  | Insn.Movem_save (rs, _) -> 6 + (2 * List.length rs)
  | Insn.Movem_load (_, rs) -> 6 + (2 * List.length rs)
  | Insn.Push _ -> 4
  | Insn.Pop _ -> 4
  | Insn.Set_ipl _ -> 8
  | Insn.Move_vbr _ -> 10
  | Insn.Move_mmu _ -> 40
  | Insn.Fmove_imm _ | Insn.Fmove _ -> 20
  | Insn.Fop _ -> 50
  | Insn.Fmovem_save _ | Insn.Fmovem_load _ ->
    (* Eight extended-precision registers; over 100 bytes of state
       (paper §4.2: ~10 microseconds at SUN-3 speed). *)
    40
  | Insn.Stop_wait -> 8
  | Insn.Halt -> 0
  | Insn.Hcall _ -> 2
  | Insn.Label _ | Insn.Probe _ -> 0

(* Number of data-memory references implied by an operand when it is
   read or written once. *)
let operand_refs = function
  | Insn.Imm _ | Insn.Lbl _ | Insn.Reg _ -> 0
  | Insn.Ind _ | Insn.Idx _ | Insn.Abs _ | Insn.Post_inc _ | Insn.Pre_dec _ -> 1

(* Data references one execution of [i] makes: its operands, the
   stack words it pushes or pops, an exception frame and vector fetch
   for a trap.  A branch, Dbra or Cas counts its longest path (taken,
   storing). *)
let refs (i : Insn.insn) =
  let target = function Insn.To_mem op -> operand_refs op | _ -> 0 in
  match i with
  | Insn.Move (s, d) | Insn.Cmp (s, d) -> operand_refs s + operand_refs d
  | Insn.Alu (_, s, _) | Insn.Tst s | Insn.Move_vbr s | Insn.Move_mmu s -> operand_refs s
  | Insn.Alu_mem (_, s, d) -> operand_refs s + (2 * operand_refs d)
  | Insn.B (_, tgt) | Insn.Dbra (_, tgt) | Insn.Jmp tgt -> target tgt
  | Insn.Jsr tgt -> 1 + target tgt
  | Insn.Rts | Insn.Pop _ -> 1
  | Insn.Push s -> 1 + operand_refs s
  | Insn.Rte -> 2
  | Insn.Trap _ -> 3
  | Insn.Cas (_, _, ea) -> 2 * operand_refs ea
  | Insn.Movem_save (rs, _) | Insn.Movem_load (_, rs) -> List.length rs
  | Insn.Fmovem_save _ | Insn.Fmovem_load _ -> 3 * Insn.num_fregs
  | Insn.Nop | Insn.Lea _ | Insn.Neg _ | Insn.Not _ | Insn.Set_ipl _ | Insn.Fmove_imm _
  | Insn.Fmove _ | Insn.Fop _ | Insn.Stop_wait | Insn.Halt | Insn.Hcall _ | Insn.Label _
  | Insn.Probe _ ->
    0

let cycles_of_us t us = int_of_float (ceil (us *. t.clock_mhz))
let us_of_cycles t cycles = float_of_int cycles /. t.clock_mhz
