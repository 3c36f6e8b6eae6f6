(* Error signal to self (§4.3): "supporting efficient emulation of
   unimplemented kernel calls or machine instructions".

   The thread installs a user-mode error procedure; every privileged
   instruction it then executes traps, the synthesized per-thread
   error handler copies the fault frame onto the user stack and
   re-enters user mode, and the procedure *emulates* the instruction
   and resumes right after it — the mechanism the paper's UNIX
   emulator was built on.

   Run with: dune exec examples/fault_emulation.exe *)

open Quamachine
open Synthesis
module I = Insn

let () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 16 in

  (* The user-mode "instruction emulator": counts each emulation and
     resumes past the faulting instruction.  A real emulator would
     decode [faulting PC] and interpret it. *)
  let emulator_prog =
    [
      I.Pop I.r4; (* faulting PC (from the copied frame) *)
      I.Pop I.r5; (* faulting SR *)
      I.Alu_mem (I.Add, I.Imm 1, I.Abs cell); (* emulations += 1 *)
      I.Move (I.Reg I.r4, I.Abs (cell + 2)); (* remember where *)
      I.Alu (I.Add, I.Imm 1, I.r4);
      I.Jmp (I.To_reg I.r4); (* resume after the instruction *)
    ]
  in
  let emulator, _ = Asm.assemble m emulator_prog in

  (* A program that "uses" three unimplemented (privileged)
     instructions mixed into normal computation. *)
  let prog =
    [
      I.Move (I.Imm 100, I.Reg I.r9);
      I.Set_ipl 1; (* privileged: trap -> emulate -> resume *)
      I.Alu (I.Add, I.Imm 11, I.r9);
      I.Set_ipl 2;
      I.Alu (I.Add, I.Imm 22, I.r9);
      I.Set_ipl 3;
      I.Alu (I.Add, I.Imm 33, I.r9);
      I.Move (I.Reg I.r9, I.Abs (cell + 1));
      I.Trap 0;
    ]
  in
  let entry, _ = Asm.assemble m prog in
  let t = Thread.create k ~entry ~segments:[ (cell, 16) ] () in
  let handler = Thread.set_error_handler k t ~user_proc:emulator in

  Fmt.pr "synthesized error-trap handler for thread %d:@." t.Kernel.tid;
  Inspect.disassemble_routine k Fmt.stdout (Option.get (Kernel.find_region k handler));

  (match Boot.go ~max_insns:1_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> failwith "did not halt");

  Fmt.pr "@.instructions emulated in user mode: %d@." (Machine.peek m cell);
  Fmt.pr "computation result: %d (expected %d)@."
    (Machine.peek m (cell + 1))
    (100 + 11 + 22 + 33);
  Fmt.pr "last faulting PC handed to user mode: %d@." (Machine.peek m (cell + 2));
  Fmt.pr "threads killed by faults: %d@." (List.length k.Kernel.fault_log)
