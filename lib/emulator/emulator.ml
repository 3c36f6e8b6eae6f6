(* The UNIX emulator running on top of the Synthesis kernel (§6.1).

   "In the simplest case, the emulator translates the UNIX kernel call
   into an equivalent Synthesis kernel call."  Each stub shuffles
   nothing (the native ABI was chosen to match) and jumps to the
   handler the executing thread's own vector table holds for the
   native trap, inside the frame trap 15 already built: the native
   handler's Rte returns straight to the UNIX program, so an emulated
   call costs one exception frame, not two.  The vector is read at
   call time, through the per-core current-TTE window, so the stubs
   follow every later vector rewrite on every core. *)

open Quamachine
open Synthesis
module I = Insn

type t = { e_entry : int; e_table : int }

let install vfs =
  let k = vfs.Vfs.kernel in
  let m = k.Kernel.machine in
  (* pipe(2) needs its syscall installed on the native side *)
  Kpipe.install_syscall vfs;
  let stub name body = fst (Ksynth.install k ~name:("unix/" ^ name) body) in
  (* forward to native trap [n]; r4 is already clobbered by the entry *)
  let forward name n =
    stub name
      [
        I.Move (I.Abs Mmio_map.cur_tte, I.Reg I.r4);
        I.Jmp (I.To_mem (I.Idx (I.r4, Layout.Tte.off_vectors + I.Vector.trap n)));
      ]
  in
  let bad = stub "badcall" [ I.Move (I.Imm (-1), I.Reg I.r0); I.Rte ] in
  let table = Kalloc.alloc_zeroed k.Kernel.alloc Unix_abi.table_size in
  for i = 0 to Unix_abi.table_size - 1 do
    Machine.poke m (table + i) bad
  done;
  let set n entry = Machine.poke m (table + n) entry in
  set Unix_abi.sys_exit (forward "exit" 0);
  set Unix_abi.sys_read (forward "read" 1);
  set Unix_abi.sys_write (forward "write" 2);
  set Unix_abi.sys_open (forward "open" 3);
  set Unix_abi.sys_close (forward "close" 4);
  set Unix_abi.sys_lseek (forward "lseek" 12);
  set Unix_abi.sys_pipe (forward "pipe" 11);
  (* getpid: the executing core's current-tid cell, through its window *)
  set Unix_abi.sys_getpid
    (stub "getpid" [ I.Move (I.Abs Mmio_map.cur_tid, I.Reg I.r0); I.Rte ]);
  (* time: the microsecond clock, through the native gettime *)
  set Unix_abi.sys_time (forward "time" 10);
  (* kill(tid, _): Unix signals map onto Synthesis signals *)
  set Unix_abi.sys_kill (forward "kill" 6);
  let entry =
    stub "entry"
      [
        I.Cmp (I.Imm Unix_abi.table_size, I.Reg I.r0);
        I.B (I.Cc, I.To_label "bad");
        I.Move (I.Reg I.r0, I.Reg I.r4);
        I.Alu (I.Add, I.Imm table, I.r4);
        I.Jmp (I.To_mem (I.Ind I.r4));
        I.Label "bad";
        I.Move (I.Imm (-1), I.Reg I.r0);
        I.Rte;
      ]
  in
  Kernel.set_vector_all k (I.Vector.trap Unix_abi.trap) entry;
  { e_entry = entry; e_table = table }
