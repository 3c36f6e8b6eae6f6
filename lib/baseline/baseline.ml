(* A deliberately traditional Unix-style kernel on the same simulated
   machine — the SUNOS 3.5 stand-in that the Table 1 comparison runs
   against.

   Where Synthesis specializes, this kernel is generic and layered, in
   the style of the BSD-derived source the paper cites: one trap entry
   that saves *all* registers, a bounds-checked dispatch through a
   system-call table, descriptor validation against a file table,
   vnode indirection (two memory hops per operation), semaphore
   lock/unlock around every file operation with a wakeup-queue scan on
   release, buffer-cache (getblk) hash walks on every file and pipe
   operation (BSD pipes were inode-backed), a byte-at-a-time uiomove
   copy loop, and a run-queue scan on the way out of every system
   call.  Every one of those costs is real executed code on the same
   ISA and cost model as Synthesis, so the Table 1 ratios emerge from
   path lengths, not from tuned constants. *)

open Quamachine
module I = Insn
module L = Bk_layout

type t = {
  machine : Machine.t;
  tty : Devices.Tty.t;
  mutable heap : int; (* bump allocator for file buffers *)
  mutable next_vnode : int; (* index into the vnode table *)
  mutable next_dir : int; (* next free directory slot *)
  syms : (string, int) Hashtbl.t;
}

let sym t name =
  match Hashtbl.find_opt t.syms name with
  | Some a -> a
  | None -> invalid_arg ("Baseline.sym: " ^ name)

let install t ~name insns =
  let env = Hashtbl.fold (fun n a acc -> (n, a) :: acc) t.syms [] in
  let entry, syms = Asm.assemble ~env t.machine insns in
  Hashtbl.replace t.syms name entry;
  List.iter (fun (n, a) -> Hashtbl.replace t.syms (name ^ "." ^ n) a) syms;
  entry

(* ---------------------------------------------------------------- *)
(* Kernel subroutines *)

(* Semaphore P/V.  P spins on a CAS (uncontended in a single-process
   run but paid for on every file operation); V releases and scans the
   sleep queue for wakeups, as a traditional kernel must. *)
let sub_semp =
  [
    I.Label "spin";
    I.Move (I.Imm 0, I.Reg I.r5);
    I.Move (I.Imm 1, I.Reg I.r6);
    I.Cas (I.r5, I.r6, I.Ind I.r4);
    I.B (I.Ne, I.To_label "spin");
    I.Rts;
  ]

let sub_semv =
  [
    I.Move (I.Imm 0, I.Ind I.r4);
    I.Move (I.Imm 15, I.Reg I.r5);
    I.Move (I.Imm L.sleepq, I.Reg I.r6);
    I.Label "scan";
    I.Tst (I.Ind I.r6);
    I.Alu (I.Add, I.Imm 1, I.r6);
    I.Dbra (I.r5, I.To_label "scan");
    I.Rts;
  ]

(* getblk: buffer-cache hash-chain walk (16 probes). *)
let sub_getblk =
  [
    I.Move (I.Imm 15, I.Reg I.r5);
    I.Move (I.Imm L.buffer_cache, I.Reg I.r6);
    I.Label "probe";
    I.Move (I.Ind I.r6, I.Reg I.r4);
    I.Cmp (I.Imm 0x7FFF, I.Reg I.r4); (* never matches: full walk *)
    I.Alu (I.Add, I.Imm 4, I.r6);
    I.Dbra (I.r5, I.To_label "probe");
    I.Rts;
  ]

(* ilock/iunlock pair on a scratch inode lock. *)
let sub_semp_dummy t =
  [
    I.Move (I.Imm L.scratch_lock, I.Reg I.r4);
    I.Jsr (I.To_addr (sym t "semp"));
    I.Move (I.Imm 0, I.Ind I.r4);
    I.Rts;
  ]

(* uio structure setup, access-time update and pending-signal check —
   the fixed bookkeeping every 4.3BSD read/write path performed. *)
let sub_uio_setup =
  [
    I.Move (I.Imm 39, I.Reg I.r4);
    I.Move (I.Imm L.proc_table, I.Reg I.r5);
    I.Label "walk";
    I.Move (I.Ind I.r5, I.Reg I.r6);
    I.Alu (I.Add, I.Imm 1, I.r5);
    I.Dbra (I.r4, I.To_label "walk");
    I.Rts;
  ]

(* uiomove: generic word-at-a-time copy, src r5, dst r6, count r7. *)
let sub_uiomove =
  [
    I.Label "loop";
    I.Tst (I.Reg I.r7);
    I.B (I.Eq, I.To_label "done");
    I.Move (I.Ind I.r5, I.Reg I.r4);
    I.Move (I.Reg I.r4, I.Ind I.r6);
    I.Alu (I.Add, I.Imm 1, I.r5);
    I.Alu (I.Add, I.Imm 1, I.r6);
    I.Alu (I.Sub, I.Imm 1, I.r7);
    I.B (I.Always, I.To_label "loop");
    I.Label "done";
    I.Rts;
  ]

(* putc: layered character output (one call per character). *)
let sub_putc =
  [ I.Move (I.Reg I.r4, I.Abs Mmio_map.tty_data_out); I.Rts ]

(* sched_check: the generic "should we reschedule?" run-queue scan
   performed on the way out of every system call. *)
let sub_sched_check =
  [
    I.Move (I.Imm (L.nproc - 1), I.Reg I.r4);
    I.Move (I.Imm L.proc_table, I.Reg I.r5);
    I.Label "scan";
    I.Move (I.Ind I.r5, I.Reg I.r6); (* proc state *)
    I.Cmp (I.Imm 3, I.Reg I.r6); (* "runnable at higher pri?" *)
    I.Alu (I.Add, I.Imm L.proc_words, I.r5);
    I.Dbra (I.r4, I.To_label "scan");
    I.Rts;
  ]

(* namei: path translation the 4.3BSD way — a directory scan plus an
   iget (inode fetch through the buffer cache, plus lock) *per path
   component*.  Our flat directory holds whole paths, so only the
   final scan yields the vnode; the leading components ("/", "dev")
   still pay a full scan and inode fetch each, which is where most of
   SUNOS's open(2) time went.  r11 counts components. *)
let sub_namei t =
  [
    (* two leading components: scan + iget, result discarded *)
    I.Move (I.Imm 1, I.Reg I.r11);
    I.Label "component";
    I.Move (I.Imm (L.dir_entries - 1), I.Reg I.r5);
    I.Move (I.Imm L.directory, I.Reg I.r6);
    I.Label "cscan";
    I.Move (I.Ind I.r6, I.Reg I.r4); (* entry length *)
    I.Cmp (I.Imm 0x7FFF, I.Reg I.r4); (* never matches: full scan *)
    I.Alu (I.Add, I.Imm L.dir_entry_words, I.r6);
    I.Dbra (I.r5, I.To_label "cscan");
    I.Jsr (I.To_addr (sym t "getblk")); (* iget for the component *)
    I.Jsr (I.To_addr (sym t "semp_dummy")); (* ilock *)
    I.Dbra (I.r11, I.To_label "component");
    (* final component: the real lookup *)
    I.Move (I.Imm (L.dir_entries - 1), I.Reg I.r8);
    I.Move (I.Imm L.directory, I.Reg I.r7);
    I.Label "entry";
    I.Move (I.Imm 0, I.Reg I.r6); (* char index *)
    I.Label "cmp";
    I.Move (I.Reg I.r1, I.Reg I.r4);
    I.Alu (I.Add, I.Reg I.r6, I.r4);
    I.Move (I.Ind I.r4, I.Reg I.r4); (* user char *)
    I.Move (I.Reg I.r7, I.Reg I.r5);
    I.Alu (I.Add, I.Reg I.r6, I.r5);
    I.Move (I.Idx (I.r5, 1), I.Reg I.r5); (* entry char *)
    I.Cmp (I.Reg I.r5, I.Reg I.r4);
    I.B (I.Ne, I.To_label "next");
    I.Tst (I.Reg I.r4);
    I.B (I.Eq, I.To_label "found"); (* both NUL *)
    I.Alu (I.Add, I.Imm 1, I.r6);
    I.Cmp (I.Imm 14, I.Reg I.r6);
    I.B (I.Ne, I.To_label "cmp");
    I.Label "next";
    I.Alu (I.Add, I.Imm L.dir_entry_words, I.r7);
    I.Dbra (I.r8, I.To_label "entry");
    I.Move (I.Imm 0, I.Reg I.r4); (* not found *)
    I.Rts;
    I.Label "found";
    I.Jsr (I.To_addr (sym t "getblk")); (* fetch the inode *)
    I.Move (I.Idx (I.r7, 15), I.Reg I.r4); (* vnode address *)
    I.Rts;
  ]

(* ---------------------------------------------------------------- *)
(* vnode operations.  Convention: r9 = file-table entry, r10 = vnode,
   r1..r3 = user args; result into the retval cell. *)

let vn_null_read = [ I.Move (I.Imm 0, I.Abs L.retval_cell); I.Rts ]
let vn_null_write = [ I.Move (I.Reg I.r3, I.Abs L.retval_cell); I.Rts ]
let vn_tty_read = [ I.Move (I.Imm 0, I.Abs L.retval_cell); I.Rts ]

let vn_tty_write t =
  [
    I.Move (I.Reg I.r3, I.Abs L.retval_cell);
    I.Move (I.Reg I.r3, I.Reg I.r7);
    I.Tst (I.Reg I.r7);
    I.B (I.Eq, I.To_label "done");
    I.Move (I.Reg I.r2, I.Reg I.r5);
    I.Label "loop";
    I.Move (I.Ind I.r5, I.Reg I.r4);
    I.Jsr (I.To_addr (sym t "putc")); (* one call per character *)
    I.Alu (I.Add, I.Imm 1, I.r5);
    I.Alu (I.Sub, I.Imm 1, I.r7);
    I.B (I.Ne, I.To_label "loop");
    I.Label "done";
    I.Rts;
  ]

(* vnode fields: [0]=type [1]=lock [2]=ops [3]=buf [4]=size [5]=cap *)
let vn_file_read t =
  [
    I.Jsr (I.To_addr (sym t "uio_setup")); (* uio + signal check *)
    I.Jsr (I.To_addr (sym t "semp_dummy")); (* ilock *)
    I.Jsr (I.To_addr (sym t "getblk")); (* block lookup *)
    I.Move (I.Idx (I.r10, 4), I.Reg I.r7); (* size *)
    I.Move (I.Idx (I.r9, 2), I.Reg I.r4); (* pos *)
    I.Alu (I.Sub, I.Reg I.r4, I.r7); (* remaining *)
    I.Cmp (I.Reg I.r7, I.Reg I.r3); (* n - remaining *)
    I.B (I.Ls, I.To_label "fits");
    I.Move (I.Reg I.r7, I.Reg I.r3);
    I.Label "fits";
    I.Move (I.Reg I.r3, I.Abs L.retval_cell);
    I.Tst (I.Reg I.r3);
    I.B (I.Eq, I.To_label "done");
    I.Move (I.Idx (I.r10, 3), I.Reg I.r5);
    I.Alu (I.Add, I.Reg I.r4, I.r5); (* src = buf + pos *)
    I.Alu (I.Add, I.Reg I.r3, I.r4);
    I.Move (I.Reg I.r4, I.Idx (I.r9, 2)); (* pos += n *)
    I.Move (I.Reg I.r2, I.Reg I.r6); (* dst = user buffer *)
    I.Move (I.Reg I.r3, I.Reg I.r7);
    I.Jsr (I.To_addr (sym t "uiomove"));
    I.Label "done";
    I.Rts;
  ]

let vn_file_write t =
  [
    I.Jsr (I.To_addr (sym t "uio_setup"));
    I.Jsr (I.To_addr (sym t "semp_dummy"));
    I.Jsr (I.To_addr (sym t "getblk"));
    I.Move (I.Idx (I.r10, 5), I.Reg I.r7); (* capacity *)
    I.Move (I.Idx (I.r9, 2), I.Reg I.r4); (* pos *)
    I.Alu (I.Sub, I.Reg I.r4, I.r7); (* room *)
    I.Cmp (I.Reg I.r7, I.Reg I.r3);
    I.B (I.Ls, I.To_label "fits");
    I.Move (I.Reg I.r7, I.Reg I.r3);
    I.Label "fits";
    I.Move (I.Reg I.r3, I.Abs L.retval_cell);
    I.Tst (I.Reg I.r3);
    I.B (I.Eq, I.To_label "done");
    I.Move (I.Reg I.r2, I.Reg I.r5); (* src = user *)
    I.Move (I.Idx (I.r10, 3), I.Reg I.r6);
    I.Alu (I.Add, I.Reg I.r4, I.r6); (* dst = buf + pos *)
    I.Alu (I.Add, I.Reg I.r3, I.r4);
    I.Move (I.Reg I.r4, I.Idx (I.r9, 2)); (* pos += n *)
    (* grow the size if we extended the file *)
    I.Cmp (I.Idx (I.r10, 4), I.Reg I.r4);
    I.B (I.Ls, I.To_label "nosize");
    I.Move (I.Reg I.r4, I.Idx (I.r10, 4));
    I.Label "nosize";
    I.Move (I.Reg I.r3, I.Reg I.r7);
    I.Jsr (I.To_addr (sym t "uiomove"));
    I.Label "done";
    I.Rts;
  ]

(* BSD pipes are inode-backed: every operation pays bmap + getblk on
   top of the locking that [h_read]/[h_write] already did. *)
let vn_pipe_read t =
  let mask = L.pipe_cap - 1 in
  [
    I.Jsr (I.To_addr (sym t "uio_setup")); (* uio + signal check *)
    I.Jsr (I.To_addr (sym t "getblk")); (* bmap *)
    I.Jsr (I.To_addr (sym t "getblk")); (* block fetch *)
    I.Jsr (I.To_addr (sym t "semp_dummy")); (* ilock *)
    I.Move (I.Abs L.pipe_state, I.Reg I.r4); (* head *)
    I.Move (I.Abs (L.pipe_state + 1), I.Reg I.r5); (* tail *)
    I.Move (I.Reg I.r4, I.Reg I.r7);
    I.Alu (I.Sub, I.Reg I.r5, I.r7);
    I.Alu (I.And, I.Imm mask, I.r7); (* available *)
    I.Cmp (I.Reg I.r7, I.Reg I.r3);
    I.B (I.Ls, I.To_label "fits"); (* n <= available *)
    I.Move (I.Reg I.r7, I.Reg I.r3);
    I.Label "fits";
    I.Move (I.Reg I.r3, I.Abs L.retval_cell);
    I.Tst (I.Reg I.r3);
    I.B (I.Eq, I.To_label "done");
    (* contiguous run only: programs use power-of-two chunks *)
    I.Move (I.Reg I.r5, I.Reg I.r4);
    I.Alu (I.Add, I.Reg I.r3, I.r4);
    I.Alu (I.And, I.Imm mask, I.r4);
    I.Move (I.Reg I.r4, I.Abs (L.pipe_state + 1)); (* tail += n *)
    I.Alu (I.Add, I.Imm L.pipe_buf, I.r5); (* src *)
    I.Move (I.Reg I.r2, I.Reg I.r6);
    I.Move (I.Reg I.r3, I.Reg I.r7);
    I.Jsr (I.To_addr (sym t "uiomove"));
    (* wake any writer sleeping on the pipe *)
    I.Move (I.Imm (L.pipe_state + 2), I.Reg I.r4);
    I.Jsr (I.To_addr (sym t "semv"));
    I.Label "done";
    I.Rts;
  ]

let vn_pipe_write t =
  let mask = L.pipe_cap - 1 in
  [
    I.Jsr (I.To_addr (sym t "uio_setup"));
    I.Jsr (I.To_addr (sym t "getblk"));
    I.Jsr (I.To_addr (sym t "getblk"));
    I.Jsr (I.To_addr (sym t "semp_dummy"));
    I.Move (I.Abs L.pipe_state, I.Reg I.r4); (* head *)
    I.Move (I.Abs (L.pipe_state + 1), I.Reg I.r5); (* tail *)
    I.Move (I.Reg I.r5, I.Reg I.r7);
    I.Alu (I.Sub, I.Reg I.r4, I.r7);
    I.Alu (I.Sub, I.Imm 1, I.r7);
    I.Alu (I.And, I.Imm mask, I.r7); (* space *)
    I.Cmp (I.Reg I.r7, I.Reg I.r3);
    I.B (I.Ls, I.To_label "fits");
    I.Move (I.Reg I.r7, I.Reg I.r3);
    I.Label "fits";
    I.Move (I.Reg I.r3, I.Abs L.retval_cell);
    I.Tst (I.Reg I.r3);
    I.B (I.Eq, I.To_label "done");
    I.Move (I.Reg I.r4, I.Reg I.r6);
    I.Alu (I.Add, I.Reg I.r3, I.r6);
    I.Alu (I.And, I.Imm mask, I.r6);
    I.Move (I.Reg I.r6, I.Abs L.pipe_state); (* head += n *)
    I.Move (I.Reg I.r2, I.Reg I.r5); (* src = user *)
    I.Move (I.Reg I.r4, I.Reg I.r6);
    I.Alu (I.Add, I.Imm L.pipe_buf, I.r6); (* dst *)
    I.Move (I.Reg I.r3, I.Reg I.r7);
    I.Jsr (I.To_addr (sym t "uiomove"));
    I.Move (I.Imm (L.pipe_state + 2), I.Reg I.r4);
    I.Jsr (I.To_addr (sym t "semv"));
    I.Label "done";
    I.Rts;
  ]

(* ---------------------------------------------------------------- *)
(* System-call handlers *)

(* Common head for read/write: validate fd, load the file entry into
   r9 and the vnode into r10, take the vnode lock. *)
let rw_prologue t =
  [
    I.Cmp (I.Imm L.nfiles, I.Reg I.r1);
    I.B (I.Cc, I.To_label "ebadf");
    I.Move (I.Reg I.r1, I.Reg I.r9);
    I.Alu (I.Lsl, I.Imm 3, I.r9);
    I.Alu (I.Add, I.Imm L.file_table, I.r9);
    I.Tst (I.Ind I.r9);
    I.B (I.Eq, I.To_label "ebadf");
    I.Move (I.Idx (I.r9, 1), I.Reg I.r10);
    I.Move (I.Reg I.r10, I.Reg I.r4);
    I.Alu (I.Add, I.Imm 1, I.r4);
    I.Jsr (I.To_addr (sym t "semp"));
  ]

let rw_epilogue t ~op_slot =
  [
    (* dispatch through the vnode ops table: two indirections *)
    I.Move (I.Idx (I.r10, 2), I.Reg I.r5);
    I.Move (I.Idx (I.r5, op_slot), I.Reg I.r5);
    I.Jsr (I.To_reg I.r5);
    I.Move (I.Reg I.r10, I.Reg I.r4);
    I.Alu (I.Add, I.Imm 1, I.r4);
    I.Jsr (I.To_addr (sym t "semv"));
    I.Rts;
    I.Label "ebadf";
    I.Move (I.Imm (-1), I.Abs L.retval_cell);
    I.Rts;
  ]

let h_read t = rw_prologue t @ rw_epilogue t ~op_slot:0
let h_write t = rw_prologue t @ rw_epilogue t ~op_slot:1

let h_open t =
  [
    I.Jsr (I.To_addr (sym t "namei"));
    I.Tst (I.Reg I.r4);
    I.B (I.Eq, I.To_label "enoent");
    I.Move (I.Reg I.r4, I.Reg I.r10); (* vnode *)
    (* allocate a file-table slot: linear scan *)
    I.Move (I.Imm 0, I.Reg I.r8); (* fd *)
    I.Move (I.Imm L.file_table, I.Reg I.r9);
    I.Label "scan";
    I.Tst (I.Ind I.r9);
    I.B (I.Eq, I.To_label "got");
    I.Alu (I.Add, I.Imm L.fentry_words, I.r9);
    I.Alu (I.Add, I.Imm 1, I.r8);
    I.Cmp (I.Imm L.nfiles, I.Reg I.r8);
    I.B (I.Ne, I.To_label "scan");
    I.B (I.Always, I.To_label "enoent"); (* table full *)
    I.Label "got";
    I.Move (I.Imm 1, I.Ind I.r9);
    I.Move (I.Reg I.r10, I.Idx (I.r9, 1));
    I.Move (I.Imm 0, I.Idx (I.r9, 2));
    (* file-structure / u-area bookkeeping and the iget refcount *)
    I.Jsr (I.To_addr (sym t "getblk"));
    I.Move (I.Reg I.r8, I.Abs L.retval_cell);
    I.Rts;
    I.Label "enoent";
    I.Move (I.Imm (-1), I.Abs L.retval_cell);
    I.Rts;
  ]

let h_close t =
  [
    I.Cmp (I.Imm L.nfiles, I.Reg I.r1);
    I.B (I.Cc, I.To_label "ebadf");
    I.Move (I.Reg I.r1, I.Reg I.r9);
    I.Alu (I.Lsl, I.Imm 3, I.r9);
    I.Alu (I.Add, I.Imm L.file_table, I.r9);
    I.Tst (I.Ind I.r9);
    I.B (I.Eq, I.To_label "ebadf");
    I.Move (I.Imm 0, I.Ind I.r9);
    (* vrele: inode release walks the cache and the sleep queue *)
    I.Jsr (I.To_addr (sym t "getblk"));
    I.Move (I.Imm (L.pipe_state + 2), I.Reg I.r4);
    I.Jsr (I.To_addr (sym t "semv"));
    I.Move (I.Imm 0, I.Abs L.retval_cell);
    I.Rts;
    I.Label "ebadf";
    I.Move (I.Imm (-1), I.Abs L.retval_cell);
    I.Rts;
  ]

let h_lseek =
  [
    I.Cmp (I.Imm L.nfiles, I.Reg I.r1);
    I.B (I.Cc, I.To_label "ebadf");
    I.Move (I.Reg I.r1, I.Reg I.r9);
    I.Alu (I.Lsl, I.Imm 3, I.r9);
    I.Alu (I.Add, I.Imm L.file_table, I.r9);
    I.Move (I.Reg I.r2, I.Idx (I.r9, 2));
    I.Move (I.Imm 0, I.Abs L.retval_cell);
    I.Rts;
    I.Label "ebadf";
    I.Move (I.Imm (-1), I.Abs L.retval_cell);
    I.Rts;
  ]

(* pipe(2): bind two fresh descriptors to the pipe vnodes; read fd
   into retval (r0), write fd patched into the saved r1 on the stack
   (frame: [ret][r0..r14][SR][PC], so saved r1 sits at sp+2). *)
let h_pipe ~pipe_r_vnode ~pipe_w_vnode =
  let bind label vnode next =
    [
      I.Move (I.Imm 0, I.Reg I.r8);
      I.Move (I.Imm L.file_table, I.Reg I.r9);
      I.Label (label ^ "scan");
      I.Tst (I.Ind I.r9);
      I.B (I.Eq, I.To_label (label ^ "got"));
      I.Alu (I.Add, I.Imm L.fentry_words, I.r9);
      I.Alu (I.Add, I.Imm 1, I.r8);
      I.Cmp (I.Imm L.nfiles, I.Reg I.r8);
      I.B (I.Ne, I.To_label (label ^ "scan"));
      I.Move (I.Imm (-1), I.Abs L.retval_cell);
      I.Rts;
      I.Label (label ^ "got");
      I.Move (I.Imm 1, I.Ind I.r9);
      I.Move (I.Imm vnode, I.Idx (I.r9, 1));
      I.Move (I.Imm 0, I.Idx (I.r9, 2));
    ]
    @ next
  in
  [ I.Move (I.Imm 0, I.Abs L.pipe_state); I.Move (I.Imm 0, I.Abs (L.pipe_state + 1)) ]
  @ bind "r" pipe_r_vnode
      ([ I.Move (I.Reg I.r8, I.Abs L.retval_cell) ]
      @ bind "w" pipe_w_vnode
          [ I.Move (I.Reg I.r8, I.Idx (I.sp, 2)); (* saved r1 = write fd *) I.Rts ])

(* time(2): the microsecond clock (the baseline also runs on a
   machine with the RTC device). *)
let h_time =
  [ I.Move (I.Abs Mmio_map.rtc_us, I.Abs L.retval_cell); I.Rts ]

(* getpid(2): the single process is pid 1. *)
let h_getpid = [ I.Move (I.Imm 1, I.Abs L.retval_cell); I.Rts ]

let h_exit = [ I.Halt ]

(* The single system-call gate. *)
let sys_entry t =
  let all_regs = List.init 15 (fun i -> i) in
  [
    I.Movem_save (all_regs, I.sp); (* save everything, SUNOS-style *)
    I.Cmp (I.Imm 64, I.Reg I.r0);
    I.B (I.Cc, I.To_label "bad");
    I.Move (I.Reg I.r0, I.Reg I.r4);
    I.Alu (I.Add, I.Imm L.systab, I.r4);
    I.Move (I.Ind I.r4, I.Reg I.r4);
    I.Jsr (I.To_reg I.r4);
    I.Label "out";
    I.Jsr (I.To_addr (sym t "sched_check"));
    I.Movem_load (I.sp, all_regs);
    I.Move (I.Abs L.retval_cell, I.Reg I.r0);
    I.Rte;
    I.Label "bad";
    I.Move (I.Imm (-1), I.Abs L.retval_cell);
    I.B (I.Always, I.To_label "out");
  ]

(* ---------------------------------------------------------------- *)
(* Host-side setup *)

let poke t a v = Machine.poke t.machine a v

let add_dir_entry t ~name ~vnode =
  if t.next_dir >= L.dir_entries then invalid_arg "Baseline: directory full";
  if String.length name > 13 then invalid_arg "Baseline: name too long";
  let e = L.directory + (t.next_dir * L.dir_entry_words) in
  t.next_dir <- t.next_dir + 1;
  poke t e (String.length name);
  String.iteri (fun i c -> poke t (e + 1 + i) (Char.code c)) name;
  poke t (e + 1 + String.length name) 0;
  poke t (e + 15) vnode

let alloc_vnode t ~vtype ~ops ~buf ~size ~cap =
  if t.next_vnode >= 16 then invalid_arg "Baseline: vnode table full";
  let v = L.vnode_table + (t.next_vnode * L.vnode_words) in
  t.next_vnode <- t.next_vnode + 1;
  poke t v vtype;
  poke t (v + 1) 0; (* lock *)
  poke t (v + 2) ops;
  poke t (v + 3) buf;
  poke t (v + 4) size;
  poke t (v + 5) cap;
  v

(* Create a memory file with [content]; registers it in the directory. *)
let create_file t ~name ?(capacity = 8192) ?(content = [||]) () =
  let buf = t.heap in
  t.heap <- t.heap + capacity;
  Array.iteri (fun i v -> poke t (buf + i) v) content;
  let ops = sym t "ops_file" in
  let v =
    alloc_vnode t ~vtype:L.vt_file ~ops ~buf ~size:(Array.length content) ~cap:capacity
  in
  add_dir_entry t ~name ~vnode:v;
  v

let boot ?(cost = Cost.sun3_emulation) () =
  let m = Machine.create cost in
  Devices.Rtc.install m;
  Devices.Cpu_control.install m;
  let tty = Devices.Tty.install m in
  let t =
    {
      machine = m;
      tty;
      heap = L.heap_base;
      next_vnode = 0;
      next_dir = 0;
      syms = Hashtbl.create 64;
    }
  in
  (* guard code address 0 *)
  ignore (Machine.append_code m [ I.Halt ]);
  (* subroutines *)
  ignore (install t ~name:"semp" sub_semp);
  ignore (install t ~name:"semv" sub_semv);
  ignore (install t ~name:"getblk" sub_getblk);
  ignore (install t ~name:"semp_dummy" (sub_semp_dummy t));
  ignore (install t ~name:"uio_setup" sub_uio_setup);
  ignore (install t ~name:"uiomove" sub_uiomove);
  ignore (install t ~name:"putc" sub_putc);
  ignore (install t ~name:"sched_check" sub_sched_check);
  ignore (install t ~name:"namei" (sub_namei t));
  (* vnode operations and their ops tables (in data memory) *)
  let vnr_null = install t ~name:"vn_null_read" vn_null_read in
  let vnw_null = install t ~name:"vn_null_write" vn_null_write in
  let vnr_tty = install t ~name:"vn_tty_read" vn_tty_read in
  let vnw_tty = install t ~name:"vn_tty_write" (vn_tty_write t) in
  let vnr_file = install t ~name:"vn_file_read" (vn_file_read t) in
  let vnw_file = install t ~name:"vn_file_write" (vn_file_write t) in
  let vnr_pipe = install t ~name:"vn_pipe_read" (vn_pipe_read t) in
  let vnw_pipe = install t ~name:"vn_pipe_write" (vn_pipe_write t) in
  let bad_op = install t ~name:"vn_bad" [ I.Move (I.Imm (-1), I.Abs L.retval_cell); I.Rts ] in
  let ops_at name read write =
    let a = t.heap in
    t.heap <- t.heap + 2;
    poke t a read;
    poke t (a + 1) write;
    Hashtbl.replace t.syms name a;
    a
  in
  let ops_null = ops_at "ops_null" vnr_null vnw_null in
  let ops_tty = ops_at "ops_tty" vnr_tty vnw_tty in
  ignore (ops_at "ops_file" vnr_file vnw_file);
  let ops_pipe_r = ops_at "ops_pipe_r" vnr_pipe bad_op in
  let ops_pipe_w = ops_at "ops_pipe_w" bad_op vnw_pipe in
  (* fixed vnodes *)
  let v_null = alloc_vnode t ~vtype:L.vt_null ~ops:ops_null ~buf:0 ~size:0 ~cap:0 in
  let v_tty = alloc_vnode t ~vtype:L.vt_tty ~ops:ops_tty ~buf:0 ~size:0 ~cap:0 in
  let v_pipe_r =
    alloc_vnode t ~vtype:L.vt_pipe_r ~ops:ops_pipe_r ~buf:L.pipe_buf ~size:0
      ~cap:L.pipe_cap
  in
  let v_pipe_w =
    alloc_vnode t ~vtype:L.vt_pipe_w ~ops:ops_pipe_w ~buf:L.pipe_buf ~size:0
      ~cap:L.pipe_cap
  in
  (* a realistically crowded /dev: the real nodes sit mid-directory *)
  for i = 0 to 19 do
    add_dir_entry t ~name:(Printf.sprintf "/dev/xx%d" i) ~vnode:v_null
  done;
  add_dir_entry t ~name:"/dev/null" ~vnode:v_null;
  add_dir_entry t ~name:"/dev/tty" ~vnode:v_tty;
  for i = 20 to 31 do
    add_dir_entry t ~name:(Printf.sprintf "/dev/yy%d" i) ~vnode:v_null
  done;
  (* system-call handlers and the gate *)
  let sys_read = install t ~name:"h_read" (h_read t) in
  let sys_write = install t ~name:"h_write" (h_write t) in
  let sys_open = install t ~name:"h_open" (h_open t) in
  let sys_close = install t ~name:"h_close" (h_close t) in
  let sys_lseek = install t ~name:"h_lseek" h_lseek in
  let sys_pipe =
    install t ~name:"h_pipe" (h_pipe ~pipe_r_vnode:v_pipe_r ~pipe_w_vnode:v_pipe_w)
  in
  let sys_time = install t ~name:"h_time" h_time in
  let sys_getpid = install t ~name:"h_getpid" h_getpid in
  let sys_exit = install t ~name:"h_exit" h_exit in
  let unimpl = install t ~name:"h_unimpl" [ I.Move (I.Imm (-1), I.Abs L.retval_cell); I.Rts ] in
  for i = 0 to 63 do
    poke t (L.systab + i) unimpl
  done;
  poke t (L.systab + 1) sys_exit;
  poke t (L.systab + 3) sys_read;
  poke t (L.systab + 4) sys_write;
  poke t (L.systab + 5) sys_open;
  poke t (L.systab + 6) sys_close;
  poke t (L.systab + 13) sys_time;
  poke t (L.systab + 19) sys_lseek;
  poke t (L.systab + 20) sys_getpid;
  poke t (L.systab + 42) sys_pipe;
  let gate = install t ~name:"sys_entry" (sys_entry t) in
  let die = install t ~name:"fault" [ I.Halt ] in
  for v = 0 to I.Vector.table_size - 1 do
    poke t (L.vector_table + v) die
  done;
  poke t (L.vector_table + I.Vector.trap 15) gate;
  Machine.set_vbr m L.vector_table;
  (* a permissive user map: protection exists but covers everything *)
  Machine.define_map m ~id:1 [ (0, Machine.mem_words m) ];
  t

(* Load a user program (same binary as on Synthesis). *)
let load_program t insns = fst (Asm.assemble t.machine insns)

(* Run [entry] as the single user process until it exits (Halt). *)
let run ?(max_insns = max_int) t ~entry =
  let m = t.machine in
  Machine.set_supervisor m true;
  Machine.set_reg m I.sp L.kernel_stack_top;
  Machine.set_other_sp m L.user_stack_top;
  Machine.set_map m 1;
  Machine.set_supervisor m false; (* swaps to the user stack *)
  Machine.set_ipl m 0;
  Machine.set_pc m entry;
  Machine.run ~max_insns m
