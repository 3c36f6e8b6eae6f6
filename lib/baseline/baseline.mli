(** The baseline kernel: a deliberately traditional Unix-style kernel
    on the same simulated machine, standing in for SUNOS 3.5 in the
    Table 1 comparison.  One trap gate saving all registers, a
    syscall-table dispatch, file-table + vnode indirection, semaphores
    with wakeup scans, buffer-cache walks, component-wise namei,
    word-at-a-time uiomove, inode-backed pipes, and a run-queue scan
    per system call — every cost is executed code on the same ISA and
    cost model as Synthesis.

    Runs exactly one user process per boot, speaking the
    {!Unix_emulator.Unix_abi} trap-15 convention. *)

open Quamachine

type t = {
  machine : Machine.t;
  tty : Devices.Tty.t;
  mutable heap : int;
  mutable next_vnode : int;
  mutable next_dir : int;
  syms : (string, int) Hashtbl.t;
}

val boot : ?cost:Cost.t -> unit -> t

(** Host-side memory write (populating user data before a run). *)
val poke : t -> int -> int -> unit

(** Create a memory file with [content] and a directory entry;
    returns the vnode address. *)
val create_file :
  t -> name:string -> ?capacity:int -> ?content:int array -> unit -> int

(** Load a user program (the same binary that runs on Synthesis). *)
val load_program : t -> Insn.insn list -> int

(** Run [entry] as the single user process until it exits. *)
val run : ?max_insns:int -> t -> entry:int -> Machine.run_result
