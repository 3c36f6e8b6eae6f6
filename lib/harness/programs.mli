(** The seven measurement programs of Table 1, written once against
    the Unix trap-15 ABI and run unmodified on the Synthesis kernel
    (through the UNIX emulator) and on the baseline kernel — the
    paper's same-binary methodology (§6.1).

    The machine is word-addressed (one word = one 32-bit longword);
    1 KiB = 256 words. *)

(** The user-data environment a program is linked against. *)
type env = {
  e_data : int;
  e_name_null : int;
  e_name_tty : int;
  e_name_file : int;
  e_buf : int;
  e_arr : int;  (** large array for the compute benchmark *)
  e_arr_words : int;
}

val layout : data:int -> env

(** Fill the region through [poke] (names plus a patterned buffer). *)
val populate : env -> poke:(int -> int -> unit) -> unit

(** Total size of the region [layout] expects. *)
val data_words : int

(** Program 1: the compute-bound calibration (Hofstadter Q-sequence,
    touching a large array at non-contiguous points). *)
val compute : arr:int -> n:int -> Quamachine.Insn.insn list

(** Programs 2–4: write then read back a pipe in fixed-size chunks. *)
val pipe_rw : env -> chunk:int -> iters:int -> Quamachine.Insn.insn list

(** Program 5: read and write a (cached) file in fixed-size chunks. *)
val file_rw : env -> chunk:int -> iters:int -> Quamachine.Insn.insn list

(** Programs 6–7: open/close loops on a named device. *)
val open_close : name_addr:int -> iters:int -> Quamachine.Insn.insn list
