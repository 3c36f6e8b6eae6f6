(** Cycle cost model (§6.1).

    Each instruction costs [base] cycles plus [mem_ref_cycles] per
    data-memory reference; wait states add to every reference.  The
    Quamachine emulated a SUN 3/160 by running at 16 MHz with one wait
    state — [sun3_emulation]. *)

type t = { name : string; clock_mhz : float; wait_states : int }

(** 50 MHz, no-wait-state memory: the native Quamachine. *)
val native : t

(** 16 MHz + 1 wait state: the SUN 3/160 emulation of §6.1. *)
val sun3_emulation : t

val mem_ref_cycles : t -> int

(** Base cycles of one instruction, excluding data references. *)
val base : Insn.insn -> int

(** Data references implied by one read or write of an operand. *)
val operand_refs : Insn.operand -> int

(** Data references one execution of an instruction makes: operands,
    stack words, a trap's frame and vector fetch.  A branch, Dbra or
    Cas counts its longest path (taken, storing). *)
val refs : Insn.insn -> int

val cycles_of_us : t -> float -> int
val us_of_cycles : t -> int -> float
