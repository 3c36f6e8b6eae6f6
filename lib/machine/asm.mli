(** Two-pass assembler for instruction fragments.

    Fragments are [Insn.insn list]s that may contain [Insn.Label] and
    [Insn.Probe] pseudo-instructions, [Insn.To_label] branch targets, and
    [Insn.Lbl] label-immediates; assembly resolves them against the
    load address plus an environment of external symbols, and loads
    the result into the machine's code store. *)

type symbols = (string * int) list

exception Undefined_label of string
exception Duplicate_label of string

(** Resolve labels as if loading at [at] without installing anything;
    returns the resolved body and the absolute symbol table. *)
val resolve :
  ?env:symbols -> at:int -> Insn.insn list -> Insn.insn list * symbols

(** Assemble and append to the machine's code store; returns the
    entry address and the fragment's symbol table. *)
val assemble : ?env:symbols -> Machine.t -> Insn.insn list -> int * symbols

(** Look up a required symbol; raises {!Undefined_label}. *)
val symbol : symbols -> string -> int

(** Instruction count of a fragment, pseudo-instructions excluded. *)
val length : Insn.insn list -> int

(** Every [Insn.Probe] point as (name, offset of the instruction it
    precedes), in fragment order.  Names may repeat.  Raises
    [Invalid_argument] for a probe directly before a label, which
    would fire on every branch to that label too. *)
val probe_points : Insn.insn list -> (string * int) list

val pp_listing : Format.formatter -> Insn.insn list -> unit
