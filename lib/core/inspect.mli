(** Inspection of synthesized code: find routines by page name and
    disassemble them — the window into what the synthesizer emitted. *)

(** Routines whose page name contains the substring
    (case-insensitive), oldest first. *)
val grep : Kernel.t -> string -> Kernel.synth_page list

(** One page's instructions, with its probe points as comments and
    its straight-line cycle count from the entry. *)
val disassemble_routine : Kernel.t -> Format.formatter -> Kernel.synth_page -> unit
val pp_registry : Kernel.t -> Format.formatter -> unit -> unit
val pp_threads : Kernel.t -> Format.formatter -> unit -> unit
