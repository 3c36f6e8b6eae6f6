(** Inspection of synthesized code: find routines by registry name and
    disassemble them — the window into what the synthesizer emitted. *)

(** Find a routine by exact registry name: (name, entry, length). *)
val find : Kernel.t -> string -> (string * int * int) option

(** Routines whose registry name contains the substring
    (case-insensitive). *)
val grep : Kernel.t -> string -> (string * int * int) list

val disassemble_routine : Kernel.t -> Format.formatter -> string -> unit
val pp_registry : Kernel.t -> Format.formatter -> unit -> unit
val pp_threads : Kernel.t -> Format.formatter -> unit -> unit
