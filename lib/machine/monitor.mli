(** Kernel monitor utilities (§6.1, §6.4): disassembly, trace
    formatting, counter reports. *)

(** Maps a code address to a label (e.g. from the synthesis registry). *)
type annotation = int -> string option

(** Disassemble [len] instructions starting at [from]. *)
val disassemble :
  ?annotate:annotation -> Machine.t -> from:int -> len:int -> Format.formatter -> unit

(** Sum of base cycles over a listing (memory references excluded). *)
val static_cycles : Machine.t -> from:int -> len:int -> int

(** Render the last [n] entries of the execution-trace ring. *)
val pp_trace : Machine.t -> Format.formatter -> int -> unit

val pp_counters : Machine.t -> Format.formatter -> unit -> unit
