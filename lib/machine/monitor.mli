(** Kernel monitor utilities (§6.1, §6.4): static listing costs,
    trace formatting, counter reports. *)

(** Sum of base cycles over a listing (memory references excluded). *)
val static_cycles : Machine.t -> from:int -> len:int -> int

(** Render the last [n] entries of the execution-trace ring. *)
val pp_trace : Machine.t -> Format.formatter -> int -> unit

val pp_counters : Machine.t -> Format.formatter -> unit -> unit
