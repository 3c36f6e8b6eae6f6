(** Kernel monitor utilities (§6.1, §6.4): static listing costs,
    trace formatting, counter reports. *)

(** Cycles the machine charges to run the straight line of code at
    [from]: each instruction's {!Cost.base} plus
    {!Cost.mem_ref_cycles} per {!Cost.refs}, through the first one
    that can transfer control (a branch, Dbra, jump, call, return,
    trap, Stop_wait or Halt), which is charged its longest path. *)
val static_cycles : Machine.t -> from:int -> int

(** Render the last [n] entries of the execution-trace ring. *)
val pp_trace : Machine.t -> Format.formatter -> int -> unit

val pp_counters : Machine.t -> Format.formatter -> unit -> unit
