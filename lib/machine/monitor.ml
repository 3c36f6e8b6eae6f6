(* Kernel monitor utilities (§6.1, §6.4): static listing costs,
   execution-trace formatting, and counter reports (disassembly of
   synthesized routines is Inspect's).  The
   paper's kernel devotes half its size to the monitor; ours leans on
   the host for rendering but reads the same machine state. *)

(* Static cost of a straight-line listing: base cycles (memory
   references depend on dynamic addresses and are excluded). *)
let static_cycles m ~from ~len =
  let stop = min (from + len) (Machine.code_size m) in
  let rec go a acc =
    if a >= stop then acc else go (a + 1) (acc + Cost.base (Machine.read_code m a))
  in
  go from 0

(* Render the trace ring: recent program counters with instructions. *)
let pp_trace m ppf n =
  List.iter
    (fun pc ->
      if pc >= 0 && pc < Machine.code_size m then
        Fmt.pf ppf "  %5d  %a@." pc Insn.pp (Machine.read_code m pc)
      else Fmt.pf ppf "  %5d  <invalid>@." pc)
    (Machine.trace_window m n)

let pp_counters m ppf () =
  Fmt.pf ppf
    "cycles: %d  instructions: %d  memory refs: %d  time: %.1f us (%s)@."
    (Machine.cycles m) (Machine.insns_executed m) (Machine.mem_refs m)
    (Machine.time_us m)
    (Machine.cost_model m).Cost.name
