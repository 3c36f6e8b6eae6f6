(* Kernel monitor utilities (§6.1, §6.4): static listing costs,
   execution-trace formatting, and counter reports (disassembly of
   synthesized routines is Inspect's).  The
   paper's kernel devotes half its size to the monitor; ours leans on
   the host for rendering but reads the same machine state. *)

(* Static cost of a straight line: what [step] charges each
   instruction, base cycles plus its data references, up to and
   including the first instruction that can transfer control. *)
let static_cycles m ~from =
  let per_ref = Cost.mem_ref_cycles (Machine.cost_model m) in
  let rec go a acc =
    if a >= Machine.code_size m then acc
    else
      let i = Machine.read_code m a in
      let acc = acc + Cost.base i + (Cost.refs i * per_ref) in
      match i with
      | Insn.B _ | Insn.Dbra _ | Insn.Jmp _ | Insn.Jsr _ | Insn.Rts | Insn.Rte
      | Insn.Trap _ | Insn.Stop_wait | Insn.Halt ->
        acc
      | _ -> go (a + 1) acc
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
