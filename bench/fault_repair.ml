(* kheal repair cost: cycles to detect and resynthesize a corrupted
   synthesized-code region, per region kind — a quaject operation, a
   thread's switch code, and a queue template — through both detection
   channels:

   - audit: the host-side checksum walk finds the dirty region and
     rebuilds it from its template + recorded invariants; the repair
     charges normal synthesis cost (the walk itself is free);
   - trap: the corrupted instruction executes, raises an illegal
     instruction fault, the handler repairs the containing region in
     place, and the retried instruction completes — measured end to
     end against the same call on clean code, and the op's side effect
     must happen exactly once.

   All costs are deterministic simulated cycles, recorded in the bench
   JSON trajectory and gated by `bench compare`. *)

open Quamachine
open Synthesis
module I = Insn

let region k name =
  match Kernel.find_region_by_name k name with
  | Some r -> r
  | None -> failwith ("fault_repair: no region " ^ name)

(* Corrupt one instruction mid-region, then measure one audit pass:
   detect (free) + resynthesize (charged). *)
let audit_repair_cycles k r =
  let m = k.Kernel.machine in
  Fault_inject.corrupt_code m
    ~addr:(r.Kernel.cr_entry + (r.Kernel.cr_len / 2))
    ~bit:5;
  if not (Kernel.region_dirty k r) then
    failwith ("fault_repair: corruption not visible in " ^ r.Kernel.cr_name);
  let before = Kernel.code_repairs_total k in
  let c0 = Machine.cycles m in
  let n = Kernel.audit_code ~origin:"bench" k in
  let cy = Machine.cycles m - c0 in
  if
    n <> 1
    || Kernel.region_dirty k r
    || Kernel.code_repairs_total k <> before + 1
  then failwith ("fault_repair: audit did not repair " ^ r.Kernel.cr_name);
  cy

let run () =
  Repro_harness.Harness.header "kheal repair cost (detect + resynthesize)";
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let alloc = k.Kernel.alloc in
  (* one region of each kind *)
  ignore (Kqueue.create ~kind:Kqueue.Mpmc k ~name:"bench/q" ~size:8);
  let idle, _ = Asm.assemble m [ I.Rts ] in
  let t = Thread.create k ~entry:idle ~quantum_us:1_000 () in
  let cell = Kalloc.alloc_zeroed alloc 4 in
  let tick_template ~self:_ =
    Template.make ~name:"tick" (fun () ->
        [ I.Alu_mem (I.Add, I.Imm 1, I.Abs cell); I.Rts ])
  in
  let qj =
    Synthesizer.create k ~name:"bench" ~data_words:4 [ ("tick", tick_template) ]
  in
  let kinds =
    [
      ("quaject_op", "quaject/bench/tick");
      ("switch_code", Printf.sprintf "ctx/t%d/sw_out" t.Kernel.tid);
      ("queue_template", "bench/q/put");
    ]
  in
  List.iter
    (fun (label, name) ->
      let r = region k name in
      let cy = audit_repair_cycles k r in
      Fmt.pr "%-44s %6d cycles  (%d insns resynthesized)@."
        (label ^ " (audit)") cy r.Kernel.cr_len;
      Bench_json.record ~table:"repair" ~row:(label ^ "_audit")
        ~metric:"cycles" (float_of_int cy))
    kinds;
  (* trap path, end to end: fault + repair + retry vs a clean call.
     Exceptions vector through vbr, so point it at a real table (the
     thread's private one — boot-level vbr is 0). *)
  Machine.set_vbr m (t.Kernel.base + Layout.Tte.off_vectors);
  let tick = Synthesizer.op_entry qj "tick" in
  let call () =
    let start, _ = Asm.assemble m [ I.Jsr (I.To_addr tick); I.Halt ] in
    Machine.set_halted m false;
    Machine.set_supervisor m true;
    Machine.set_reg m I.sp 0xE00;
    let c0 = Machine.cycles m in
    Machine.set_pc m start;
    (match Machine.run ~max_insns:10_000 m with
    | Machine.Halted -> ()
    | Machine.Insn_limit -> failwith "fault_repair: call did not return");
    Machine.cycles m - c0
  in
  let clean = call () in
  let r = region k "quaject/bench/tick" in
  Fault_inject.corrupt_code m ~addr:r.Kernel.cr_entry ~bit:9;
  let before = Machine.peek m cell in
  let faulted = call () in
  if Kernel.region_dirty k r then
    failwith "fault_repair: trap path did not repair";
  if Machine.peek m cell <> before + 1 then
    failwith "fault_repair: retried op did not run exactly once";
  let delta = faulted - clean in
  Fmt.pr "%-44s %6d cycles  (clean call: %d)@." "quaject_op (trap, end to end)"
    delta clean;
  Bench_json.record ~table:"repair" ~row:"quaject_op_trap" ~metric:"cycles"
    (float_of_int delta)
