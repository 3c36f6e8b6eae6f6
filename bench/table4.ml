(* Table 4: dispatcher/scheduler costs in microseconds.

   Full context switches are measured on the executable ready queue:
   from the first instruction of a thread's switch-out procedure until
   the next thread is back in user mode.  Variants: same quaspace
   (no MMU reload), different quaspace, and threads carrying FP state
   (the lazy-FP ablation).  The partial switch is the synthesized
   coroutine transfer.  Block/unblock are the wait-queue operations. *)

open Quamachine
open Synthesis
module I = Insn

(* Measure one switch-out -> switch-in transition between two busy
   threads. *)
let measure_switch ~uses_fp ~share_map () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let busy, _ =
    Ksynth.install k ~name:"bench/busy"
      [ I.Label "s"; I.B (I.Always, I.To_label "s") ]
  in
  let t1 = Thread.create k ~quantum_us:100 ~uses_fp ~entry:busy () in
  let t2 =
    if share_map then
      Thread.create k ~quantum_us:100 ~uses_fp ~share_map:t1 ~entry:busy ()
    else Thread.create k ~quantum_us:100 ~uses_fp ~entry:busy ()
  in
  Boot.enter_scheduler k;
  ignore (Repro_harness.Harness.run_until_user m ~max_insns:100_000);
  (* wait for the next quantum expiry: pc lands on some thread's
     switch-out *)
  let at_sw_out () =
    let pc = Machine.get_pc m in
    pc = t1.Kernel.sw_out || pc = t2.Kernel.sw_out
  in
  if not (Repro_harness.Harness.run_until m ~max_insns:1_000_000 at_sw_out) then
    failwith "measure_switch: no quantum expiry";
  let s0 = Machine.snapshot m in
  if not (Repro_harness.Harness.run_until_user m ~max_insns:100_000) then
    failwith "measure_switch: never resumed";
  Machine.stats_us m (Machine.delta m s0)

(* The synthesized coroutine (partial) switch. *)
let measure_partial () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let alloc = k.Kernel.alloc in
  let cell_a = Kalloc.alloc_zeroed alloc 16 in
  let cell_b = Kalloc.alloc_zeroed alloc 16 in
  let stack_b = Kalloc.alloc_zeroed alloc 64 in
  let switch =
    Ctx.synthesize_partial_switch k ~name:"bench/partial" ~from_cell:cell_a
      ~to_cell:cell_b
  in
  let stamps = Repro_harness.Harness.Stamps.create m in
  let mark = Repro_harness.Harness.Stamps.mark stamps in
  let frag =
    [
      mark;
      I.Jsr (I.To_addr switch);
      I.Halt; (* context A never resumes *)
      I.Label "arrived";
      mark;
      I.Halt;
    ]
  in
  let entry, syms = Asm.assemble m frag in
  (* craft context B's stack: six saved registers, then the return
     address for the switch routine's Rts *)
  let arrived = Asm.symbol syms "arrived" in
  let sp_b = stack_b + 32 in
  Machine.poke m (sp_b + 6) arrived;
  Machine.poke m cell_b sp_b;
  Machine.set_supervisor m true;
  Machine.set_reg m I.sp Layout.boot_stack_top;
  Machine.set_pc m entry;
  ignore (Machine.run ~max_insns:1_000 m);
  match Repro_harness.Harness.Stamps.spans stamps with
  | [ partial ] -> partial
  | _ -> failwith "measure_partial: bad spans"

let measure_block_unblock () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let busy, _ =
    Ksynth.install k ~name:"bench/busy"
      [ I.Label "s"; I.B (I.Always, I.To_label "s") ]
  in
  let victim = Thread.create k ~quantum_us:500 ~entry:busy () in
  Boot.enter_scheduler k;
  ignore (Repro_harness.Harness.run_until_user m ~max_insns:100_000);
  (* block: the wait-queue bookkeeping plus the continuation frame *)
  let wq = Kernel.waitq ~name:"bench/wq" in
  let block_id = Thread.block_hcall k wq in
  let frag =
    [ I.Hcall block_id; I.Push (I.Imm 0); I.Push (I.Imm Ctx.kernel_sr); I.Halt ]
  in
  let entry, _ = Asm.assemble m frag in
  Machine.set_supervisor m true;
  Machine.set_pc m entry;
  let s0 = Machine.snapshot m in
  ignore (Machine.run ~max_insns:100 m);
  let block_us = Machine.stats_us m (Machine.delta m s0) in
  (* unblock: wait-queue pop plus front-of-ready-queue insertion *)
  let s0 = Machine.snapshot m in
  (match Thread.unblock k wq with
  | Some t -> assert (t == victim)
  | None -> failwith "unblock: empty wait queue");
  let unblock_us = Machine.stats_us m (Machine.delta m s0) in
  (block_us, unblock_us)

let run () =
  Repro_harness.Harness.header "Table 4: dispatcher/scheduler (microseconds)";
  let full = measure_switch ~uses_fp:false ~share_map:true () in
  let full_mmu = measure_switch ~uses_fp:false ~share_map:false () in
  let full_fp = measure_switch ~uses_fp:true ~share_map:true () in
  let partial = measure_partial () in
  let block_us, unblock_us = measure_block_unblock () in
  List.iter
    (fun (slug, v) -> Bench_json.record ~table:"table4" ~row:slug ~metric:"us" v)
    [
      ("full_switch", full); ("full_switch_mmu", full_mmu);
      ("full_switch_fp", full_fp); ("partial_switch", partial);
      ("block", block_us); ("unblock", unblock_us);
    ];
  Fmt.pr "%-38s %10s %10s@." "operation" "measured" "paper";
  let row name v paper = Fmt.pr "%-38s %10.1f %10s@." name v paper in
  row "full context switch (same quaspace)" full "11";
  row "full context switch (+MMU reload)" full_mmu "-";
  row "full context switch (with FP)" full_fp "21";
  row "partial context switch" partial "3";
  row "block thread" block_us "4";
  row "unblock thread" unblock_us "4"
