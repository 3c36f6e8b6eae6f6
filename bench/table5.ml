(* Table 5: interrupt handling in microseconds — raw TTY and A/D
   interrupt service, alarms, and procedure chaining. *)

open Quamachine
open Synthesis
module I = Insn
module U = Unix_emulator.Unix_abi

let busy_thread k =
  let busy, _ =
    Ksynth.install k ~name:"bench/busy"
      [ I.Label "s"; I.B (I.Always, I.To_label "s") ]
  in
  Thread.create k ~quantum_us:100_000 ~entry:busy ()

(* Measure one interrupt service: from the handler's first instruction
   back to user mode. *)
let measure_irq_span m ~handler_entry =
  if not (Repro_harness.Harness.run_until_pc m ~max_insns:10_000_000 handler_entry) then
    failwith "measure_irq_span: interrupt never delivered";
  let s0 = Machine.snapshot m in
  if not (Repro_harness.Harness.run_until_user m ~max_insns:100_000) then
    failwith "measure_irq_span: handler never returned";
  Machine.stats_us m (Machine.delta m s0)

let measure_tty_irq () =
  let b = Boot.boot () in
  let vfs = b.Boot.vfs in
  let k = b.Boot.kernel in
  let _srv = Tty.install vfs in
  let _t = busy_thread k in
  Boot.enter_scheduler k;
  ignore (Repro_harness.Harness.run_until_user k.Kernel.machine ~max_insns:1_000_000);
  Devices.Tty.feed k.Kernel.tty "x";
  let handler_entry = k.Kernel.default_vectors.(Mmio_map.tty_vector) in
  measure_irq_span k.Kernel.machine ~handler_entry

let measure_ad_irq () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let adq = Interrupt.install_adq k ~n_elems:16 () in
  let _t = busy_thread k in
  Boot.enter_scheduler k;
  ignore (Repro_harness.Harness.run_until_user k.Kernel.machine ~max_insns:1_000_000);
  Devices.Ad.set_rate k.Kernel.ad 44_100;
  (* measure a mid-element stage (no element-boundary bookkeeping) *)
  let stage = adq.Interrupt.adq_stages.(2) in
  let span = measure_irq_span k.Kernel.machine ~handler_entry:stage in
  (adq, span)

let measure_alarm () =
  let se = Repro_harness.Harness.synthesis_setup () in
  let k = se.Repro_harness.Harness.s_boot.Boot.kernel in
  let m = k.Kernel.machine in
  let stamps = se.Repro_harness.Harness.s_stamps in
  let mark = Repro_harness.Harness.Stamps.mark stamps in
  let handler, _ = Ksynth.install k ~name:"bench/sig_h" [ I.Rts ] in
  let program =
    [
      (* register a handler so the alarm signal has a target *)
      I.Move (I.Imm handler, I.Reg I.r1);
      I.Trap 8;
      mark;
      I.Move (I.Imm 200, I.Reg I.r1);
      I.Trap 7; (* set alarm: 200 us *)
      mark;
      I.Move (I.Imm 100_000, I.Reg I.r9);
      I.Label "spin";
      I.Dbra (I.r9, I.To_label "spin");
      I.Move (I.Imm U.sys_exit, I.Reg I.r0);
      I.Trap U.trap;
    ]
  in
  let entry, _ = Asm.assemble m program in
  let _t = Thread.create k ~entry () in
  (* run until the alarm interrupt is vectored, then measure it *)
  Boot.enter_scheduler k;
  let alarm_entry = k.Kernel.default_vectors.(Mmio_map.alarm_vector) in
  let alarm_irq_us = measure_irq_span m ~handler_entry:alarm_entry in
  (match Machine.run ~max_insns:10_000_000 m with _ -> ());
  let set_alarm_us =
    match Repro_harness.Harness.Stamps.spans stamps with
    | set_us :: _ -> set_us
    | [] -> failwith "alarm: no spans"
  in
  (set_alarm_us, alarm_irq_us)

(* Procedure chaining: build a fake interrupt frame, chain a no-op
   kernel procedure, measure the chain call; with and without a forced
   CAS retry. *)
let measure_chain ~force_retry () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let chain = Interrupt.install_chain k in
  let stamps = Repro_harness.Harness.Stamps.create m in
  let mark = Repro_harness.Harness.Stamps.mark stamps in
  let proc, _ = Ksynth.install k ~name:"bench/chained_proc" [ I.Rts ] in
  let frag =
    [
      I.Push (I.Lbl "after"); (* fake frame: PC *)
      I.Push (I.Imm Ctx.kernel_sr); (* fake frame: SR *)
      mark;
      I.Move (I.Imm proc, I.Reg I.r1);
      I.Jsr (I.To_addr chain.Interrupt.ch_chain);
      mark;
      I.Rte; (* handler return: runs the chain runner *)
      I.Label "after";
      I.Halt;
    ]
  in
  let entry, _ = Asm.assemble m frag in
  Machine.set_supervisor m true;
  Machine.set_reg m I.sp Layout.boot_stack_top;
  Machine.set_pc m entry;
  if force_retry then begin
    (* single-step to the CAS inside the chain queue's put and move
       Q_head under its feet, forcing one retry loop *)
    let q = chain.Interrupt.ch_queue in
    let rec find_cas a =
      match Machine.read_code m a with
      | I.Cas (_, _, _) -> a
      | _ -> find_cas (a + 1)
    in
    let cas_pc = find_cas q.Kqueue.q_put in
    if not (Repro_harness.Harness.run_until_pc m ~max_insns:10_000 cas_pc) then
      failwith "chain: CAS not reached";
    let head_cell = Kqueue.head_cell q in
    let h = Machine.peek m head_cell in
    Machine.poke m head_cell ((h + 1) mod q.Kqueue.q_size)
  end;
  ignore (Machine.run ~max_insns:10_000 m);
  match Repro_harness.Harness.Stamps.spans stamps with
  | chain_us :: _ -> chain_us
  | [] -> failwith "chain: no spans"

(* Chained (delayed) signal: delivery to a thread suspended inside a
   kernel operation rewrites the deepest frame on its kernel stack. *)
let measure_chained_signal () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let handler, _ = Ksynth.install k ~name:"bench/sig_h" [ I.Rts ] in
  let busy, _ =
    Ksynth.install k ~name:"bench/busy2"
      [ I.Label "s"; I.B (I.Always, I.To_label "s") ]
  in
  let t = Thread.create k ~entry:busy () in
  Thread.set_signal_handler k t handler;
  (* make the target look suspended in a kernel continuation *)
  Machine.poke m (t.Kernel.base + Layout.Tte.off_regs + 16) Ctx.kernel_sr;
  let s0 = Machine.snapshot m in
  let ok = Thread.deliver_signal k t in
  if not ok then failwith "chained signal: not delivered";
  Machine.stats_us m (Machine.delta m s0)

let run () =
  Repro_harness.Harness.header "Table 5: interrupt handling (microseconds)";
  let tty_us = measure_tty_irq () in
  let _adq, ad_us = measure_ad_irq () in
  let set_alarm_us, alarm_irq_us = measure_alarm () in
  let chain_us = measure_chain ~force_retry:false () in
  let chain_retry_us = measure_chain ~force_retry:true () in
  let chained_signal_us = measure_chained_signal () in
  List.iter
    (fun (slug, v) -> Bench_json.record ~table:"table5" ~row:slug ~metric:"us" v)
    [
      ("tty_irq", tty_us); ("ad_irq", ad_us); ("set_alarm", set_alarm_us);
      ("alarm_irq", alarm_irq_us); ("chain", chain_us);
      ("chain_retry", chain_retry_us); ("chained_signal", chained_signal_us);
    ];
  Fmt.pr "%-38s %10s %10s@." "operation" "measured" "paper";
  let row name v paper = Fmt.pr "%-38s %10.1f %10s@." name v paper in
  row "service raw TTY interrupt" tty_us "16";
  row "service raw A/D interrupt" ad_us "3";
  row "set alarm" set_alarm_us "9";
  row "alarm interrupt" alarm_irq_us "7";
  row "chain to a procedure" chain_us "4";
  row "chain to a procedure (1 retry)" chain_retry_us "7";
  row "chain (signal) a thread, delayed" chained_signal_us "9"
