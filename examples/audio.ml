(* The A/D buffered queue at 44,100 interrupts per second (§5.4).

   The A/D converter interrupts once per sample; eight synthesized
   stage handlers pack eight samples per queue element, each storing
   into its own slot with the address folded in (a couple of
   instructions per interrupt).  A consumer thread drains elements,
   applies a trivial filter and writes to the D/A converter — the
   Synthesis sound pipeline.

   Run with: dune exec examples/audio.exe *)

open Quamachine
open Synthesis
module I = Insn

let () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in

  let adq = Interrupt.install_adq k ~n_elems:64 () in

  (* Consumer: a kernel service thread.  Each loop grabs one valid
     element (blocking when none), halves the 8 samples and writes
     them to the D/A. *)
  let consumer_code =
    [
      I.Label "retry";
      I.Jsr (I.To_addr adq.Interrupt.adq_get); (* r0 = ok, r1 = element *)
      I.Tst (I.Reg I.r0);
      I.B (I.Eq, I.To_label "wait");
      I.Move (I.Imm 7, I.Reg I.r9);
      I.Label "elem";
      I.Move (I.Post_inc I.r1, I.Reg I.r4);
      I.Alu (I.Lsr, I.Imm 1, I.r4); (* the "filter": halve *)
      I.Move (I.Reg I.r4, I.Abs Mmio_map.da_data);
      I.Dbra (I.r9, I.To_label "elem");
      I.B (I.Always, I.To_label "retry");
      I.Label "wait";
    ]
    @ Interrupt.consumer_block_code k adq ~retry:"retry"
  in
  let centry, _ = Ksynth.install k ~name:"audio/consumer" consumer_code in
  let consumer = Thread.create k ~quantum_us:300 ~system:true ~entry:centry () in
  Machine.poke m (consumer.Kernel.base + Layout.Tte.off_regs + 16) Ctx.kernel_sr;

  (* a compute-bound competitor so the scheduler has something to
     trade off against the audio thread *)
  let hog_prog =
    [
      I.Move (I.Imm 2_000_000, I.Reg I.r9);
      I.Label "spin";
      I.Dbra (I.r9, I.To_label "spin");
      I.Trap 0;
    ]
  in
  let hog_entry, _ = Asm.assemble m hog_prog in
  let _hog = Thread.create k ~quantum_us:300 ~entry:hog_entry () in

  Scheduler.install k ~epoch_us:5_000 ();

  (* switch on the sampler and run the hog to completion *)
  Devices.Ad.set_rate k.Kernel.ad 44_100;
  (match Boot.go ~max_insns:300_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> failwith "did not halt");
  Devices.Ad.set_rate k.Kernel.ad 0;

  let produced = Devices.Ad.delivered k.Kernel.ad in
  let consumed = Queue.length (let q = Devices.Da.drain k.Kernel.da |> List.to_seq |> Queue.of_seq in q) in
  Fmt.pr "simulated time: %.1f ms at 44.1 kHz@." (Machine.time_us m /. 1000.0);
  Fmt.pr "A/D samples delivered: %d;  D/A samples written: %d;  overruns: %d@."
    produced consumed adq.Interrupt.adq_overruns;
  Fmt.pr "audio consumer quantum adapted to %d us@." consumer.Kernel.quantum_us;
  if adq.Interrupt.adq_overruns = 0 && consumed > 0 then
    Fmt.pr "the buffered queue kept up: no samples dropped@."
