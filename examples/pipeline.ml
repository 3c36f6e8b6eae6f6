(* A two-thread producer/consumer pipeline over a kernel pipe,
   illustrating the stream model of I/O (§5.2): both ends are active,
   single producer and single consumer, so the §5.2 case analysis
   picks an SP-SC queue — the pipe — and the threads block on
   full/empty through the standard protocol.

   Run with: dune exec examples/pipeline.exe *)

open Quamachine
open Synthesis
module I = Insn

let () =
  (* ask the §5.2 case table what connects these endpoints *)
  let connector =
    Quaject.connect
      ~producer:(Quaject.port Quaject.Active)
      ~consumer:(Quaject.port Quaject.Active)
  in
  Fmt.pr "interfacer: active producer + active consumer (single/single) -> %s@."
    (Quaject.connector_name connector);

  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let vfs = b.Boot.vfs in

  (* a small pipe so the producer outruns the consumer and blocks *)
  let pipe = Kpipe.create k ~cap:64 () in

  let total = 5000 in
  let result = Kalloc.alloc_zeroed k.Kernel.alloc 16 in

  (* Producer: writes 1..total into the pipe, 8 words at a time. *)
  let src = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let producer_prog rfd_wfd =
    let _, wfd = rfd_wfd in
    [
      I.Move (I.Imm 1, I.Reg I.r9); (* next value *)
      I.Label "loop";
      (* build a burst of 8 consecutive values *)
      I.Move (I.Imm src, I.Reg I.r10);
      I.Move (I.Imm 7, I.Reg I.r11);
      I.Label "fill";
      I.Move (I.Reg I.r9, I.Post_inc I.r10);
      I.Alu (I.Add, I.Imm 1, I.r9);
      I.Dbra (I.r11, I.To_label "fill");
      (* write(wfd, src, 8) *)
      I.Move (I.Imm wfd, I.Reg I.r1);
      I.Move (I.Imm src, I.Reg I.r2);
      I.Move (I.Imm 8, I.Reg I.r3);
      I.Trap 2;
      I.Cmp (I.Imm (total + 1), I.Reg I.r9);
      I.B (I.Ne, I.To_label "loop");
      I.Trap 0;
    ]
  in

  (* Consumer: reads and accumulates until it has seen [total] words. *)
  let dst = Kalloc.alloc_zeroed k.Kernel.alloc 64 in
  let consumer_prog rfd_wfd =
    let rfd, _ = rfd_wfd in
    [
      I.Move (I.Imm 0, I.Reg I.r9); (* sum *)
      I.Move (I.Imm 0, I.Reg I.r10); (* words seen *)
      I.Label "loop";
      I.Move (I.Imm rfd, I.Reg I.r1);
      I.Move (I.Imm dst, I.Reg I.r2);
      I.Move (I.Imm 32, I.Reg I.r3);
      I.Trap 1; (* r0 = words read *)
      I.Move (I.Reg I.r0, I.Reg I.r11);
      I.Alu (I.Add, I.Reg I.r11, I.r10);
      I.Move (I.Imm dst, I.Reg I.r12);
      I.Tst (I.Reg I.r11);
      I.B (I.Eq, I.To_label "loop");
      I.Alu (I.Sub, I.Imm 1, I.r11);
      I.Label "acc";
      I.Alu (I.Add, I.Post_inc I.r12, I.r9);
      I.Dbra (I.r11, I.To_label "acc");
      I.Cmp (I.Imm total, I.Reg I.r10);
      I.B (I.Ne, I.To_label "loop");
      I.Move (I.Reg I.r9, I.Abs result);
      I.Trap 0;
    ]
  in

  (* Create both threads, then attach pipe ends to each (the read end
     synthesized for the consumer, the write end for the producer). *)
  let consumer =
    Thread.create k ~quantum_us:150 ~entry:0
      ~segments:[ (dst, 64); (result, 16) ]
      ()
  in
  let producer =
    Thread.create k ~quantum_us:150 ~entry:0 ~segments:[ (src, 16) ] ()
  in
  let cons_fds = Kpipe.attach vfs pipe consumer in
  let prod_fds = Kpipe.attach vfs pipe producer in
  let centry, _ = Asm.assemble m (consumer_prog cons_fds) in
  let pentry, _ = Asm.assemble m (producer_prog prod_fds) in
  Machine.poke m (consumer.Kernel.base + Layout.Tte.off_pc) centry;
  Machine.poke m (producer.Kernel.base + Layout.Tte.off_pc) pentry;

  (* fine-grain scheduling watches both gauges *)
  Scheduler.install k ~epoch_us:2_000 ();

  (match Boot.go ~max_insns:200_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> failwith "did not halt");

  let expected = total * (total + 1) / 2 in
  Fmt.pr "consumer sum: %d (expected %d)@." (Machine.peek m result) expected;
  Fmt.pr "simulated time: %.2f ms@." (Machine.time_us m /. 1000.0);
  Fmt.pr "producer quantum ended at %d us, consumer at %d us (adaptive)@."
    producer.Kernel.quantum_us consumer.Kernel.quantum_us
