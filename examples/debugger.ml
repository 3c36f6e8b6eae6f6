(* Thread control and debugger support (§4.3): stop, single-step and
   signal another thread.  "The short time to start, stop, and step a
   thread makes it possible to trace and debug threads in a highly
   interactive way."

   Run with: dune exec examples/debugger.exe *)

open Quamachine
open Synthesis
module I = Insn

let () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in

  (* The debuggee: counts in r9 forever. *)
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let prog =
    [
      I.Move (I.Imm 0, I.Reg I.r9);
      I.Label "loop";
      I.Alu (I.Add, I.Imm 1, I.r9);
      I.Move (I.Reg I.r9, I.Abs cell);
      I.B (I.Always, I.To_label "loop");
    ]
  in
  let entry, _ = Asm.assemble m prog in
  let target = Thread.create k ~entry ~segments:[ (cell, 16) ] () in

  (* A busy thread keeps the machine alive while we poke at the target. *)
  let busy, _ =
    Ksynth.install k ~name:"dbg/busy"
      [ I.Label "s"; I.B (I.Always, I.To_label "s") ]
  in
  let _runner = Thread.create k ~quantum_us:100_000 ~entry:busy () in

  (* Start the machine, let the target run a little, then stop it. *)
  Boot.enter_scheduler k;
  ignore (Machine.run ~max_insns:5_000 m);
  Thread.stop k target;
  ignore (Machine.run ~max_insns:2_000 m);
  Fmt.pr "stopped the counter at %d (saved pc=%d, saved r9=%d)@."
    (Machine.peek m cell)
    (Thread.saved_pc k target)
    (Thread.saved_reg k target I.r9);

  (* Single-step it ten times; each step runs exactly one instruction. *)
  Machine.trace_enable m true;
  for i = 1 to 10 do
    Thread.step k target;
    let ok =
      let rec go n =
        if n = 0 then false
        else if Thread.fully_stopped k target then true
        else begin
          Machine.step m;
          go (n - 1)
        end
      in
      go 100_000
    in
    if not ok then failwith "step did not stop";
    Fmt.pr "step %2d: pc=%-5d r9=%-4d counter=%d@." i (Thread.saved_pc k target)
      (Thread.saved_reg k target I.r9)
      (Machine.peek m cell)
  done;

  (* Execution trace from the kernel monitor's ring buffer (§6.3). *)
  Fmt.pr "last executed PCs: %a@."
    Fmt.(list ~sep:sp int)
    (Machine.trace_window m 8);

  (* Resume it, then destroy it. *)
  Thread.start k target;
  ignore (Machine.run ~max_insns:20_000 m);
  Fmt.pr "after resuming: counter=%d@." (Machine.peek m cell);
  Thread.destroy k target;
  Fmt.pr "target destroyed; ready queue still valid: %b@." (Ready_queue.verify k)
