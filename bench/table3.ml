(* Table 3: thread operations in microseconds.  Most rows are host
   services whose cycle charges and code-synthesis costs accumulate on
   the simulated clock; signal is measured end-to-end inside a running
   program with timestamps. *)

open Quamachine
open Synthesis
module I = Insn
module U = Unix_emulator.Unix_abi

let us k d = Machine.stats_us k.Kernel.machine d

let measure_host_ops () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let spin, _ =
    Ksynth.install k ~name:"bench/spin"
      [ I.Label "s"; I.B (I.Always, I.To_label "s") ]
  in
  let s0 = Machine.snapshot m in
  let t = Thread.create k ~entry:spin () in
  let create_us = us k (Machine.delta m s0) in
  let s0 = Machine.snapshot m in
  Thread.stop k t;
  let stop_us = us k (Machine.delta m s0) in
  let s0 = Machine.snapshot m in
  Thread.start k t;
  let start_us = us k (Machine.delta m s0) in
  let s0 = Machine.snapshot m in
  Thread.destroy k t;
  let destroy_us = us k (Machine.delta m s0) in
  (create_us, destroy_us, stop_us, start_us)

(* step: start the machine with one busy thread, then step a stopped
   target and measure until it is stopped again (switch in, one
   instruction, trace trap, switch out). *)
let measure_step () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let busy, _ =
    Ksynth.install k ~name:"bench/busy"
      [ I.Label "s"; I.B (I.Always, I.To_label "s") ]
  in
  let _runner = Thread.create k ~quantum_us:500 ~entry:busy () in
  let target = Thread.create k ~entry:busy () in
  Thread.stop k target;
  (* start the machine on the runner *)
  Boot.enter_scheduler k;
  ignore (Repro_harness.Harness.run_until_user m ~max_insns:10_000);
  let s0 = Machine.snapshot m in
  Thread.step k target;
  let ok =
    Repro_harness.Harness.run_until m ~max_insns:100_000 (fun () ->
        Thread.fully_stopped k target)
  in
  if not ok then failwith "step: target never stopped";
  us k (Machine.delta m s0)

(* signal: measured around the trap-6 system call, thread to thread. *)
let measure_signal () =
  let se = Repro_harness.Harness.synthesis_setup () in
  let k = se.Repro_harness.Harness.s_boot.Boot.kernel in
  let stamps = se.Repro_harness.Harness.s_stamps in
  let mark = Repro_harness.Harness.Stamps.mark stamps in
  (* the target: spins; handler is a no-op *)
  let handler, _ =
    Ksynth.install k ~name:"bench/sig_handler" [ I.Rts ]
  in
  let spin, _ =
    Ksynth.install k ~name:"bench/spin2"
      [ I.Label "s"; I.B (I.Always, I.To_label "s") ]
  in
  let target = Thread.create k ~entry:spin () in
  Thread.set_signal_handler k target handler;
  let program =
    [
      mark;
      I.Move (I.Imm target.Kernel.tid, I.Reg I.r1);
      I.Trap 6; (* signal *)
      mark;
      I.Move (I.Imm U.sys_exit, I.Reg I.r0);
      I.Trap U.trap;
    ]
  in
  (* the spinning target never exits; bound the run and ignore the
     limit result *)
  let entry, _ = Asm.assemble k.Kernel.machine program in
  let _t = Thread.create k ~entry () in
  (match Boot.go ~max_insns:2_000_000 se.Repro_harness.Harness.s_boot with
  | Machine.Halted | Machine.Insn_limit -> ());
  match Repro_harness.Harness.Stamps.spans stamps with
  | signal_us :: _ -> signal_us
  | [] -> failwith "signal: no spans"

let run () =
  Repro_harness.Harness.header "Table 3: thread operations (microseconds)";
  let create_us, destroy_us, stop_us, start_us = measure_host_ops () in
  let step_us = measure_step () in
  let signal_us = measure_signal () in
  List.iter
    (fun (slug, v) -> Bench_json.record ~table:"table3" ~row:slug ~metric:"us" v)
    [
      ("create", create_us); ("destroy", destroy_us); ("stop", stop_us);
      ("start", start_us); ("step", step_us); ("signal", signal_us);
    ];
  Fmt.pr "%-24s %10s %10s@." "operation" "measured" "paper";
  let row name v paper = Fmt.pr "%-24s %10.1f %10s@." name v paper in
  row "create" create_us "142";
  row "destroy" destroy_us "11";
  row "stop" stop_us "8";
  row "start" start_us "8";
  row "step" step_us "37";
  row "signal (thread-thread)" signal_us "8"
