(* Smaller surfaces: assembler environments and label-immediates,
   template parameter checking, the monitor/inspector, scheduler
   history, and host queue edges. *)

open Quamachine
open Synthesis
module I = Insn

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let machine () = Machine.create ~mem_words:(1 lsl 16) Cost.sun3_emulation

(* ------------------------------------------------------------------ *)
(* Assembler *)

let test_asm_external_env () =
  let m = machine () in
  let sub, _ = Asm.assemble m [ I.Move (I.Imm 5, I.Reg I.r0); I.Rts ] in
  let entry, _ =
    Asm.assemble ~env:[ ("callee", sub) ] m
      [ I.Jsr (I.To_label "callee"); I.Move (I.Reg I.r0, I.Abs 0x100); I.Halt ]
  in
  Machine.set_pc m entry;
  Machine.set_reg m I.sp 0x800;
  ignore (Machine.run ~max_insns:100 m);
  check_int "external symbol resolved" 5 (Machine.peek m 0x100)

let test_asm_label_immediate () =
  let m = machine () in
  let entry, syms =
    Asm.assemble m
      [
        I.Move (I.Lbl "target", I.Abs 0x100); (* code address as data *)
        I.Jmp (I.To_mem (I.Abs 0x100)); (* indirect through memory *)
        I.Halt;
        I.Label "target";
        I.Move (I.Imm 77, I.Abs 0x101);
        I.Halt;
      ]
  in
  Machine.set_pc m entry;
  ignore (Machine.run ~max_insns:100 m);
  check_int "label immediate stored" (Asm.symbol syms "target") (Machine.peek m 0x100);
  check_int "indirect jump through data" 77 (Machine.peek m 0x101)

let test_asm_local_shadows_env () =
  let m = machine () in
  let _, syms =
    Asm.assemble ~env:[ ("x", 999) ] m [ I.Label "x"; I.B (I.Always, I.To_label "x") ]
  in
  check_bool "local label wins over env" true (Asm.symbol syms "x" <> 999)

(* ------------------------------------------------------------------ *)
(* Templates *)

let test_template_folds_constants () =
  let template ~base =
    Template.make ~name:"t" (fun () -> [ I.Move (I.Abs base, I.Reg I.r0); I.Rts ])
  in
  match Template.instantiate (template ~base:0x123) with
  | [ I.Move (I.Abs 0x123, I.Reg 0); I.Rts ] -> ()
  | _ -> Alcotest.fail "constant not folded"

(* ------------------------------------------------------------------ *)
(* Monitor and Inspect *)

(* The static walk charges what the machine charges: run a straight
   line with memory references and compare. *)
let test_monitor_static_cycles () =
  let m = machine () in
  let entry, _ =
    Asm.assemble m
      [
        I.Move (I.Imm 7, I.Abs 0x500);
        I.Alu_mem (I.Add, I.Imm 1, I.Abs 0x500);
        I.Push (I.Abs 0x500);
        I.Pop I.r1;
        I.Nop;
        I.Halt;
        I.Nop; (* past the terminator: not walked *)
      ]
  in
  Machine.set_reg m I.sp 0x8000;
  Machine.set_pc m entry;
  let before = Machine.cycles m in
  ignore (Machine.run ~max_insns:100 m);
  let measured = Machine.cycles m - before in
  check_int "static cycles match the machine" measured
    (Monitor.static_cycles m ~from:entry);
  (* base 2 + 2 + 4 + 4 + 2 + 0 = 14; 6 references at 4 cycles each
     (3 + one SUN-3 wait state) *)
  check_int "static cycles" 38 measured

let test_inspect_grep_and_disasm () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  check_bool "grep finds the idle loop" true (Inspect.grep k "idle" <> []);
  check_bool "grep is case-insensitive" true (Inspect.grep k "IDLE" <> []);
  check_bool "grep misses junk" true (Inspect.grep k "zzzz-nothing" = []);
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Inspect.disassemble_routine k ppf "idle_loop";
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  check_bool "disassembly mentions stop" true
    (let re = "stop" in
     let rec find i =
       i + String.length re <= String.length out
       && (String.sub out i (String.length re) = re || find (i + 1))
     in
     find 0)

let test_registry_report_groups () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let report = Kernel.registry_report k in
  check_bool "ctx group present" true
    (List.exists (fun (p, _, _) -> p = "ctx") report);
  (* every group's instruction count is positive *)
  check_bool "counts positive" true (List.for_all (fun (_, c, n) -> c > 0 && n > 0) report)

(* ------------------------------------------------------------------ *)
(* Scheduler history *)

let test_scheduler_history () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let sched = Scheduler.install k ~epoch_us:500 () in
  let spin, _ =
    Ksynth.install k ~name:"m/spin" [ I.Label "s"; I.B (I.Always, I.To_label "s") ]
  in
  let _t = Thread.create k ~quantum_us:100 ~entry:spin () in
  Boot.enter_scheduler k;
  ignore (Machine.run ~max_insns:100_000 m);
  let metrics = Scheduler.metrics sched in
  let h = Metrics.epoch_history metrics in
  check_bool "history recorded" true (List.length h >= 2);
  (* newest first: timestamps strictly decreasing down the list *)
  let rec decreasing = function
    | r1 :: (r2 :: _ as rest) ->
      r1.Metrics.ep_time_us > r2.Metrics.ep_time_us && decreasing rest
    | _ -> true
  in
  check_bool "history ordered newest-first" true (decreasing h);
  (* every record carries the spinner's tid with a sane quantum *)
  check_bool "entries well-formed" true
    (List.for_all
       (fun r ->
         r.Metrics.ep_entries <> []
         && List.for_all
              (fun e -> e.Metrics.ep_rate >= 0 && e.Metrics.ep_quantum > 0)
              r.Metrics.ep_entries)
       h);
  check_int "epoch counter agrees" (List.length h) (Metrics.epoch_count metrics);
  check_int "rebalance counter agrees" (List.length h)
    (Metrics.read metrics "sched.rebalances")

(* ------------------------------------------------------------------ *)
(* Host queues: edges *)

let test_queue_capacity_edges () =
  Alcotest.check_raises "spsc too small"
    (Invalid_argument "Spsc.create: size must be >= 2") (fun () ->
      ignore (Oq.Spsc.create 1));
  let q = Oq.Mpsc.create 4 in
  Alcotest.check_raises "burst larger than capacity"
    (Invalid_argument "Mpsc.try_put_many") (fun () ->
      ignore (Oq.Mpsc.try_put_many q (fun i -> i) 4))

(* ------------------------------------------------------------------ *)
(* Cost model coherence *)

let test_cost_model_scaling () =
  let cy = Cost.cycles_of_us Cost.sun3_emulation 10.0 in
  check_int "16 MHz: 10us = 160 cycles" 160 cy;
  let us = Cost.us_of_cycles Cost.native 500 in
  check_bool "50 MHz: 500 cycles = 10us" true (abs_float (us -. 10.0) < 1e-9);
  check_bool "wait states raise ref cost" true
    (Cost.mem_ref_cycles Cost.sun3_emulation > Cost.mem_ref_cycles Cost.native)

let () =
  Alcotest.run "misc"
    [
      ( "asm",
        [
          Alcotest.test_case "external symbol env" `Quick test_asm_external_env;
          Alcotest.test_case "label immediates (Lbl)" `Quick test_asm_label_immediate;
          Alcotest.test_case "local labels shadow env" `Quick test_asm_local_shadows_env;
        ] );
      ( "template",
        [
          Alcotest.test_case "constants folded" `Quick test_template_folds_constants;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "static cycles" `Quick test_monitor_static_cycles;
          Alcotest.test_case "inspect grep + disassemble" `Quick test_inspect_grep_and_disasm;
          Alcotest.test_case "registry report" `Quick test_registry_report_groups;
        ] );
      ( "scheduler",
        [ Alcotest.test_case "epoch history" `Quick test_scheduler_history ] );
      ( "blocks",
        [
          Alcotest.test_case "queue capacity edges" `Quick test_queue_capacity_edges;
        ] );
      ( "cost",
        [ Alcotest.test_case "clock/wait-state scaling" `Quick test_cost_model_scaling ] );
    ]
