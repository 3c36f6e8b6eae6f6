(* Machine substrate tests: instruction semantics, flags, assembler,
   interrupts, traps, protection, devices, cost accounting. *)

open Quamachine
module I = Insn

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let machine () = Machine.create ~mem_words:(1 lsl 16) Cost.sun3_emulation

(* Run a code fragment until Halt; returns the machine. *)
let run_fragment ?(setup = fun _ -> ()) insns =
  let m = machine () in
  let entry, _ = Asm.assemble m insns in
  Machine.set_pc m entry;
  Machine.set_reg m I.sp 0x8000;
  setup m;
  (match Machine.run ~max_insns:1_000_000 m with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "fragment did not halt");
  m

(* ------------------------------------------------------------------ *)

let test_move_alu () =
  let m =
    run_fragment
      [
        I.Move (I.Imm 7, I.Reg I.r0);
        I.Move (I.Imm 5, I.Reg I.r1);
        I.Alu (I.Add, I.Reg I.r0, I.r1); (* r1 = 12 *)
        I.Alu (I.Mul, I.Imm 3, I.r1); (* r1 = 36 *)
        I.Alu (I.Sub, I.Imm 6, I.r1); (* r1 = 30 *)
        I.Alu (I.Divu, I.Imm 4, I.r1); (* r1 = 7 *)
        I.Move (I.Reg I.r1, I.Abs 0x100);
        I.Halt;
      ]
  in
  check_int "alu chain" 7 (Machine.peek m 0x100)

let test_addressing_modes () =
  let m =
    run_fragment
      [
        I.Move (I.Imm 0x200, I.Reg I.r2);
        I.Move (I.Imm 11, I.Ind I.r2); (* [0x200] = 11 *)
        I.Move (I.Imm 22, I.Idx (I.r2, 1)); (* [0x201] = 22 *)
        I.Move (I.Imm 33, I.Post_inc I.r2); (* overwrites [0x200], r2 = 0x201 *)
        I.Move (I.Imm 44, I.Post_inc I.r2); (* [0x201] = 44, r2 = 0x202 *)
        I.Move (I.Imm 55, I.Pre_dec I.r2); (* r2 = 0x201, [0x201] = 55 *)
        I.Move (I.Reg I.r2, I.Abs 0x300);
        I.Halt;
      ]
  in
  check_int "ind write" 33 (Machine.peek m 0x200);
  check_int "predec write" 55 (Machine.peek m 0x201);
  check_int "postinc/predec pointer" 0x201 (Machine.peek m 0x300)

let test_branches_signed_unsigned () =
  (* -1 compared with 1: signed lt, unsigned hi *)
  let m =
    run_fragment
      [
        I.Move (I.Imm (-1), I.Reg I.r0);
        I.Cmp (I.Imm 1, I.Reg I.r0); (* flags from -1 - 1 *)
        I.B (I.Lt, I.To_label "signed_lt");
        I.Move (I.Imm 0, I.Abs 0x100);
        I.B (I.Always, I.To_label "next");
        I.Label "signed_lt";
        I.Move (I.Imm 1, I.Abs 0x100);
        I.Label "next";
        I.Cmp (I.Imm 1, I.Reg I.r0);
        I.B (I.Hi, I.To_label "unsigned_hi");
        I.Move (I.Imm 0, I.Abs 0x101);
        I.Halt;
        I.Label "unsigned_hi";
        I.Move (I.Imm 1, I.Abs 0x101);
        I.Halt;
      ]
  in
  check_int "signed lt taken" 1 (Machine.peek m 0x100);
  check_int "unsigned hi taken" 1 (Machine.peek m 0x101)

let test_dbra_loop () =
  let m =
    run_fragment
      [
        I.Move (I.Imm 0, I.Reg I.r0);
        I.Move (I.Imm 9, I.Reg I.r1); (* 10 iterations *)
        I.Label "loop";
        I.Alu (I.Add, I.Imm 1, I.r0);
        I.Dbra (I.r1, I.To_label "loop");
        I.Move (I.Reg I.r0, I.Abs 0x100);
        I.Halt;
      ]
  in
  check_int "dbra count" 10 (Machine.peek m 0x100)

let test_jsr_rts () =
  let m =
    run_fragment
      [
        I.Jsr (I.To_label "sub");
        I.Move (I.Reg I.r0, I.Abs 0x100);
        I.Halt;
        I.Label "sub";
        I.Move (I.Imm 99, I.Reg I.r0);
        I.Rts;
      ]
  in
  check_int "jsr/rts" 99 (Machine.peek m 0x100)

let test_cas_success_failure () =
  let m =
    run_fragment
      [
        I.Move (I.Imm 5, I.Abs 0x100);
        I.Move (I.Imm 5, I.Reg I.r0); (* compare value (matches) *)
        I.Move (I.Imm 9, I.Reg I.r1); (* update value *)
        I.Cas (I.r0, I.r1, I.Abs 0x100);
        I.B (I.Eq, I.To_label "ok");
        I.Move (I.Imm 0, I.Abs 0x101);
        I.B (I.Always, I.To_label "second");
        I.Label "ok";
        I.Move (I.Imm 1, I.Abs 0x101);
        I.Label "second";
        (* now CAS with stale compare: fails and loads r0 with actual *)
        I.Move (I.Imm 5, I.Reg I.r0);
        I.Cas (I.r0, I.r1, I.Abs 0x100);
        I.B (I.Ne, I.To_label "failed");
        I.Move (I.Imm 1, I.Abs 0x102);
        I.Halt;
        I.Label "failed";
        I.Move (I.Reg I.r0, I.Abs 0x102); (* r0 = 9 (refetched) *)
        I.Halt;
      ]
  in
  check_int "cas stored" 9 (Machine.peek m 0x100);
  check_int "first cas succeeded" 1 (Machine.peek m 0x101);
  check_int "failed cas refetches" 9 (Machine.peek m 0x102)

let test_movem_round_trip () =
  let m =
    run_fragment
      [
        I.Move (I.Imm 0x4000, I.Reg I.sp);
        I.Move (I.Imm 1, I.Reg I.r0);
        I.Move (I.Imm 2, I.Reg I.r1);
        I.Move (I.Imm 3, I.Reg I.r2);
        I.Movem_save ([ 0; 1; 2 ], I.sp);
        I.Move (I.Imm 0, I.Reg I.r0);
        I.Move (I.Imm 0, I.Reg I.r1);
        I.Move (I.Imm 0, I.Reg I.r2);
        I.Movem_load (I.sp, [ 0; 1; 2 ]);
        I.Move (I.Reg I.r0, I.Abs 0x100);
        I.Move (I.Reg I.r1, I.Abs 0x101);
        I.Move (I.Reg I.r2, I.Abs 0x102);
        I.Move (I.Reg I.sp, I.Abs 0x103);
        I.Halt;
      ]
  in
  check_int "r0 restored" 1 (Machine.peek m 0x100);
  check_int "r1 restored" 2 (Machine.peek m 0x101);
  check_int "r2 restored" 3 (Machine.peek m 0x102);
  check_int "sp balanced" 0x4000 (Machine.peek m 0x103)

let test_trap_rte () =
  (* vector table at 0, VBR = 0 *)
  let m = machine () in
  let handler, _ =
    Asm.assemble m [ I.Move (I.Imm 77, I.Reg I.r0); I.Rte ]
  in
  let main, _ =
    Asm.assemble m
      [ I.Move (I.Imm 0, I.Reg I.r0); I.Trap 3; I.Move (I.Reg I.r0, I.Abs 0x100); I.Halt ]
  in
  Machine.poke m (I.Vector.trap 3) handler;
  Machine.set_pc m main;
  Machine.set_reg m I.sp 0x8000;
  ignore (Machine.run ~max_insns:1000 m);
  check_int "trap handler ran" 77 (Machine.peek m 0x100)

let test_user_mode_protection () =
  (* User code touching memory outside its map takes a bus error. *)
  let m = machine () in
  let fault_flag = 0x900 in
  let handler, _ =
    Asm.assemble m
      [ I.Move (I.Imm 1, I.Abs fault_flag); I.Halt ]
  in
  let user, _ =
    Asm.assemble m [ I.Move (I.Imm 5, I.Abs 0x5000); I.Halt ] (* illegal *)
  in
  Machine.poke m I.Vector.bus_error handler;
  Machine.define_map m ~id:1 [ (0x4000, 16) ];
  Machine.set_map m 1;
  Machine.set_reg m I.sp 0x8000;
  Machine.set_pc m user;
  Machine.set_supervisor m false;
  ignore (Machine.run ~max_insns:1000 m);
  check_int "bus error handler ran" 1 (Machine.peek m fault_flag);
  check_int "fault address recorded" 0x5000 (Machine.last_fault_addr m)

let test_interrupt_priority () =
  (* A level-2 interrupt is deferred while IPL = 3, delivered after
     IPL drops. *)
  let m = machine () in
  let got = 0x900 in
  let handler, _ = Asm.assemble m [ I.Move (I.Imm 1, I.Abs got); I.Rte ] in
  Machine.poke m (I.Vector.autovector 2) handler;
  let main, _ =
    Asm.assemble m
      [
        I.Set_ipl 3;
        I.Nop;
        I.Nop;
        I.Move (I.Abs got, I.Abs 0x901); (* should still be 0 *)
        I.Set_ipl 0;
        I.Nop;
        I.Nop;
        I.Move (I.Abs got, I.Abs 0x902); (* should be 1 *)
        I.Halt;
      ]
  in
  Machine.set_pc m main;
  Machine.set_reg m I.sp 0x8000;
  (* post the interrupt before running *)
  Machine.post_interrupt m ~level:2 ~vector:(I.Vector.autovector 2);
  ignore (Machine.run ~max_insns:1000 m);
  check_int "deferred while masked" 0 (Machine.peek m 0x901);
  check_int "delivered after unmask" 1 (Machine.peek m 0x902)

let test_timer_device () =
  let m = machine () in
  let got = 0x900 in
  let _timer = Devices.Timer.install m in
  let handler, _ = Asm.assemble m [ I.Move (I.Imm 1, I.Abs got); I.Rte ] in
  Machine.poke m Mmio_map.timer_vector handler;
  let main, _ =
    Asm.assemble m
      [
        I.Set_ipl 0;
        I.Move (I.Imm 50, I.Abs Mmio_map.timer_alarm); (* 50 us *)
        I.Move (I.Imm 20000, I.Reg I.r0);
        I.Label "spin";
        I.Tst (I.Abs got);
        I.B (I.Ne, I.To_label "done");
        I.Dbra (I.r0, I.To_label "spin");
        I.Label "done";
        I.Halt;
      ]
  in
  Machine.set_supervisor m true;
  Machine.set_pc m main;
  Machine.set_reg m I.sp 0x8000;
  ignore (Machine.run ~max_insns:1_000_000 m);
  check_int "timer fired" 1 (Machine.peek m got);
  check_bool "fired near 50us" true (Machine.time_us m >= 50.0)

let test_disk_error_status () =
  let m = machine () in
  let disk = Devices.Disk.install m in
  ignore disk;
  let prog =
    [
      I.Move (I.Imm 2000, I.Abs Mmio_map.disk_block); (* out of range *)
      I.Move (I.Imm 0x200, I.Abs Mmio_map.disk_buffer);
      I.Move (I.Imm 1, I.Abs Mmio_map.disk_command);
      I.Move (I.Abs Mmio_map.disk_status, I.Abs 0x100);
      (* bad command code on a valid block *)
      I.Move (I.Imm 3, I.Abs Mmio_map.disk_block);
      I.Move (I.Imm 7, I.Abs Mmio_map.disk_command);
      I.Move (I.Abs Mmio_map.disk_status, I.Abs 0x101);
      I.Halt;
    ]
  in
  let entry, _ = Asm.assemble m prog in
  Machine.set_pc m entry;
  Machine.set_reg m I.sp 0x8000;
  ignore (Machine.run ~max_insns:1000 m);
  check_int "invalid block = error" 3 (Machine.peek m 0x100);
  check_int "invalid command = error" 3 (Machine.peek m 0x101)

let test_timer_cancel_and_remaining () =
  let m = machine () in
  let _t = Devices.Timer.install m in
  let prog =
    [
      I.Move (I.Imm 500, I.Abs Mmio_map.timer_alarm);
      I.Move (I.Abs Mmio_map.timer_alarm, I.Abs 0x100); (* remaining ~500 *)
      I.Move (I.Imm 0, I.Abs Mmio_map.timer_alarm); (* cancel *)
      I.Move (I.Abs Mmio_map.timer_alarm, I.Abs 0x101); (* 0 when idle *)
      I.Halt;
    ]
  in
  let entry, _ = Asm.assemble m prog in
  Machine.set_pc m entry;
  Machine.set_reg m I.sp 0x8000;
  ignore (Machine.run ~max_insns:1000 m);
  check_bool "remaining close to the interval" true
    (Machine.peek m 0x100 >= 495 && Machine.peek m 0x100 <= 500);
  check_int "cancelled reads zero" 0 (Machine.peek m 0x101)

let test_tty_output_collects () =
  let m = machine () in
  let tty = Devices.Tty.install m in
  let prog =
    [
      I.Move (I.Imm (Char.code 'h'), I.Abs Mmio_map.tty_data_out);
      I.Move (I.Imm (Char.code 'i'), I.Abs Mmio_map.tty_data_out);
      I.Halt;
    ]
  in
  let entry, _ = Asm.assemble m prog in
  Machine.set_pc m entry;
  Machine.set_reg m I.sp 0x8000;
  ignore (Machine.run ~max_insns:100 m);
  Alcotest.(check string) "collected" "hi" (Devices.Tty.output tty);
  Devices.Tty.clear_output tty;
  Alcotest.(check string) "cleared" "" (Devices.Tty.output tty)

let test_trace_ring_wraps () =
  let m = machine () in
  Machine.trace_enable m true;
  let prog =
    [ I.Move (I.Imm 9999, I.Reg I.r0); I.Label "l"; I.Dbra (I.r0, I.To_label "l"); I.Halt ]
  in
  let entry, _ = Asm.assemble m prog in
  Machine.set_pc m entry;
  ignore (Machine.run ~max_insns:100_000 m);
  let w = Machine.trace_window m 6 in
  check_int "window length" 6 (List.length w);
  (* the tail of the trace is the loop body then Halt *)
  check_bool "trace ends at the halt" true
    (match List.rev w with halt_pc :: _ -> halt_pc = entry + 2 | [] -> false)

let test_operand_refs () =
  check_int "imm" 0 (Cost.operand_refs (I.Imm 5));
  check_int "reg" 0 (Cost.operand_refs (I.Reg 3));
  check_int "ind" 1 (Cost.operand_refs (I.Ind 3));
  check_int "abs" 1 (Cost.operand_refs (I.Abs 9));
  check_int "postinc" 1 (Cost.operand_refs (I.Post_inc 3))

(* [Cost.refs] agrees with what the machine charges: one step of each
   instruction, set up to take its longest path, makes exactly the
   references the static count says, and (a trap's fixed entry charge
   aside) costs its base cycles plus those references. *)
let test_static_refs_match () =
  let case name ?(setup = fun _ ~halt:_ -> ()) insn =
    let m = machine () in
    let entry, _ = Asm.assemble m [ insn; I.Halt ] in
    let halt = entry + 1 in
    Machine.set_pc m entry;
    Machine.set_reg m I.sp 0x8000;
    Machine.poke m 0x102 halt;
    setup m ~halt;
    let s0 = Machine.snapshot m in
    Machine.step m;
    let d = Machine.delta m s0 in
    let refs = Cost.refs insn in
    check_int (name ^ ": references") refs d.Machine.s_refs;
    if (match insn with I.Trap _ -> false | _ -> true) then
      check_int (name ^ ": cycles")
        (Cost.base insn + (refs * Cost.mem_ref_cycles Cost.sun3_emulation))
        d.Machine.s_cycles
  in
  case "move mem to mem" (I.Move (I.Abs 0x100, I.Abs 0x101));
  case "alu on memory" (I.Alu_mem (I.Add, I.Imm 1, I.Abs 0x100));
  case "cmp two memory operands"
    ~setup:(fun m ~halt:_ -> Machine.set_reg m I.r1 0x101)
    (I.Cmp (I.Abs 0x100, I.Ind I.r1));
  case "push from memory" (I.Push (I.Abs 0x100));
  case "pop" (I.Pop I.r2);
  case "jsr through memory" (I.Jsr (I.To_mem (I.Abs 0x102)));
  case "rts" ~setup:(fun m ~halt -> Machine.poke m 0x8000 halt) I.Rts;
  case "taken branch through memory" (I.B (I.Always, I.To_mem (I.Abs 0x102)));
  case "rte"
    ~setup:(fun m ~halt ->
      Machine.poke m 0x8000 (1 lsl 13);
      Machine.poke m 0x8001 halt)
    I.Rte;
  case "storing cas" (I.Cas (I.r0, I.r1, I.Abs 0x100));
  case "movem save" (I.Movem_save ([ I.r1; I.r2; I.r3 ], I.sp));
  case "trap" (I.Trap 3)

let test_cost_accounting () =
  let m = machine () in
  let entry, _ = Asm.assemble m [ I.Move (I.Imm 1, I.Abs 0x100); I.Halt ] in
  Machine.set_pc m entry;
  let s0 = Machine.snapshot m in
  ignore (Machine.run ~max_insns:10 m);
  let d = Machine.delta m s0 in
  check_int "two instructions" 2 d.Machine.s_insns;
  check_int "one memory ref" 1 d.Machine.s_refs;
  (* Move base 2 + ref (3+1 ws) = 6 cycles *)
  check_int "cycles" 6 d.Machine.s_cycles

let test_asm_duplicate_label () =
  let m = machine () in
  Alcotest.check_raises "duplicate label" (Asm.Duplicate_label "x") (fun () ->
      ignore (Asm.assemble m [ I.Label "x"; I.Nop; I.Label "x"; I.Halt ]))

let test_asm_undefined_label () =
  let m = machine () in
  Alcotest.check_raises "undefined label" (Asm.Undefined_label "nowhere") (fun () ->
      ignore (Asm.assemble m [ I.B (I.Always, I.To_label "nowhere"); I.Halt ]))

(* Nested interrupts: a level-6 interrupt preempts a running level-4
   handler; both complete, innermost first (§5.3's recursive
   interrupt scenario). *)
let test_nested_interrupts () =
  let m = machine () in
  let log = 0x900 in
  (* handlers append their id to a small log via a shared cursor *)
  let append id =
    [
      I.Push (I.Reg I.r4);
      I.Move (I.Abs (log + 7), I.Reg I.r4); (* cursor *)
      I.Alu (I.Add, I.Imm log, I.r4);
      I.Move (I.Imm id, I.Ind I.r4);
      I.Alu_mem (I.Add, I.Imm 1, I.Abs (log + 7));
      I.Pop I.r4;
    ]
  in
  let h6, _ = Asm.assemble m (append 6 @ [ I.Rte ]) in
  (* the level-4 handler posts the level-6 interrupt mid-flight, logs
     entry and exit around it *)
  let post6 = Machine.register_hcall m (fun m ->
      Machine.post_interrupt m ~level:6 ~vector:(I.Vector.autovector 6)) in
  let h4, _ =
    Asm.assemble m
      (append 4 @ [ I.Hcall post6; I.Nop; I.Nop ] @ append 44 @ [ I.Rte ])
  in
  Machine.poke m (I.Vector.autovector 4) h4;
  Machine.poke m (I.Vector.autovector 6) h6;
  let main, _ =
    Asm.assemble m
      [
        I.Set_ipl 0;
        I.Nop;
        I.Nop;
        I.Nop;
        I.Nop;
        I.Nop;
        I.Nop;
        I.Nop;
        I.Nop;
        I.Halt;
      ]
  in
  Machine.set_pc m main;
  Machine.set_reg m I.sp 0x8000;
  Machine.post_interrupt m ~level:4 ~vector:(I.Vector.autovector 4);
  ignore (Machine.run ~max_insns:10_000 m);
  check_int "level 4 entered" 4 (Machine.peek m log);
  check_int "level 6 preempted it" 6 (Machine.peek m (log + 1));
  check_int "level 4 resumed and finished" 44 (Machine.peek m (log + 2))

(* Stop_wait with no device event pending deadlocks loudly. *)
let test_stop_wait_deadlock () =
  let m = machine () in
  let entry, _ = Asm.assemble m [ I.Stop_wait; I.Halt ] in
  Machine.set_pc m entry;
  Machine.set_reg m I.sp 0x8000;
  Alcotest.check_raises "deadlock detected" Machine.Deadlock (fun () ->
      ignore (Machine.run ~max_insns:100 m))

(* Stop_wait with an interrupt pending but masked falls through: the
   sleep-side half of a lost-wakeup guard (mask, re-check, stop) must
   not sleep through a wakeup that landed between the check and the
   stop.  Once the mask drops, the interrupt is taken. *)
let test_stop_wait_masked_pending () =
  let m = machine () in
  let got = 0x900 in
  let handler, _ = Asm.assemble m [ I.Move (I.Imm 1, I.Abs got); I.Rte ] in
  Machine.poke m (I.Vector.autovector 2) handler;
  let main, _ =
    Asm.assemble m
      [
        I.Set_ipl 7;
        I.Stop_wait;
        I.Move (I.Abs got, I.Abs 0x901); (* masked: still 0 *)
        I.Set_ipl 0;
        I.Nop;
        I.Move (I.Abs got, I.Abs 0x902); (* taken: 1 *)
        I.Halt;
      ]
  in
  Machine.set_pc m main;
  Machine.set_reg m I.sp 0x8000;
  Machine.post_interrupt m ~level:2 ~vector:(I.Vector.autovector 2);
  (* no device is scheduled: a core that stopped would deadlock *)
  (match Machine.run ~max_insns:100 m with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  check_bool "the core never stopped" false (Machine.stopped m);
  check_int "still masked after the stop" 0 (Machine.peek m 0x901);
  check_int "taken once unmasked" 1 (Machine.peek m 0x902)

(* The interrupt-acknowledge register clears only the level written,
   and only on the core that writes it.  Level 2 is pending on both
   cores and level 3 on core 0: core 0 acknowledges level 2 while
   masked, then unmasks and takes only level 3; core 1 still takes its
   level 2. *)
let test_irq_ack_per_core () =
  let m = Machine.create ~mem_words:(1 lsl 16) ~cores:2 Cost.sun3_emulation in
  Devices.Cpu_control.install m;
  let took2 = 0x900 and took3 = 0x901 in
  let handler cell =
    fst (Asm.assemble m [ I.Alu_mem (I.Add, I.Imm 1, I.Abs cell); I.Rte ])
  in
  Machine.poke m (I.Vector.autovector 2) (handler took2);
  Machine.poke m (I.Vector.autovector 3) (handler took3);
  let core0, _ =
    Asm.assemble m
      ([ I.Move (I.Imm 2, I.Abs Mmio_map.irq_ack); I.Set_ipl 0 ]
      @ List.init 20 (fun _ -> I.Nop)
      @ [ I.Halt ])
  in
  let core1, _ =
    Asm.assemble m [ I.Set_ipl 0; I.Label "spin"; I.B (I.Always, I.To_label "spin") ]
  in
  List.iter
    (fun (c, entry, sp) ->
      Machine.set_active_core m c;
      Machine.set_supervisor m true;
      Machine.set_ipl m 7;
      Machine.set_reg m I.sp sp;
      Machine.set_pc m entry)
    [ (0, core0, 0x8000); (1, core1, 0x7000) ];
  Machine.start_core m 1;
  Machine.set_active_core m 0;
  Machine.post_interrupt m ~cpu:0 ~level:2 ~vector:(I.Vector.autovector 2);
  Machine.post_interrupt m ~cpu:1 ~level:2 ~vector:(I.Vector.autovector 2);
  Machine.post_interrupt m ~cpu:0 ~level:3 ~vector:(I.Vector.autovector 3);
  (match Machine.run ~max_insns:1_000 m with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  check_int "core 0 took only level 3" 1 (Machine.core_irqs m 0);
  check_int "core 1 took its level 2" 1 (Machine.core_irqs m 1);
  check_int "level 2 handled once, on core 1" 1 (Machine.peek m took2);
  check_int "level 3 handled once" 1 (Machine.peek m took3)

(* The cycle budget ends a run that executes no instructions: a
   stopped core and a device that ticks forever. *)
let test_cycle_budget () =
  let m = machine () in
  let dev = ref None in
  let tick m' =
    match !dev with
    | Some d -> Machine.device_schedule m' d (Machine.cycles m' + 50)
    | None -> ()
  in
  dev := Some (Machine.add_device m ~name:"ticker" ~due:50 ~tick);
  let entry, _ = Asm.assemble m [ I.Set_ipl 7; I.Stop_wait; I.Halt ] in
  Machine.set_pc m entry;
  Machine.set_reg m I.sp 0x8000;
  (match Machine.run ~max_cycles:10_000 m with
  | Machine.Insn_limit -> ()
  | Machine.Halted -> Alcotest.fail "a stopped core halted");
  check_int "two instructions ran" 2 (Machine.insns_executed m);
  check_bool "the clock reached the budget" true (Machine.cycles m >= 10_000);
  check_bool "within one tick of it" true (Machine.cycles m < 10_050)

(* Device deadlines are one-shot: a tick that does not re-arm its
   device fires exactly once, however long the machine runs on. *)
let test_device_fires_once () =
  let m = machine () in
  let ticks = ref 0 in
  ignore (Machine.add_device m ~name:"once" ~due:100 ~tick:(fun _ -> incr ticks));
  let entry, _ =
    Asm.assemble m
      [
        I.Move (I.Imm 5000, I.Reg I.r0);
        I.Label "spin";
        I.Dbra (I.r0, I.To_label "spin");
        I.Halt;
      ]
  in
  Machine.set_pc m entry;
  Machine.set_reg m I.sp 0x8000;
  ignore (Machine.run ~max_insns:100_000 m);
  check_bool "ran well past the deadline" true (Machine.cycles m > 10_000);
  check_int "fired exactly once" 1 !ticks

(* A spent deadline is not a pending event: with the core stopped and
   the only device fired and not re-armed, the idle path fast-forwards
   to the deadline, runs the tick once, then reports [Deadlock] — it
   must not spin on the stale deadline forever. *)
let test_spent_deadline_deadlocks () =
  let m = machine () in
  let ticks = ref 0 in
  ignore (Machine.add_device m ~name:"once" ~due:5_000 ~tick:(fun _ -> incr ticks));
  let entry, _ = Asm.assemble m [ I.Stop_wait; I.Halt ] in
  Machine.set_pc m entry;
  Machine.set_reg m I.sp 0x8000;
  Alcotest.check_raises "deadlock detected" Machine.Deadlock (fun () ->
      for _ = 1 to 1_000 do
        Machine.step m
      done);
  check_int "the tick ran once" 1 !ticks;
  check_int "idle time fast-forwarded to the deadline" 5_000 (Machine.cycles m)

(* FP register save/restore through memory round-trips exactly. *)
let test_fmovem_round_trip () =
  let m = machine () in
  let entry, _ =
    Asm.assemble m
      [
        I.Move (I.Imm 0x4000, I.Reg I.sp);
        I.Fmove_imm (3.25, 0);
        I.Fmove_imm (-7.5, 1);
        I.Fmove_imm (1e300, 7);
        I.Fmovem_save I.sp;
        I.Fmove_imm (0.0, 0);
        I.Fmove_imm (0.0, 1);
        I.Fmove_imm (0.0, 7);
        I.Fmovem_load I.sp;
        I.Halt;
      ]
  in
  Machine.set_pc m entry;
  ignore (Machine.run ~max_insns:100 m);
  Alcotest.(check (float 0.0)) "f0" 3.25 (Machine.get_freg m 0);
  Alcotest.(check (float 0.0)) "f1" (-7.5) (Machine.get_freg m 1);
  Alcotest.(check (float 0.0)) "f7" 1e300 (Machine.get_freg m 7);
  check_int "sp balanced" 0x4000 (Machine.get_reg m I.sp)

(* Property: the machine's ALU agrees with the Word reference on
   random register operands, including carry/overflow flags. *)
let prop_alu_reference =
  let gen =
    QCheck.Gen.(
      triple
        (oneofl
           [ I.Add; I.Sub; I.Mul; I.And; I.Or; I.Xor; I.Lsl; I.Lsr; I.Asr; I.Divu ])
        (map Word.of_int (int_bound 0x3FFFFFFF))
        (map Word.of_int (frequency [ (3, int_bound 0xFFFF); (1, int_bound 0x3FFFFFFF); (1, return 0) ])))
  in
  QCheck.Test.make ~name:"alu agrees with the word reference" ~count:2000
    (QCheck.make gen) (fun (op, b, a) ->
      (* machine computes rd := rd op src with rd = b, src = a *)
      let m = machine () in
      Machine.set_reg m 0 b;
      Machine.set_reg m 1 a;
      let entry, _ =
        Asm.assemble m [ I.Alu (op, I.Reg 1, 0); I.Halt ]
      in
      Machine.set_pc m entry;
      Machine.set_reg m I.sp 0x8000;
      (* divide by zero faults; vector 5 is 0 -> code 0 -> Halt *)
      ignore (Machine.run ~max_insns:10 m);
      let got = Machine.get_reg m 0 in
      let expected =
        match op with
        | I.Add -> Word.add b a
        | I.Sub -> Word.sub b a
        | I.Mul -> Word.mul b a
        | I.And -> Word.logand b a
        | I.Or -> Word.logor b a
        | I.Xor -> Word.logxor b a
        | I.Lsl -> Word.shift_left b a
        | I.Lsr -> Word.shift_right_logical b a
        | I.Asr -> Word.shift_right_arith b a
        | I.Divu -> if a = 0 then b (* faulted before writing *) else Word.divu b a
        | _ -> assert false
      in
      got = expected)

(* Property: 32-bit add/sub round-trip and flag consistency. *)
let prop_word_roundtrip =
  QCheck.Test.make ~name:"word add/sub round-trip" ~count:2000
    QCheck.(pair (map Word.of_int int) (map Word.of_int int))
    (fun (a, b) ->
      let sum = Word.add a b in
      Word.sub sum b = a
      && Word.add (Word.neg a) a = 0
      &&
      let _, borrow, _ = Word.sub_full a b in
      borrow = (Word.compare_unsigned a b < 0))

let qcheck = List.map QCheck_alcotest.to_alcotest

let test_word_ops () =
  check_int "mask add wraps" 0 (Word.add Word.mask 1);
  check_int "signed -1" (-1) (Word.signed Word.mask);
  check_int "neg" Word.mask (Word.neg 1);
  check_bool "sub borrow" true (match Word.sub_full 0 1 with _, b, _ -> b);
  check_int "asr sign extends" Word.mask (Word.shift_right_arith Word.mask 4);
  check_int "lsr no sign" 0x0FFF_FFFF (Word.shift_right_logical Word.mask 4)

(* ------------------------------------------------------------------ *)
(* Host-side probes: a probe fires once per pass of its point, before
   the instruction it precedes and with that instruction's view of the
   registers; never on an interrupt taken in front of it; and costs
   nothing.  A range the synthesis cache recycles or kheal repairs
   keeps only the probes its current code binds. *)

let loop_fragment =
  [
    I.Move (I.Imm 3, I.Reg I.r2);
    I.Label "loop";
    I.Probe "p";
    I.Alu (I.Add, I.Imm 10, I.r1);
    I.Dbra (I.r2, I.To_label "loop");
    I.Halt;
  ]

let probe_run ~probed =
  let m = machine () in
  let entry, _ = Asm.assemble m loop_fragment in
  let seen = ref [] in
  (if probed then
     match Asm.probe_points loop_fragment with
     | [ ("p", off) ] ->
       Machine.add_probe m (entry + off) (fun m ->
           seen := Machine.get_reg m I.r1 :: !seen)
     | _ -> Alcotest.fail "one probe point expected");
  Machine.set_pc m entry;
  ignore (Machine.run ~max_insns:1000 m);
  (List.rev !seen, Machine.cycles m, Machine.insns_executed m)

let test_probe_fires_per_pass () =
  let seen, cy, insns = probe_run ~probed:true in
  Alcotest.(check (list int)) "once per pass, registers before the add"
    [ 0; 10; 20; 30 ] seen;
  let _, cy0, insns0 = probe_run ~probed:false in
  check_int "probing costs no cycle" cy0 cy;
  check_int "probing costs no instruction" insns0 insns

(* A probe directly before a label would share its address and fire
   on every branch to it: refused. *)
let test_probe_before_label_refused () =
  Alcotest.check_raises "probe before label"
    (Invalid_argument "Asm.probe_points: probe p before label l")
    (fun () ->
      ignore
        (Asm.probe_points
           [ I.Probe "p"; I.Label "l"; I.Nop; I.B (I.Always, I.To_label "l") ]));
  Alcotest.(check (list (pair string int))) "label first is fine" [ ("p", 0) ]
    (Asm.probe_points [ I.Label "l"; I.Probe "p"; I.Nop ])

let test_probe_skips_interrupt_entry () =
  let m = machine () in
  let handler, _ = Asm.assemble m [ I.Move (I.Imm 1, I.Abs 0x900); I.Rte ] in
  Machine.poke m (I.Vector.autovector 2) handler;
  let entry, _ =
    Asm.assemble m
      [ I.Set_ipl 0; I.Probe "p"; I.Move (I.Imm 7, I.Reg I.r3); I.Halt ]
  in
  let fired = ref 0 in
  Machine.add_probe m (entry + 1) (fun _ -> incr fired);
  Machine.set_pc m entry;
  Machine.set_reg m I.sp 0x8000;
  Machine.post_interrupt m ~level:2 ~vector:(I.Vector.autovector 2);
  Machine.step m;
  (* set_ipl ran; the pending interrupt is taken in front of the probe *)
  Machine.step m;
  check_int "interrupt taken" 1 (Machine.irqs_taken m);
  check_int "no fire on interrupt entry" 0 !fired;
  ignore (Machine.run ~max_insns:100 m);
  check_int "handler ran" 1 (Machine.peek m 0x900);
  check_int "fires once the instruction executes" 1 !fired

(* Addresses whose probes fired, noted by the probes themselves. *)
let fired = ref []
let note m = fired := Machine.get_pc m :: !fired

(* Call the routine at [entry] once; the addresses whose probes fired. *)
let run_routine m entry =
  fired := [];
  let call, _ = Asm.assemble m [ I.Jsr (I.To_addr entry); I.Halt ] in
  Machine.set_halted m false;
  Machine.set_supervisor m true;
  Machine.set_ipl m 7;
  Machine.set_reg m I.sp Synthesis.Layout.boot_stack_top;
  Machine.set_pc m call;
  (match Machine.run ~max_insns:100 m with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "routine did not return");
  List.sort compare !fired

let probe_template ~cell =
  Synthesis.Template.make ~name:"probe_t" (fun () ->
      [
        I.Move (I.Imm 1, I.Abs cell);
        I.Probe "mid";
        I.Move (I.Imm 2, I.Abs cell);
        I.Rts;
      ])

let plain_template ~cell =
  Synthesis.Template.make ~name:"plain_t" (fun () ->
      [ I.Move (I.Imm 3, I.Abs cell); I.Nop; I.Rts ])

let test_probes_follow_the_code () =
  let open Synthesis in
  let k = (Boot.boot ()).Boot.kernel in
  let m = k.Kernel.machine in
  Kernel.attach_tracing k (Ktrace.create m);
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 4 in
  let probes =
    [ ("mid", Kernel.Trace (fun m -> note m; Ktrace.Fault "probe")) ]
  in
  let h =
    Ksynth.instantiate k ~name:"probetest/a" ~probes ~template:(probe_template ~cell)
  in
  let e = Ksynth.entry h in
  Alcotest.(check (list int)) "bound point fires" [ e + 1 ] (run_routine m e);
  (* kheal: a stray probe and a corrupted slot; repair restores the
     code and exactly the region's own probe *)
  Machine.add_probe m (e + 2) note;
  Alcotest.(check (list int)) "stray probe fires" [ e + 1; e + 2 ] (run_routine m e);
  Machine.patch_code m e (I.Hcall (-1));
  check_int "one region repaired" 1 (Kernel.audit_code k);
  Alcotest.(check (list int)) "repair keeps only the bound probe" [ e + 1 ]
    (run_routine m e);
  (* a hit that binds nothing observes nothing *)
  let hit =
    Ksynth.instantiate k ~name:"probetest/a" ~template:(probe_template ~cell)
  in
  check_int "same page" e (Ksynth.entry hit);
  Alcotest.(check (list int)) "unbound hit fires nothing" [] (run_routine m e);
  let again =
    Ksynth.instantiate k ~name:"probetest/a" ~probes ~template:(probe_template ~cell)
  in
  Alcotest.(check (list int)) "bound hit rearms" [ e + 1 ] (run_routine m e);
  Ksynth.release k hit;
  Ksynth.release k again;
  (* ksynth: evict (the code stays in the store), then recycle the
     range for unprobed code *)
  Ksynth.release k h;
  Ksynth.set_cap k ~kind:"probetest" 0;
  Alcotest.(check (list int)) "eviction clears the range" [] (run_routine m e);
  let h2 =
    Ksynth.instantiate k ~name:"probetest/b" ~template:(plain_template ~cell)
  in
  check_int "the range is recycled" e (Ksynth.entry h2);
  Alcotest.(check (list int)) "recycled code carries no probe" [] (run_routine m e);
  Ksynth.release k h2;
  Ksynth.set_cap k ~kind:"probetest" 0;
  (* re-instantiating the evicted template resynthesizes it, and its
     binding comes back with the code *)
  let resynth = (Ksynth.stats k).Ksynth.st_resynth in
  let h3 =
    Ksynth.instantiate k ~name:"probetest/a" ~probes ~template:(probe_template ~cell)
  in
  check_int "resynthesis counted" (resynth + 1) (Ksynth.stats k).Ksynth.st_resynth;
  let e3 = Ksynth.entry h3 in
  Alcotest.(check (list int)) "resynthesized page re-armed" [ e3 + 1 ]
    (run_routine m e3)

(* ------------------------------------------------------------------ *)
(* The slot lifecycle: [set_code] compiles each slot as it is written,
   so every way of writing a slot must take effect, and nothing about
   a slot may be decided before it runs. *)

(* A two-slot loop: [entry] adds to r0, [entry + 1] branches back. *)
let adder_loop () =
  let m = machine () in
  let entry, _ =
    Asm.assemble m
      [ I.Label "l"; I.Alu (I.Add, I.Imm 1, I.r0); I.B (I.Always, I.To_label "l") ]
  in
  Machine.set_pc m entry;
  (m, entry)

let test_patch_mid_run () =
  let m, entry = adder_loop () in
  ignore (Machine.run ~max_insns:10 m);
  check_int "five passes" 5 (Machine.get_reg m I.r0);
  Machine.patch_code m entry (I.Alu (I.Add, I.Imm 100, I.r0));
  ignore (Machine.run ~max_insns:2 m);
  check_int "the patched slot runs the new instruction" 105 (Machine.get_reg m I.r0);
  Machine.patch_code m entry (I.Move (I.Imm 7, I.Reg I.r0));
  ignore (Machine.run ~max_insns:2 m);
  check_int "and again" 7 (Machine.get_reg m I.r0)

let test_probe_survives_patch () =
  List.iter
    (fun probe_first ->
      let m, entry = adder_loop () in
      let fired = ref 0 in
      let probe () = Machine.add_probe m entry (fun _ -> incr fired) in
      if probe_first then probe ();
      Machine.patch_code m entry (I.Alu (I.Add, I.Imm 10, I.r0));
      if not probe_first then probe ();
      ignore (Machine.run ~max_insns:2 m);
      let name = if probe_first then "probe, then patch" else "patch, then probe" in
      check_int (name ^ ": fires once") 1 !fired;
      check_int (name ^ ": new instruction") 10 (Machine.get_reg m I.r0))
    [ true; false ]

let test_label_raises_when_run () =
  let m, entry = adder_loop () in
  Machine.patch_code m (entry + 1) (I.Label "l");
  Machine.step m;
  check_int "the slot before it runs" 1 (Machine.get_reg m I.r0);
  Alcotest.check_raises "the label raises when it executes"
    (Invalid_argument "exec: pseudo-instruction in code store") (fun () ->
      Machine.step m)

let test_hcall_registered_later () =
  let m = machine () in
  let entry = Machine.append_code m [ I.Hcall 0; I.Halt ] in
  let ran = ref 0 in
  check_int "registered after the slot was written" 0
    (Machine.register_hcall m (fun _ -> incr ran));
  Machine.set_pc m entry;
  ignore (Machine.run ~max_insns:10 m);
  check_int "the service ran" 1 !ran

let test_post_inc_bus_error () =
  let m = machine () in
  let handler, _ = Asm.assemble m [ I.Halt ] in
  Machine.poke m I.Vector.bus_error handler;
  let entry, _ = Asm.assemble m [ I.Move (I.Post_inc I.r1, I.Reg I.r0); I.Halt ] in
  let bad = Machine.mem_words m in
  Machine.set_reg m I.r1 bad;
  Machine.set_reg m I.sp 0x8000;
  Machine.set_pc m entry;
  Machine.step m;
  check_int "the register moved before the access faulted" (bad + 1)
    (Machine.get_reg m I.r1);
  check_int "fault address" bad (Machine.last_fault_addr m);
  check_int "the frame's PC is the faulting instruction" entry (Machine.peek m 0x7FFF);
  check_int "in the handler" handler (Machine.get_pc m);
  (* the refused access charges nothing; the frame's two pushes and
     the vector fetch do *)
  check_int "references" 3 (Machine.mem_refs m)

let () =
  Alcotest.run "machine"
    [
      ( "insn",
        [
          Alcotest.test_case "move/alu" `Quick test_move_alu;
          Alcotest.test_case "addressing modes" `Quick test_addressing_modes;
          Alcotest.test_case "signed/unsigned branches" `Quick test_branches_signed_unsigned;
          Alcotest.test_case "dbra loop" `Quick test_dbra_loop;
          Alcotest.test_case "jsr/rts" `Quick test_jsr_rts;
          Alcotest.test_case "cas semantics" `Quick test_cas_success_failure;
          Alcotest.test_case "movem round trip" `Quick test_movem_round_trip;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "trap and rte" `Quick test_trap_rte;
          Alcotest.test_case "user mode protection" `Quick test_user_mode_protection;
          Alcotest.test_case "interrupt priority" `Quick test_interrupt_priority;
        ] );
      ( "devices",
        [
          Alcotest.test_case "one-shot timer" `Quick test_timer_device;
          Alcotest.test_case "unarmed tick fires once" `Quick
            test_device_fires_once;
          Alcotest.test_case "disk error status" `Quick test_disk_error_status;
          Alcotest.test_case "timer cancel/remaining" `Quick
            test_timer_cancel_and_remaining;
          Alcotest.test_case "tty output buffer" `Quick test_tty_output_collects;
          Alcotest.test_case "trace ring wraps" `Quick test_trace_ring_wraps;
          Alcotest.test_case "operand ref counts" `Quick test_operand_refs;
          Alcotest.test_case "static refs match the machine" `Quick test_static_refs_match;
        ] );
      ( "cost",
        [ Alcotest.test_case "cycle accounting" `Quick test_cost_accounting ] );
      ( "asm",
        [
          Alcotest.test_case "duplicate label" `Quick test_asm_duplicate_label;
          Alcotest.test_case "undefined label" `Quick test_asm_undefined_label;
        ] );
      ( "nesting",
        [
          Alcotest.test_case "nested interrupt levels" `Quick test_nested_interrupts;
          Alcotest.test_case "stop_wait deadlock detection" `Quick
            test_stop_wait_deadlock;
          Alcotest.test_case "stop_wait falls through a masked pending irq" `Quick
            test_stop_wait_masked_pending;
          Alcotest.test_case "spent deadline deadlocks" `Quick
            test_spent_deadline_deadlocks;
          Alcotest.test_case "irq ack clears one level on one core" `Quick
            test_irq_ack_per_core;
          Alcotest.test_case "cycle budget ends a sleeping run" `Quick
            test_cycle_budget;
          Alcotest.test_case "fmovem round trip" `Quick test_fmovem_round_trip;
        ] );
      ( "probes",
        [
          Alcotest.test_case "fire once per pass" `Quick test_probe_fires_per_pass;
          Alcotest.test_case "no probe before a label" `Quick
            test_probe_before_label_refused;
          Alcotest.test_case "skip interrupt entry" `Quick
            test_probe_skips_interrupt_entry;
          Alcotest.test_case "follow recycled and repaired code" `Quick
            test_probes_follow_the_code;
        ] );
      ( "slots",
        [
          Alcotest.test_case "patched mid-run" `Quick test_patch_mid_run;
          Alcotest.test_case "a probe survives a patch" `Quick test_probe_survives_patch;
          Alcotest.test_case "a label raises only when run" `Quick
            test_label_raises_when_run;
          Alcotest.test_case "hcall registered after its slot" `Quick
            test_hcall_registered_later;
          Alcotest.test_case "post-inc source bus error" `Quick test_post_inc_bus_error;
        ] );
      ("word", [ Alcotest.test_case "word ops" `Quick test_word_ops ]);
      ("properties", qcheck [ prop_alu_reference; prop_word_roundtrip ]);
    ]
