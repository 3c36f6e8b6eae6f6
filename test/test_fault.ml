(* kfault tests: forced-CAS semantics and the Cas atomicity contract,
   interrupt-boundary behaviour (nested same-level delivery, waking
   Stop_wait), the double-fault path, bounded fault logging, a full
   queue's failing put, the host-queue fault seam, plan determinism, the
   interleaving explorer, and the recovery quajects (watchdog, disk
   retry). *)

open Quamachine
open Synthesis
module I = Insn
module E = Repro_harness.Explorer

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let machine () = Machine.create ~mem_words:(1 lsl 16) Cost.sun3_emulation

let run_to_halt ?(max_insns = 100_000) m entry =
  Machine.set_halted m false;
  Machine.set_supervisor m true;
  Machine.set_reg m I.sp 0x8000;
  Machine.set_pc m entry;
  match Machine.run ~max_insns m with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "fragment did not halt"

(* ------------------------------------------------------------------ *)
(* Forced CAS failure: the machine-level kfault primitive *)

let cas_frag ~cell ~marker =
  [
    I.Move (I.Imm 5, I.Reg I.r6); (* expected *)
    I.Move (I.Imm 9, I.Reg I.r7); (* replacement *)
    I.Cas (I.r6, I.r7, I.Abs cell);
    I.B (I.Ne, I.To_label "failed");
    I.Move (I.Imm 1, I.Abs marker);
    I.Halt;
    I.Label "failed";
    I.Move (I.Imm 2, I.Abs marker);
    I.Halt;
  ]

let test_cas_forced_failure () =
  let m = machine () in
  let cell = 0x900 and marker = 0x910 in
  Machine.poke m cell 5;
  let entry, _ = Asm.assemble m (cas_frag ~cell ~marker) in
  let hooks = ref 0 in
  Machine.set_cas_fail m ~at:1 ~hook:(fun _ -> incr hooks);
  check_bool "armed" true (Machine.cas_fail_armed m);
  run_to_halt m entry;
  (* expected = current, so only the veto can make this Cas fail *)
  check_int "Z reported clear" 2 (Machine.peek m marker);
  check_int "store suppressed" 5 (Machine.peek m cell);
  check_int "rc holds the loaded value" 5 (Machine.get_reg m I.r6);
  check_int "hook fired once" 1 !hooks;
  check_int "one Cas executed" 1 (Machine.cas_executed m);
  check_bool "one-shot: disarmed after firing" false (Machine.cas_fail_armed m);
  (* the same Cas un-vetoed succeeds: failure was injection, not state *)
  let entry2, _ = Asm.assemble m (cas_frag ~cell ~marker) in
  run_to_halt m entry2;
  check_int "unforced Cas succeeds" 1 (Machine.peek m marker);
  check_int "store performed" 9 (Machine.peek m cell);
  check_int "hook not re-fired" 1 !hooks

let test_cas_fail_index_contract () =
  let m = machine () in
  let cell = 0x900 in
  let entry, _ = Asm.assemble m [ I.Cas (I.r6, I.r7, I.Abs cell); I.Halt ] in
  run_to_halt m entry;
  check_int "one Cas retired" 1 (Machine.cas_executed m);
  (* arming a failure at an index already executed is a caller bug *)
  Alcotest.check_raises "past index rejected"
    (Invalid_argument "set_cas_fail: index already passed") (fun () ->
      Machine.set_cas_fail m ~at:1 ~hook:(fun _ -> ()));
  check_bool "still disarmed" false (Machine.cas_fail_armed m)

(* Cas is atomic with respect to interrupts: even one raised *by* the
   forced failure is only delivered at the next instruction boundary,
   and the handler can never observe a torn load-compare-store. *)
let test_cas_atomic_vs_interrupt () =
  let m = machine () in
  let cell = 0x900 and seen = 0x904 and count = 0x908 in
  Machine.poke m cell 5;
  let h2, _ =
    Asm.assemble m
      [
        I.Move (I.Abs cell, I.Abs seen);
        I.Alu_mem (I.Add, I.Imm 1, I.Abs count);
        I.Rte;
      ]
  in
  Machine.poke m (I.Vector.autovector 2) h2;
  Machine.set_cas_fail m ~at:1 ~hook:(fun mm ->
      Machine.post_interrupt mm ~source:"test" ~level:2
        ~vector:(I.Vector.autovector 2));
  let entry, _ =
    Asm.assemble m
      [
        I.Set_ipl 0;
        I.Move (I.Imm 5, I.Reg I.r6);
        I.Move (I.Imm 9, I.Reg I.r7);
        I.Label "retry";
        I.Cas (I.r6, I.r7, I.Abs cell);
        I.B (I.Ne, I.To_label "retry");
        I.Halt;
      ]
  in
  run_to_halt m entry;
  check_int "handler ran exactly once" 1 (Machine.peek m count);
  (* the vetoed Cas retired whole before delivery: its store was
     suppressed, so the handler saw the pre-Cas value, never a torn
     intermediate *)
  check_int "handler saw the pre-store value" 5 (Machine.peek m seen);
  check_int "retry after the veto succeeded" 9 (Machine.peek m cell)

(* ------------------------------------------------------------------ *)
(* Interrupt boundaries *)

(* A same-level interrupt posted while its handler runs must pend
   until the Rte restores the pre-interrupt IPL — never nest. *)
let test_same_level_interrupt_pends () =
  let m = machine () in
  let log = 0x900 in
  let append id =
    [
      I.Push (I.Reg I.r4);
      I.Move (I.Abs (log + 7), I.Reg I.r4);
      I.Alu (I.Add, I.Imm log, I.r4);
      I.Move (I.Imm id, I.Ind I.r4);
      I.Alu_mem (I.Add, I.Imm 1, I.Abs (log + 7));
      I.Pop I.r4;
    ]
  in
  let posted = ref false in
  let repost =
    Machine.register_hcall m (fun mm ->
        if not !posted then begin
          posted := true;
          Machine.post_interrupt mm ~level:4 ~vector:(I.Vector.autovector 4)
        end)
  in
  let h4, _ =
    Asm.assemble m
      (append 4 @ [ I.Hcall repost; I.Nop; I.Nop ] @ append 44 @ [ I.Rte ])
  in
  Machine.poke m (I.Vector.autovector 4) h4;
  let main, _ =
    Asm.assemble m
      ([ I.Set_ipl 0 ] @ List.init 8 (fun _ -> I.Nop) @ [ I.Halt ])
  in
  Machine.post_interrupt m ~level:4 ~vector:(I.Vector.autovector 4);
  run_to_halt m main;
  check_int "four log entries" 4 (Machine.peek m (log + 7));
  check_int "first entry" 4 (Machine.peek m log);
  (* 44 before the second 4: the handler finished before re-delivery *)
  check_int "first handler ran to completion" 44 (Machine.peek m (log + 1));
  check_int "pended delivery after Rte" 4 (Machine.peek m (log + 2));
  check_int "second handler completed" 44 (Machine.peek m (log + 3))

(* An interrupt wakes Stop_wait; simulated time fast-forwards to the
   device event instead of busy-stepping. *)
let test_interrupt_resumes_stop_wait () =
  let m = machine () in
  let marker = 0x900 in
  let h2, _ = Asm.assemble m [ I.Rte ] in
  Machine.poke m (I.Vector.autovector 2) h2;
  let dev = ref None in
  let d =
    Machine.add_device m ~name:"kick" ~due:200 ~tick:(fun mm ->
        Machine.post_interrupt mm ~source:"kick" ~level:2
          ~vector:(I.Vector.autovector 2);
        match !dev with Some d -> Machine.device_idle mm d | None -> ())
  in
  dev := Some d;
  let entry, _ =
    Asm.assemble m
      [ I.Set_ipl 0; I.Stop_wait; I.Move (I.Imm 1, I.Abs marker); I.Halt ]
  in
  run_to_halt m entry;
  check_int "resumed past Stop_wait" 1 (Machine.peek m marker);
  check_bool "time advanced to the device event" true (Machine.cycles m >= 200)

(* ------------------------------------------------------------------ *)
(* Double faults *)

let test_double_fault_halts_machine () =
  let m = machine () in
  (* ruin the supervisor stack, then fault: the exception entry's own
     push faults and there is no state left to recover with *)
  let entry, _ =
    Asm.assemble m
      [ I.Move (I.Imm 0, I.Reg I.sp); I.Move (I.Imm 1, I.Abs 0x5_0000) ]
  in
  Machine.set_supervisor m true;
  Machine.set_pc m entry;
  (match Machine.run ~max_insns:1_000 m with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "runaway after double fault");
  check_bool "double fault recorded" true (Machine.double_faulted m);
  check_bool "machine halted" true (Machine.halted m)

let test_boot_logs_double_fault () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  (* wreck the thread's *supervisor* stack from inside user code (it
     is the inactive stack pointer while user code runs), then bus
     error: fault entry pushes onto the ruined stack and double
     faults *)
  let wreck = Machine.register_hcall m (fun mm -> Machine.set_other_sp mm 0) in
  let prog = [ I.Hcall wreck; I.Move (I.Imm 1, I.Abs 0x5_0000) ] in
  let entry, _ = Asm.assemble m prog in
  let _t = Thread.create k ~entry () in
  (match Boot.go ~max_insns:1_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  check_bool "machine double-faulted" true (Machine.double_faulted m);
  check_bool "post-mortem entry in the fault log" true
    (List.exists
       (fun e -> e.Kernel.f_reason = "double_fault")
       k.Kernel.fault_log);
  check_bool "counted in faults_total" true
    (Metrics.read k.Kernel.metrics "kernel.faults_total" >= 1)

(* ------------------------------------------------------------------ *)
(* Bounded fault log *)

let test_fault_log_bounded () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let n = Kernel.fault_log_cap + 36 in
  for i = 1 to n do
    Kernel.log_fault k ~tid:i ~reason:"test_fault"
  done;
  check_int "log capped" Kernel.fault_log_cap (List.length k.Kernel.fault_log);
  check_int "length counter agrees" Kernel.fault_log_cap k.Kernel.fault_log_len;
  check_int "evictions counted" 36 k.Kernel.fault_dropped;
  check_int "every fault counted" n
    (Metrics.read k.Kernel.metrics "kernel.faults_total");
  (* newest first: the last tid logged heads the list *)
  match k.Kernel.fault_log with
  | { Kernel.f_tid; _ } :: _ -> check_int "newest first" n f_tid
  | [] -> Alcotest.fail "empty fault log"

(* ------------------------------------------------------------------ *)
(* A full queue's put *)

let run_call m ~entry ?(r1 = 0) () =
  let frag = [ I.Jsr (I.To_addr entry); I.Halt ] in
  let start, _ = Asm.assemble m frag in
  Machine.set_halted m false;
  Machine.set_supervisor m true;
  Machine.set_reg m I.sp 0xE00;
  Machine.set_reg m I.r1 r1;
  Machine.set_pc m start;
  (match Machine.run ~max_insns:10_000 m with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> failwith "run_call: did not return");
  (Machine.get_reg m I.r0, Machine.get_reg m I.r1)

let test_overflow_fail () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let q =
    Kqueue.create ~kind:Kqueue.Spsc k ~name:"t/fail" ~size:4
  in
  for i = 1 to 3 do
    check_int "put ok" 1 (fst (run_call m ~entry:q.Kqueue.q_put ~r1:i ()))
  done;
  check_int "full put fails" 0 (fst (run_call m ~entry:q.Kqueue.q_put ~r1:99 ()))

(* ------------------------------------------------------------------ *)
(* Stray hardware interrupts (a kfault-found bug): the handler for an
   unclaimed autovector must preserve every register — the trap
   default's -1-in-r0 convention would corrupt the interrupted
   thread. *)

let test_stray_irq_preserves_registers () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let stray = k.Kernel.default_vectors.(I.Vector.autovector 1) in
  check_bool "level 1 has a handler" true (stray <> 0);
  (* wire the boot-installed stray handler into the live (vbr = 0)
     vector table and take the interrupt mid-fragment *)
  Machine.poke m (I.Vector.autovector 1) stray;
  let post =
    Machine.register_hcall m (fun mm ->
        Machine.post_interrupt mm ~source:"stray" ~level:1
          ~vector:(I.Vector.autovector 1))
  in
  let entry, _ =
    Asm.assemble m
      [
        I.Set_ipl 0;
        I.Move (I.Imm 7, I.Reg I.r0);
        I.Move (I.Imm 8, I.Reg I.r1);
        I.Hcall post;
        I.Nop;
        I.Halt;
      ]
  in
  Machine.set_halted m false;
  run_to_halt m entry;
  check_int "r0 preserved across the stray irq" 7 (Machine.get_reg m I.r0);
  check_int "r1 preserved across the stray irq" 8 (Machine.get_reg m I.r1)

(* ------------------------------------------------------------------ *)
(* Host-queue fault seam *)

let test_oq_fault_seam () =
  check_bool "disarmed by default" false (Oq.Fault.armed ());
  Oq.Fault.arm ~seed:3 ~every:5;
  let q = Oq.Mpsc.create 64 in
  for i = 0 to 999 do
    Oq.Mpsc.put q i;
    check_int "fifo under CAS vetoes" i (Oq.Mpsc.get q)
  done;
  check_bool "vetoes were delivered" true (Oq.Fault.forced () > 0);
  Oq.Fault.disarm ();
  check_bool "disarmed" false (Oq.Fault.armed ())

(* ------------------------------------------------------------------ *)
(* Plan and explorer determinism *)

let test_plan_deterministic () =
  let a = Fault_inject.compile 7 and b = Fault_inject.compile 7 in
  check_bool "same seed, same events" true
    (a.Fault_inject.events = b.Fault_inject.events);
  check_bool "same seed, same cas gaps" true
    (a.Fault_inject.cas_gaps = b.Fault_inject.cas_gaps);
  let c = Fault_inject.compile 8 in
  check_bool "different seed, different plan" true
    (a.Fault_inject.events <> c.Fault_inject.events)

let test_explorer_deterministic () =
  let a = E.run_subject (E.queue_subject Kqueue.Spmc) ~seed:5 () in
  let b = E.run_subject (E.queue_subject Kqueue.Spmc) ~seed:5 () in
  check_bool "no violations" true (a.E.s_violations = []);
  check_int "same consumed" a.E.s_progress b.E.s_progress;
  check_int "same preemptions" a.E.s_preemptions b.E.s_preemptions;
  check_int "same injected faults" a.E.s_injected b.E.s_injected;
  check_int "same instruction count" a.E.s_insns b.E.s_insns;
  check_int "same cycle count" a.E.s_cycles b.E.s_cycles

let test_explorer_smoke () =
  List.iter
    (fun kind ->
      let r = E.run_subject (E.queue_subject ~items:16 kind) ~seed:2 () in
      Alcotest.(check (list string))
        (r.E.s_subject ^ " invariants hold")
        [] r.E.s_violations;
      check_int (r.E.s_subject ^ " all items consumed") r.E.s_goal r.E.s_progress)
    [ Kqueue.Spsc; Kqueue.Mpsc; Kqueue.Spmc; Kqueue.Mpmc ]

(* ------------------------------------------------------------------ *)
(* kheal: code-region corruption, audit, and repair by resynthesis *)

(* A quaject with one op: a region that never executes on its own, so
   only the audit channel (or a direct call) can reach it. *)
let tick_quaject k =
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 4 in
  let template ~self:_ =
    Template.make ~name:"tick" (fun () ->
        [ I.Alu_mem (I.Add, I.Imm 1, I.Abs cell); I.Rts ])
  in
  let qj = Synthesizer.create k ~name:"heal" ~data_words:4 [ ("tick", template) ] in
  (qj, cell)

let region_exn k name =
  match Kernel.find_region_by_name k name with
  | Some r -> r
  | None -> Alcotest.failf "region %s not registered" name

let read_region m r =
  Array.init r.Kernel.sp_len (fun i ->
      Machine.read_code m (r.Kernel.sp_entry + i))

let test_code_registry () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  ignore (Kqueue.create ~kind:Kqueue.Mpmc k ~name:"heal/q" ~size:8);
  let idle, _ = Asm.assemble m [ I.Rts ] in
  let t = Thread.create k ~entry:idle () in
  ignore (tick_quaject k);
  (* every emitted region kind is on the books, clean, and audited *)
  List.iter
    (fun name -> ignore (region_exn k name))
    [
      "heal/q/put";
      "heal/q/get";
      Printf.sprintf "ctx/t%d/sw_out" t.Kernel.tid;
      Printf.sprintf "ctx/t%d/sw_in" t.Kernel.tid;
      "quaject/heal/tick";
      "fault/illegal";
    ];
  List.iter
    (fun r ->
      check_bool (r.Kernel.sp_name ^ " clean") false (Kernel.region_dirty k r))
    (Kernel.pages k);
  check_int "audit of a clean kernel repairs nothing" 0 (Kernel.audit_code k);
  check_int "code state hash is stable" (Kernel.code_state_hash k)
    (Kernel.code_state_hash k)

let test_corrupt_detect_repair () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let q = Kqueue.create ~kind:Kqueue.Spsc k ~name:"heal/q" ~size:8 in
  let r = region_exn k "heal/q/put" in
  let pristine = read_region m r in
  let h0 = Kernel.code_state_hash k in
  Fault_inject.corrupt_code m ~addr:(r.Kernel.sp_entry + 2) ~bit:11;
  check_bool "corruption detected by checksum" true (Kernel.region_dirty k r);
  check_bool "hash diverges" true (Kernel.code_state_hash k <> h0);
  check_int "audit repairs exactly one region" 1 (Kernel.audit_code k);
  check_bool "clean again" false (Kernel.region_dirty k r);
  check_bool "resynthesized code is byte-identical" true
    (read_region m r = pristine);
  check_int "hash restored" h0 (Kernel.code_state_hash k);
  check_int "repair counted" 1 (Kernel.code_repairs_total k);
  (match k.Kernel.fault_log with
  | { Kernel.f_reason; _ } :: _ ->
    check_bool "repair logged" true (f_reason = "code_repair/audit/heal/q/put")
  | [] -> Alcotest.fail "no fault log entry");
  (* the repaired queue still works *)
  check_int "put through repaired code" 1
    (fst (run_call m ~entry:q.Kqueue.q_put ~r1:42 ()));
  let st, v = run_call m ~entry:q.Kqueue.q_get () in
  check_int "get ok" 1 st;
  check_int "item intact" 42 v

(* A legitimate runtime patch into a dirty region must repair first:
   patching may never bless corruption into the checksum. *)
let test_patch_never_blesses_corruption () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let idle, _ = Asm.assemble m [ I.Rts ] in
  let t = Thread.create k ~entry:idle () in
  let r = region_exn k (Printf.sprintf "ctx/t%d/sw_in" t.Kernel.tid) in
  (* corrupt an instruction that is NOT the quantum slot, then patch
     the quantum slot through the kernel *)
  let victim =
    if t.Kernel.quantum_slot = r.Kernel.sp_entry then r.Kernel.sp_entry + 1
    else r.Kernel.sp_entry
  in
  Fault_inject.corrupt_code m ~addr:victim ~bit:4;
  check_bool "dirty before patch" true (Kernel.region_dirty k r);
  Ctx.set_quantum k t 500;
  check_bool "patch repaired the region first" false (Kernel.region_dirty k r);
  check_int "repair counted" 1 (Kernel.code_repairs_total k);
  check_bool "quantum patch applied" true
    (Machine.read_code m t.Kernel.quantum_slot
    = I.Move (I.Imm 500, I.Abs Mmio_map.timer_alarm));
  check_int "audit finds nothing left" 0 (Kernel.audit_code k)

(* Trap channel, end to end: executing corrupted code faults, the
   illegal handler repairs the region, and the retried instruction
   completes with the side effect happening exactly once. *)
let test_trap_repairs_and_retries () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let exit0, _ = Asm.assemble m [ I.Trap 0 ] in
  let t = Thread.create k ~entry:exit0 () in
  (* boot-level vbr is 0; vector through the thread's table *)
  Machine.set_vbr m (t.Kernel.base + Layout.Tte.off_vectors);
  let qj, cell = tick_quaject k in
  let r = region_exn k "quaject/heal/tick" in
  Fault_inject.corrupt_code m ~addr:r.Kernel.sp_entry ~bit:19;
  ignore (run_call m ~entry:(Synthesizer.op_entry qj "tick") ());
  check_bool "region repaired by the trap path" false (Kernel.region_dirty k r);
  check_int "op ran exactly once after the retry" 1 (Machine.peek m cell);
  check_int "repair counted" 1 (Kernel.code_repairs_total k);
  (match k.Kernel.fault_log with
  | { Kernel.f_reason; _ } :: _ ->
    check_int "trap origin logged" 0
      (compare f_reason "code_repair/trap/quaject/heal/tick")
  | [] -> Alcotest.fail "no fault log entry");
  (* an illegal instruction OUTSIDE any registered region still kills
     the thread: repair must not swallow genuine faults *)
  let deaths_before = List.length k.Kernel.fault_log in
  let bad, _ = Asm.assemble m [ I.Hcall (-7); I.Halt ] in
  ignore (Thread.create k ~entry:bad ());
  Machine.set_halted m false;
  (match Boot.go ~max_insns:1_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "kill path did not settle");
  check_bool "unregistered fault logged as a death" true
    (List.length k.Kernel.fault_log > deaths_before);
  (match k.Kernel.fault_log with
  | { Kernel.f_reason; _ } :: _ ->
    check_bool "reason" true
      (String.length f_reason >= 7 && String.sub f_reason 0 7 = "illegal")
  | [] -> Alcotest.fail "empty log")

(* Watchdog channel: dormant corruption — code that never executes —
   is caught and repaired within a period. *)
let test_watchdog_audit_repairs_dormant () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  (* a spinner long enough to span several watchdog periods *)
  let entry, _ =
    Asm.assemble m
      [
        I.Move (I.Imm 60_000, I.Reg I.r9);
        I.Label "spin";
        I.Dbra (I.r9, I.To_label "spin");
        I.Trap 0;
      ]
  in
  ignore (Thread.create k ~entry ());
  let wd = Watchdog.install k ~period_us:200.0 () in
  Watchdog.audit_code wd;
  let r = region_exn k "bad_fd" in
  Fault_inject.corrupt_code m ~addr:r.Kernel.sp_entry ~bit:2;
  (match Boot.go ~max_insns:2_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "spinner did not finish");
  check_bool "watchdog repaired the dormant region" true
    (List.exists
       (fun e -> e.Kernel.f_reason = "code_repair/watchdog/bad_fd")
       k.Kernel.fault_log);
  check_bool "clean" false (Kernel.region_dirty k r);
  check_int "kernel repair count agrees" 1 (Kernel.code_repairs_total k)

(* ------------------------------------------------------------------ *)
(* Property: every queue kind stays exact under a forced-CAS-failure
   storm — seeded op sequences, a model queue, and exact agreement on
   every status and item (no loss, no duplication, no reorder). *)

let storm_kind_name = function
  | Kqueue.Spsc -> "spsc"
  | Kqueue.Mpsc -> "mpsc"
  | Kqueue.Spmc -> "spmc"
  | Kqueue.Mpmc -> "mpmc"

let prop_queue_exact_under_cas_storm kind =
  let gen =
    QCheck.Gen.(pair (int_bound 0xFFFF) (list_size (int_range 20 60) (int_range 0 3)))
  in
  let print = QCheck.Print.(pair int (list int)) in
  QCheck.Test.make ~count:15
    ~name:(storm_kind_name kind ^ " queue exact under forced-CAS storm")
    (QCheck.make gen ~print)
    (fun (salt, ops) ->
      let b = Boot.boot () in
      let k = b.Boot.kernel in
      let m = k.Kernel.machine in
      let q = Kqueue.create ~kind k ~name:"prop/q" ~size:8 in
      let capacity = 7 in
      let model = Queue.create () in
      let next = ref 100 in
      let ok = ref true in
      let expect msg cond = if not cond then (ok := false; ignore msg) in
      List.iteri
        (fun i op ->
          (* the storm: force a failure on one of the next few CAS
             executions before (almost) every op *)
          if (not (Machine.cas_fail_armed m)) && (salt + i) land 3 <> 0 then
            Machine.set_cas_fail m
              ~at:(Machine.cas_executed m + 1 + ((salt lxor i) land 1))
              ~hook:(fun _ -> ());
          (* a forced CAS failure makes one attempt report "would
             block"; the optimistic contract is that the caller
             retries — transient interference, not queue state *)
          let rec call_until tries entry r1 =
            let st, v = run_call m ~entry ~r1 () in
            if st = 1 || tries <= 1 then (st, v)
            else call_until (tries - 1) entry r1
          in
          if op < 2 then begin
            let item = !next in
            incr next;
            let st, _ = call_until 4 q.Kqueue.q_put item in
            if Queue.length model < capacity then begin
              expect "put succeeds with space" (st = 1);
              Queue.push item model
            end
            else expect "put fails when full" (st = 0)
          end
          else begin
            let st, v = call_until 4 q.Kqueue.q_get 0 in
            if Queue.is_empty model then expect "get fails when empty" (st = 0)
            else begin
              expect "get succeeds" (st = 1);
              expect "exact FIFO item" (v = Queue.pop model)
            end
          end)
        ops;
      (* drain and compare the tails *)
      let rec drain () =
        let st1, v1 = run_call m ~entry:q.Kqueue.q_get () in
        let st, v =
          if st1 = 1 then (st1, v1) else run_call m ~entry:q.Kqueue.q_get ()
        in
        ignore v1;
        if st = 1 then begin
          expect "drained item present in model" (not (Queue.is_empty model));
          if not (Queue.is_empty model) then
            expect "drained in model order" (v = Queue.pop model);
          drain ()
        end
      in
      drain ();
      expect "model drained too" (Queue.is_empty model);
      !ok)

let storm_props =
  List.map
    (fun kind -> QCheck_alcotest.to_alcotest (prop_queue_exact_under_cas_storm kind))
    [ Kqueue.Spsc; Kqueue.Mpsc; Kqueue.Spmc; Kqueue.Mpmc ]

(* ------------------------------------------------------------------ *)
(* Recovery quajects *)

let test_watchdog_restarts_stalled_flow () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let entry, _ =
    Asm.assemble m [ I.Label "spin"; I.B (I.Always, I.To_label "spin") ]
  in
  let _t = Thread.create k ~entry () in
  let wd = Watchdog.install k ~period_us:200.0 () in
  let kicks = ref 0 in
  let flow =
    Watchdog.watch wd ~name:"stuck"
      ~read:(fun () -> 0) (* never makes progress *)
      ~restart:(fun () -> incr kicks)
      ()
  in
  (match Boot.go ~max_insns:400_000 b with
  | Machine.Insn_limit -> ()
  | Machine.Halted -> Alcotest.fail "spinner halted");
  Watchdog.stop wd;
  check_bool "restart action ran" true (!kicks >= 1);
  check_int "flow restart count agrees" !kicks (Watchdog.restarts flow);
  check_int "registered in kernel metrics" !kicks
    (Metrics.read k.Kernel.metrics "watchdog.restarts")

let test_disk_bad_block_fails_cleanly () =
  let d = E.disk_fault ~seed:1 ~mode:E.Disk_bad_block () in
  check_bool "read did not complete" false d.E.df_completed;
  check_int "marked permanently failed" 1 d.E.df_failed;
  check_bool "bounded retries, then gave up" true
    (d.E.df_timeouts >= 2 && d.E.df_retries >= 1)

let () =
  Alcotest.run "fault"
    [
      ( "cas",
        [
          Alcotest.test_case "forced failure semantics" `Quick
            test_cas_forced_failure;
          Alcotest.test_case "past-index contract" `Quick
            test_cas_fail_index_contract;
          Alcotest.test_case "atomic vs interrupts" `Quick
            test_cas_atomic_vs_interrupt;
        ] );
      ( "interrupts",
        [
          Alcotest.test_case "same-level delivery pends" `Quick
            test_same_level_interrupt_pends;
          Alcotest.test_case "stop_wait resumed" `Quick
            test_interrupt_resumes_stop_wait;
          Alcotest.test_case "stray irq preserves registers" `Quick
            test_stray_irq_preserves_registers;
        ] );
      ( "double fault",
        [
          Alcotest.test_case "halts the machine" `Quick
            test_double_fault_halts_machine;
          Alcotest.test_case "logged by boot" `Quick test_boot_logs_double_fault;
        ] );
      ( "fault log",
        [ Alcotest.test_case "bounded" `Quick test_fault_log_bounded ] );
      ( "overflow",
        [
          Alcotest.test_case "fail policy" `Quick test_overflow_fail;
        ] );
      ( "kfault",
        [
          Alcotest.test_case "oq fault seam" `Quick test_oq_fault_seam;
          Alcotest.test_case "plan determinism" `Quick test_plan_deterministic;
          Alcotest.test_case "explorer determinism" `Quick
            test_explorer_deterministic;
          Alcotest.test_case "explorer smoke" `Quick test_explorer_smoke;
        ] );
      ( "kheal",
        [
          Alcotest.test_case "code regions registered" `Quick test_code_registry;
          Alcotest.test_case "corrupt, detect, repair" `Quick
            test_corrupt_detect_repair;
          Alcotest.test_case "patch never blesses corruption" `Quick
            test_patch_never_blesses_corruption;
          Alcotest.test_case "trap repairs and retries" `Quick
            test_trap_repairs_and_retries;
          Alcotest.test_case "watchdog audit repairs dormant code" `Quick
            test_watchdog_audit_repairs_dormant;
        ] );
      ("storm", storm_props);
      ( "recovery",
        [
          Alcotest.test_case "watchdog restarts a stalled flow" `Quick
            test_watchdog_restarts_stalled_flow;
          Alcotest.test_case "disk bad block fails cleanly" `Quick
            test_disk_bad_block_fails_cleanly;
        ] );
    ]
