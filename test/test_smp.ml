(* kSMP tests: multi-core boot, per-core kernel state, work stealing,
   and pinned repros for the single-CPU assumptions the SMP sweep
   flushed out.

   Each repro test names the latent assumption it pins:
   - idle fast-forward: an all-stopped warp must never skip cycles a
     busy core still has to execute;
   - current-thread cells: the "who runs here" cells are per core, not
     one global set every core clobbers;
   - quantum timers: each core preempts on its own timer, so arming a
     quantum on one core cannot cancel another core's;
   - alarm chaining: trap 7 reads the arming thread's tid through the
     per-core window, so a secondary core's alarm signals the right
     thread;
   - cross-core signals: a thread running on another core right now
     has its context in that core's registers — delivery must bounce
     through the home core's IPI, not poke either image from afar;
   - steal dispatch guard: a thread that is current on its home core
     (or mid-switch there) must not be migrated. *)

open Quamachine
open Synthesis
module E = Repro_harness.Explorer
module I = Insn

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let load_program b insns =
  let entry, _ = Asm.assemble b.Boot.kernel.Kernel.machine insns in
  entry

let user_region b n = Kalloc.alloc_zeroed b.Boot.kernel.Kernel.alloc n

(* A worker that counts [n] increments into [cell] and exits. *)
let counter_prog cell n =
  [
    I.Move (I.Imm (n - 1), I.Reg I.r9);
    I.Label "loop";
    I.Alu_mem (I.Add, I.Imm 1, I.Abs cell);
    I.Dbra (I.r9, I.To_label "loop");
    I.Trap 0;
  ]

(* ------------------------------------------------------------------ *)
(* Boot and bring-up *)

let test_two_cores_run_in_parallel () =
  let b = Boot.boot ~cores:2 () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let cells = user_region b 16 in
  let t0 =
    Thread.create k ~cpu:0
      ~entry:(load_program b (counter_prog cells 1_000))
      ~segments:[ (cells, 16) ] ()
  in
  let t1 =
    Thread.create k ~cpu:1
      ~entry:(load_program b (counter_prog (cells + 1) 2_000))
      ~segments:[ (cells, 16) ] ()
  in
  check_int "t0 homed on core 0" 0 t0.Kernel.cpu;
  check_int "t1 homed on core 1" 1 t1.Kernel.cpu;
  check_bool "rings verify" true (Ready_queue.verify k);
  (match Boot.go ~max_insns:10_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  check_int "core 0's thread counted" 1_000 (Machine.peek m cells);
  check_int "core 1's thread counted" 2_000 (Machine.peek m (cells + 1));
  check_bool "core 1 actually executed" true (Machine.core_insns m 1 > 2_000);
  check_bool "core 1 was started" true (Machine.core_started m 1)

(* Repro: the uniprocessor "everyone is stopped" fast-forward.  Core 0
   sits on its idle thread (Stop_wait between timer wakeups) while all
   user work is pinned to core 1.  A warp keyed off core 0 alone would
   jump the clock past core 1's unexecuted instructions; the work
   completing exactly proves no cycle was skipped. *)
let test_idle_core_does_not_fast_forward_past_busy_core () =
  let b = Boot.boot ~cores:2 () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let cell = user_region b 8 in
  ignore
    (Thread.create k ~cpu:1
       ~entry:(load_program b (counter_prog cell 5_000))
       ~segments:[ (cell, 8) ] ());
  (match Boot.go ~max_insns:20_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  check_int "every increment executed" 5_000 (Machine.peek m cell);
  check_bool "core 0 only idled" true
    (Machine.core_insns m 0 < Machine.core_insns m 1)

(* Repro: per-core current-thread cells.  With one shared set of
   cells, each core's switch code would overwrite the other's "who
   runs here" record; with the per-core window, both cores' records
   stay simultaneously correct. *)
let test_per_core_current_cells () =
  let b = Boot.boot ~cores:2 () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let cell = user_region b 8 in
  let spin c =
    [
      I.Label "loop";
      I.Alu_mem (I.Add, I.Imm 1, I.Abs c);
      I.B (I.Always, I.To_label "loop");
    ]
  in
  let t0 =
    Thread.create k ~cpu:0 ~entry:(load_program b (spin cell))
      ~segments:[ (cell, 8) ] ()
  in
  let t1 =
    Thread.create k ~cpu:1
      ~entry:(load_program b (spin (cell + 1)))
      ~segments:[ (cell, 8) ] ()
  in
  (match Boot.go ~max_insns:100_000 b with
  | Machine.Insn_limit -> ()
  | Machine.Halted -> Alcotest.fail "spinners cannot halt");
  check_int "core 0 records its own thread" t0.Kernel.base
    (Machine.peek m (Layout.cur_tte_cell_for 0));
  check_int "core 1 records its own thread" t1.Kernel.base
    (Machine.peek m (Layout.cur_tte_cell_for 1));
  check_int "core 0 tid cell" t0.Kernel.tid
    (Machine.peek m (Layout.cur_tid_cell_for 0));
  check_int "core 1 tid cell" t1.Kernel.tid
    (Machine.peek m (Layout.cur_tid_cell_for 1));
  (match Kernel.current ~cpu:0 k with
  | Some t -> check_int "Kernel.current cpu 0" t0.Kernel.tid t.Kernel.tid
  | None -> Alcotest.fail "no current on core 0");
  match Kernel.current ~cpu:1 k with
  | Some t -> check_int "Kernel.current cpu 1" t1.Kernel.tid t.Kernel.tid
  | None -> Alcotest.fail "no current on core 1"

(* Repro: per-core quantum timers.  Two compute-bound threads per
   core: round-robin within each core depends on that core's own
   quantum timer firing.  With one shared alarm register, core 1
   re-arming its quantum would cancel core 0's pending expiry and one
   thread per core could hog forever. *)
let test_per_core_quantum_timers () =
  let b = Boot.boot ~cores:2 () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let cells = user_region b 8 in
  let spin c =
    [
      I.Label "loop";
      I.Alu_mem (I.Add, I.Imm 1, I.Abs c);
      I.B (I.Always, I.To_label "loop");
    ]
  in
  for i = 0 to 3 do
    ignore
      (Thread.create k ~cpu:(i / 2) ~quantum_us:100
         ~entry:(load_program b (spin (cells + i)))
         ~segments:[ (cells, 8) ] ())
  done;
  (match Boot.go ~max_insns:400_000 b with
  | Machine.Insn_limit -> ()
  | Machine.Halted -> Alcotest.fail "spinners cannot halt");
  for i = 0 to 3 do
    check_bool
      (Printf.sprintf "thread %d on core %d got its quantum" i (i / 2))
      true
      (Machine.peek m (cells + i) > 0)
  done

(* ------------------------------------------------------------------ *)
(* Cross-core signals and alarms *)

(* Repro: signalling a thread that is, right now, executing on another
   core.  Its context lives in that core's registers — neither the
   saved area nor the signaller's live frame is valid to poke.  The
   fixed path queues the delivery and IPIs the home core, which
   re-delivers into its own live frame. *)
let test_cross_core_signal_ipi () =
  let b = Boot.boot ~cores:2 () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let cell = user_region b 8 in
  let handler, _ = Asm.assemble m [ I.Alu_mem (I.Add, I.Imm 1, I.Abs cell); I.Rts ] in
  (* target: register the handler, then spin bumping its own counter
     on core 1 — always current there *)
  let target_prog =
    [
      I.Move (I.Imm handler, I.Reg I.r1);
      I.Trap 8;
      I.Label "loop";
      I.Alu_mem (I.Add, I.Imm 1, I.Abs (cell + 1));
      I.B (I.Always, I.To_label "loop");
    ]
  in
  let target =
    Thread.create k ~cpu:1 ~entry:(load_program b target_prog)
      ~segments:[ (cell, 8) ] ()
  in
  (* signaller on core 0: wait until the target is demonstrably
     running (its counter moves), then trap 6 *)
  let sig_prog =
    [
      I.Label "wait";
      I.Tst (I.Abs (cell + 1));
      I.B (I.Eq, I.To_label "wait");
      I.Move (I.Imm target.Kernel.tid, I.Reg I.r1);
      I.Trap 6;
      I.Move (I.Reg I.r0, I.Abs (cell + 2));
      I.Trap 0;
    ]
  in
  ignore
    (Thread.create k ~cpu:0 ~entry:(load_program b sig_prog)
       ~segments:[ (cell, 8) ] ());
  (match Boot.go ~max_insns:400_000 b with
  | Machine.Insn_limit -> ()
  | Machine.Halted -> Alcotest.fail "target spins forever");
  check_int "signal accepted" 0 (Machine.peek m (cell + 2));
  check_int "handler ran on the home core" 1 (Machine.peek m cell);
  check_bool "target kept running undamaged" true
    (Machine.peek m (cell + 1) > 1_000)

(* Repro: trap 7 on a secondary core.  The alarm syscall snapshots the
   arming thread's tid through the per-core window; reading a global
   current-tid cell would chain the alarm to whatever core 0 was
   running.  The armer lives on core 1; the alarm interrupt (routed to
   core 0) must signal the core-1 thread — which also exercises the
   IPI path, since the armer keeps spinning on its home core. *)
let test_alarm_armed_from_secondary_core () =
  let b = Boot.boot ~cores:2 () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let cell = user_region b 8 in
  let handler, _ = Asm.assemble m [ I.Alu_mem (I.Add, I.Imm 1, I.Abs cell); I.Rts ] in
  let armer_prog =
    [
      I.Move (I.Imm handler, I.Reg I.r1);
      I.Trap 8;
      I.Move (I.Imm 50, I.Reg I.r1);
      I.Trap 7; (* alarm in 50 us *)
      I.Label "loop";
      I.Alu_mem (I.Add, I.Imm 1, I.Abs (cell + 1));
      I.B (I.Always, I.To_label "loop");
    ]
  in
  ignore
    (Thread.create k ~cpu:1 ~entry:(load_program b armer_prog)
       ~segments:[ (cell, 8) ] ());
  (* a decoy thread occupies core 0, so a tid misread through a shared
     cell would chain the alarm to the wrong thread *)
  let decoy_prog =
    [
      I.Label "loop";
      I.Alu_mem (I.Add, I.Imm 1, I.Abs (cell + 2));
      I.B (I.Always, I.To_label "loop");
    ]
  in
  ignore
    (Thread.create k ~cpu:0 ~entry:(load_program b decoy_prog)
       ~segments:[ (cell, 8) ] ());
  (match Boot.go ~max_insns:400_000 b with
  | Machine.Insn_limit -> ()
  | Machine.Halted -> Alcotest.fail "spinners cannot halt");
  check_int "alarm signalled the core-1 armer" 1 (Machine.peek m cell)

(* ------------------------------------------------------------------ *)
(* Work stealing and the dispatch guard *)

let test_migrate_moves_thread_between_rings () =
  let b = Boot.boot ~cores:2 () in
  let k = b.Boot.kernel in
  let entry = load_program b [ I.Label "l"; I.B (I.Always, I.To_label "l") ] in
  let t = Thread.create k ~cpu:0 ~entry () in
  let u = Thread.create k ~cpu:0 ~entry () in
  ignore u;
  check_int "two on core 0's ring" 2 (List.length (Ready_queue.to_list ~cpu:0 k));
  check_bool "stealable before dispatch" true (Smp.stealable k t);
  check_bool "migrate succeeds" true (Smp.migrate k t ~cpu:1);
  check_int "rehomed" 1 t.Kernel.cpu;
  check_bool "rings still verify" true (Ready_queue.verify k);
  check_int "one left on core 0" 1 (List.length (Ready_queue.to_list ~cpu:0 k));
  check_bool "t now on core 1's ring" true
    (List.memq t (Ready_queue.to_list ~cpu:1 k));
  check_int "migration counted" 1 (Smp.migrations k);
  (* idle threads are pinned *)
  (match Kernel.idle_of k 1 with
  | Some idle ->
    Alcotest.check_raises "idle is pinned" (Invalid_argument
      "Smp.migrate: idle threads are pinned") (fun () ->
        ignore (Smp.migrate k idle ~cpu:0))
  | None -> Alcotest.fail "core 1 has no idle thread");
  (* steal pulls from the loaded core for an empty thief *)
  let v = Thread.create k ~cpu:0 ~entry () in
  ignore v;
  match Smp.steal k ~thief:1 with
  | Some stolen ->
    check_int "stolen thread rehomed" 1 stolen.Kernel.cpu;
    check_int "steal counted" 1 (Smp.steals k)
  | None -> Alcotest.fail "steal found no victim"

(* Repro: the dispatch guard.  A thread that is current on its home
   core has its context in that core's registers; stealing it would
   fork the context.  The guard refuses; the sabotage lever (used by
   the explorer's negative run) skips the refusal. *)
let test_steal_guard_refuses_running_thread () =
  let b = Boot.boot ~cores:2 () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let cell = user_region b 8 in
  let spin c =
    [
      I.Label "loop";
      I.Alu_mem (I.Add, I.Imm 1, I.Abs c);
      I.B (I.Always, I.To_label "loop");
    ]
  in
  let t0 =
    Thread.create k ~cpu:0 ~entry:(load_program b (spin cell))
      ~segments:[ (cell, 8) ] ()
  in
  ignore
    (Thread.create k ~cpu:1
       ~entry:(load_program b (spin (cell + 1)))
       ~segments:[ (cell, 8) ] ());
  (match Boot.go ~max_insns:50_000 b with
  | Machine.Insn_limit -> ()
  | Machine.Halted -> Alcotest.fail "spinners cannot halt");
  (* t0 is mid-run on core 0: its sole ring membership makes it both
     current and the anchor *)
  check_bool "t0 is current on its home core" true
    (match Kernel.current ~cpu:0 k with Some c -> c == t0 | None -> false);
  check_bool "guard refuses the running thread" false (Smp.stealable k t0);
  check_bool "migrate refuses too" false (Smp.migrate k t0 ~cpu:1);
  check_int "still homed on core 0" 0 t0.Kernel.cpu;
  Smp.unsafe_skip_guard := true;
  check_bool "sabotage lever bypasses the guard" true (Smp.stealable k t0);
  Smp.unsafe_skip_guard := false;
  check_bool "guard back in force" false (Smp.stealable k t0);
  check_int "no migration happened" 0 (Smp.migrations k);
  ignore m

let test_stealer_balances_end_to_end () =
  let b = Boot.boot ~cores:2 () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let cells = user_region b 8 in
  (* all work starts on core 0; core 1 has only its idle thread and a
     stealer device *)
  for i = 0 to 3 do
    ignore
      (Thread.create k ~cpu:0 ~quantum_us:200
         ~entry:(load_program b (counter_prog (cells + i) 3_000))
         ~segments:[ (cells, 8) ] ())
  done;
  ignore (Smp.install_stealer k ~cpu:1 ~period_us:300 ());
  (match Boot.go ~max_insns:20_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  for i = 0 to 3 do
    check_int
      (Printf.sprintf "worker %d finished" i)
      3_000
      (Machine.peek m (cells + i))
  done;
  check_bool "work was stolen onto core 1" true (Smp.steals k >= 1);
  check_bool "core 1 executed stolen work" true (Machine.core_insns m 1 > 1_000)

(* ------------------------------------------------------------------ *)
(* The explorer's smp subject: determinism and sabotage *)

let test_smp_subject_deterministic () =
  let a = E.run_subject (E.smp_subject ~cores:2 ()) ~seed:3 () in
  let b = E.run_subject (E.smp_subject ~cores:2 ()) ~seed:3 () in
  Alcotest.(check (list string)) "no violations" [] a.E.s_violations;
  check_int "goal reached" a.E.s_goal a.E.s_progress;
  check_bool "same seed, same interleaving" true
    (a.E.s_trace_hash = b.E.s_trace_hash)

let test_smp_sabotage_is_caught () =
  let r =
    E.run_subject (E.smp_subject ~cores:2 ()) ~sabotage:true ~seed:3 ()
  in
  check_bool "skipped dispatch guard must violate an invariant" true
    (r.E.s_violations <> [])

(* ------------------------------------------------------------------ *)
(* Cross-core queue property: all four kinds, 2-4 cores *)

let kinds = [| Kqueue.Spsc; Kqueue.Mpsc; Kqueue.Spmc; Kqueue.Mpmc |]

let prop_queue_cross_core =
  QCheck.Test.make ~count:20 ~max_gen:200
    ~name:"kqueue cross-core: no loss, no dup, per-producer FIFO (2-4 cores)"
    QCheck.(
      triple (int_range 0 3) (int_range 2 4) (int_range 0 10_000))
    (fun (ki, cores, seed) ->
      let r =
        E.run_subject ~faults:false
          (E.queue_subject ~cores ~items:8 kinds.(ki))
          ~seed ()
      in
      r.E.s_violations = [] && r.E.s_progress = r.E.s_goal)

(* ------------------------------------------------------------------ *)
(* Devices fire on the global clock *)

(* Device deadlines are one-shot and fire against the global clock —
   the minimum over runnable cores — never against whichever core
   happens to step.  The device below re-arms the way the load
   generator does, pulling its deadline in to the earliest event and
   never pushing it out.  With deadlines that stayed due after a tick,
   it fired on every step after its first event, on cores whose clocks
   ran ahead of the global one. *)
let test_device_fires_on_global_clock () =
  let m = Machine.create ~mem_words:(1 lsl 16) ~cores:4 Cost.sun3_emulation in
  let global () =
    let g = ref max_int in
    for i = 0 to Machine.num_cores m - 1 do
      if not (Machine.core_stopped m i) then g := min !g (Machine.core_cycles m i)
    done;
    !g
  in
  let n_events = 40 in
  let events = ref (List.init n_events (fun i -> 2_000 + (i * 1_500))) in
  let dev = ref None in
  let ticks = ref 0 and early = ref 0 and handled = ref 0 in
  let rearm m' d =
    match !events with
    | e :: _ -> if d.Machine.next_due > e then Machine.device_schedule m' d e
    | [] -> Machine.device_idle m' d
  in
  let tick m' =
    incr ticks;
    let now = global () in
    (match !events with e :: _ when e <= now -> () | _ -> incr early);
    let due, rest = List.partition (fun e -> e <= now) !events in
    handled := !handled + List.length due;
    events := rest;
    Option.iter (rearm m') !dev
  in
  dev := Some (Machine.add_device m ~name:"events" ~due:(List.hd !events) ~tick);
  (* core i spins doing i + 1 read-modify-writes per lap, so the local
     clocks drift apart; core 3 also starts 4,000 cycles behind *)
  for i = 0 to 3 do
    let body =
      List.init (i + 1) (fun _ -> I.Alu_mem (I.Add, I.Imm 1, I.Abs (0x100 + i)))
    in
    let entry, _ =
      Asm.assemble m ((I.Label "lap" :: body) @ [ I.B (I.Always, I.To_label "lap") ])
    in
    Machine.set_active_core m i;
    Machine.set_pc m entry;
    Machine.set_reg m I.sp (0x8000 - (i * 0x100));
    if i > 0 then Machine.start_core m i
  done;
  Machine.stall_core m ~cpu:3 ~cycles:4_000;
  let steps = ref 0 in
  while global () < 70_000 && !steps < 1_000_000 do
    Machine.step m;
    incr steps
  done;
  check_bool "global clock passed every event" true (global () >= 70_000);
  check_int "no tick before the global clock reached an event" 0 !early;
  check_int "every event handled" n_events !handled;
  check_int "one tick per event" n_events !ticks

let () =
  Alcotest.run "smp"
    [
      ( "boot",
        [
          Alcotest.test_case "two cores run in parallel" `Quick
            test_two_cores_run_in_parallel;
          Alcotest.test_case "idle core never fast-forwards past a busy core"
            `Quick test_idle_core_does_not_fast_forward_past_busy_core;
          Alcotest.test_case "devices fire on the global clock" `Quick
            test_device_fires_on_global_clock;
        ] );
      ( "percpu",
        [
          Alcotest.test_case "current-thread cells are per core" `Quick
            test_per_core_current_cells;
          Alcotest.test_case "quantum timers are per core" `Quick
            test_per_core_quantum_timers;
        ] );
      ( "signals",
        [
          Alcotest.test_case "cross-core signal bounces through the IPI"
            `Quick test_cross_core_signal_ipi;
          Alcotest.test_case "alarm armed from a secondary core" `Quick
            test_alarm_armed_from_secondary_core;
        ] );
      ( "stealing",
        [
          Alcotest.test_case "migrate rehomes a ready thread" `Quick
            test_migrate_moves_thread_between_rings;
          Alcotest.test_case "dispatch guard refuses a running thread" `Quick
            test_steal_guard_refuses_running_thread;
          Alcotest.test_case "stealer balances end to end" `Quick
            test_stealer_balances_end_to_end;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "smp subject is deterministic" `Quick
            test_smp_subject_deterministic;
          Alcotest.test_case "smp sabotage is caught" `Quick
            test_smp_sabotage_is_caught;
          QCheck_alcotest.to_alcotest prop_queue_cross_core;
        ] );
    ]
