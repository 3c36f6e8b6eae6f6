(* Kernel tests: boot, context switching through the executable ready
   queue, thread operations, syscalls, synthesized file I/O. *)

open Quamachine
open Synthesis
module I = Insn

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Load a user program into the code store, returning its entry. *)
let load_program b insns =
  let entry, _ = Asm.assemble b.Boot.kernel.Kernel.machine insns in
  entry

(* Allocate a user-visible data region. *)
let user_region b n = Kalloc.alloc_zeroed b.Boot.kernel.Kernel.alloc n

(* ------------------------------------------------------------------ *)

let test_boot_idle () =
  let b = Boot.boot () in
  check_bool "ready queue valid" true (Ready_queue.verify b.Boot.kernel);
  check_int "one thread (idle)" 1 (Ready_queue.length b.Boot.kernel)

let test_single_thread_runs () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let cell = user_region b 16 in
  let entry =
    load_program b
      [ I.Move (I.Imm 42, I.Abs cell); I.Trap 0 ]
  in
  let t = Thread.create k ~entry ~segments:[ (cell, 16) ] () in
  ignore t;
  (match Boot.go b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  check_int "thread wrote its cell" 42 (Machine.peek k.Kernel.machine cell)

let test_two_threads_interleave () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let cell = user_region b 16 in
  (* Two threads increment separate counters in a loop; quantum
     expiry alternates them through the executable ready queue. *)
  let mk_prog cell_addr count =
    [
      I.Move (I.Imm count, I.Reg I.r9);
      I.Label "loop";
      I.Alu_mem (I.Add, I.Imm 1, I.Abs cell_addr);
      I.Dbra (I.r9, I.To_label "loop");
      I.Trap 0;
    ]
  in
  let e1 = load_program b (mk_prog cell 999) in
  let e2 = load_program b (mk_prog (cell + 1) 1999) in
  let t1 = Thread.create k ~entry:e1 ~quantum_us:100 ~segments:[ (cell, 16) ] () in
  let t2 = Thread.create k ~entry:e2 ~quantum_us:100 ~segments:[ (cell, 16) ] () in
  ignore t1;
  ignore t2;
  check_bool "ready queue valid" true (Ready_queue.verify k);
  (* the idle thread leaves the ring while user threads are ready *)
  check_int "two threads queued" 2 (Ready_queue.length k);
  (match Boot.go ~max_insns:10_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  check_int "t1 counted" 1000 (Machine.peek k.Kernel.machine cell);
  check_int "t2 counted" 2000 (Machine.peek k.Kernel.machine (cell + 1))

(* Anchor and self-removal edge cases in the executable ready queue:
   removing the anchor thread must re-home the anchor to a surviving
   thread, and removing the last worker must re-instate the idle
   thread (never leaving a ring that points at a gone thread). *)

let test_remove_anchor_rehomes () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let entry = load_program b [ I.Label "l"; I.B (I.Always, I.To_label "l") ] in
  let _t1 = Thread.create k ~entry () in
  let _t2 = Thread.create k ~entry () in
  let a =
    match Kernel.anchor k 0 with
    | Some a -> a
    | None -> Alcotest.fail "no anchor"
  in
  Ready_queue.remove k a;
  check_bool "removed anchor left the ring" false (Ready_queue.in_queue a);
  (match Kernel.anchor k 0 with
  | Some a' ->
    check_bool "anchor re-homed to a queued thread" true
      (Ready_queue.in_queue a');
    check_bool "anchor is a different thread" true
      (a'.Kernel.tid <> a.Kernel.tid)
  | None -> Alcotest.fail "anchor lost");
  check_int "one thread left" 1 (Ready_queue.length k);
  check_bool "ready queue valid" true (Ready_queue.verify k)

let test_remove_last_worker_restores_idle () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let idle = b.Boot.idle in
  let entry = load_program b [ I.Label "l"; I.B (I.Always, I.To_label "l") ] in
  let t = Thread.create k ~entry () in
  check_bool "idle evicted while a worker is ready" false
    (Ready_queue.in_queue idle);
  (* the worker is the whole ring: its jmp points at itself *)
  Ready_queue.remove k t;
  check_bool "removed worker left the ring" false (Ready_queue.in_queue t);
  check_bool "idle re-instated" true (Ready_queue.in_queue idle);
  (match Kernel.anchor k 0 with
  | Some a -> check_int "anchor is idle again" idle.Kernel.tid a.Kernel.tid
  | None -> Alcotest.fail "anchor lost");
  check_int "only idle queued" 1 (Ready_queue.length k);
  check_bool "ready queue valid" true (Ready_queue.verify k)

let test_context_switch_preserves_registers () =
  (* Property: a thread's registers survive an arbitrary number of
     involuntary context switches. *)
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let cell = user_region b 32 in
  (* Thread 1 sets distinctive register values, spins, then dumps them. *)
  let prog =
    [
      I.Move (I.Imm 0x1111, I.Reg I.r9);
      I.Move (I.Imm 0x2222, I.Reg I.r10);
      I.Move (I.Imm 0x3333, I.Reg I.r11);
      I.Move (I.Imm 2000, I.Reg I.r12);
      I.Label "spin";
      I.Dbra (I.r12, I.To_label "spin");
      I.Move (I.Reg I.r9, I.Abs cell);
      I.Move (I.Reg I.r10, I.Abs (cell + 1));
      I.Move (I.Reg I.r11, I.Abs (cell + 2));
      I.Trap 0;
    ]
  in
  let busy =
    [
      I.Move (I.Imm 3000, I.Reg I.r9);
      I.Label "spin";
      I.Dbra (I.r9, I.To_label "spin");
      I.Trap 0;
    ]
  in
  let t1 =
    Thread.create k ~entry:(load_program b prog) ~quantum_us:50
      ~segments:[ (cell, 32) ] ()
  in
  let t2 = Thread.create k ~entry:(load_program b busy) ~quantum_us:50 () in
  ignore t1;
  ignore t2;
  (match Boot.go ~max_insns:10_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  check_int "r9 preserved" 0x1111 (Machine.peek k.Kernel.machine cell);
  check_int "r10 preserved" 0x2222 (Machine.peek k.Kernel.machine (cell + 1));
  check_int "r11 preserved" 0x3333 (Machine.peek k.Kernel.machine (cell + 2))

(* ------------------------------------------------------------------ *)
(* open /dev/null, read and write through synthesized routines *)

let poke_string m addr s =
  String.iteri (fun i c -> Machine.poke m (addr + i) (Char.code c)) s;
  Machine.poke m (addr + String.length s) 0

let test_open_null () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let region = user_region b 64 in
  poke_string m region "/dev/null";
  let prog =
    [
      (* fd = open("/dev/null") *)
      I.Move (I.Imm region, I.Reg I.r1);
      I.Trap 3;
      I.Move (I.Reg I.r0, I.Abs (region + 32)); (* record fd *)
      (* r0 = read(fd, buf, 10) *)
      I.Move (I.Reg I.r0, I.Reg I.r1);
      I.Move (I.Imm (region + 40), I.Reg I.r2);
      I.Move (I.Imm 10, I.Reg I.r3);
      I.Trap 1;
      I.Move (I.Reg I.r0, I.Abs (region + 33)); (* read result *)
      (* r0 = write(fd, buf, 7) *)
      I.Move (I.Abs (region + 32), I.Reg I.r1);
      I.Move (I.Imm (region + 40), I.Reg I.r2);
      I.Move (I.Imm 7, I.Reg I.r3);
      I.Trap 2;
      I.Move (I.Reg I.r0, I.Abs (region + 34));
      (* close(fd) *)
      I.Move (I.Abs (region + 32), I.Reg I.r1);
      I.Trap 4;
      I.Move (I.Reg I.r0, I.Abs (region + 35));
      I.Trap 0;
    ]
  in
  let t = Thread.create k ~entry:(load_program b prog) ~segments:[ (region, 64) ] () in
  ignore t;
  (match Boot.go ~max_insns:10_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  check_int "open returned fd 0" 0 (Machine.peek m (region + 32));
  check_int "read /dev/null = EOF" 0 (Machine.peek m (region + 33));
  check_int "write /dev/null = count" 7 (Machine.peek m (region + 34));
  check_int "close ok" 0 (Machine.peek m (region + 35))

let test_file_read_write () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let content = Array.init 100 (fun i -> i * 3) in
  let _file = Fs.create_file b.Boot.vfs ~name:"/data/test" ~content () in
  let region = user_region b 256 in
  poke_string m region "/data/test";
  let buf = region + 128 in
  let prog =
    [
      I.Move (I.Imm region, I.Reg I.r1);
      I.Trap 3; (* open *)
      I.Move (I.Reg I.r0, I.Reg I.r13); (* keep fd in a preserved reg *)
      (* read 64 words *)
      I.Move (I.Reg I.r13, I.Reg I.r1);
      I.Move (I.Imm buf, I.Reg I.r2);
      I.Move (I.Imm 64, I.Reg I.r3);
      I.Trap 1;
      I.Move (I.Reg I.r0, I.Abs (region + 32));
      (* read the remaining 36 + attempt 64 -> clamped *)
      I.Move (I.Reg I.r13, I.Reg I.r1);
      I.Move (I.Imm (buf + 64), I.Reg I.r2);
      I.Move (I.Imm 64, I.Reg I.r3);
      I.Trap 1;
      I.Move (I.Reg I.r0, I.Abs (region + 33));
      (* read at EOF -> 0 *)
      I.Move (I.Reg I.r13, I.Reg I.r1);
      I.Move (I.Imm (buf + 100), I.Reg I.r2);
      I.Move (I.Imm 8, I.Reg I.r3);
      I.Trap 1;
      I.Move (I.Reg I.r0, I.Abs (region + 34));
      I.Trap 0;
    ]
  in
  let t = Thread.create k ~entry:(load_program b prog) ~segments:[ (region, 256) ] () in
  ignore t;
  (match Boot.go ~max_insns:10_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  check_int "first read full" 64 (Machine.peek m (region + 32));
  check_int "second read clamped" 36 (Machine.peek m (region + 33));
  check_int "read at EOF" 0 (Machine.peek m (region + 34));
  for i = 0 to 99 do
    if Machine.peek m (buf + i) <> i * 3 then
      Alcotest.failf "content mismatch at %d: %d" i (Machine.peek m (buf + i))
  done

(* The user stack pointer is part of the switched context: values a
   thread pushed on its user stack must survive preemption. *)
let test_usp_preserved_across_switches () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let cell = user_region b 16 in
  let prog =
    [
      I.Push (I.Imm 1234);
      I.Push (I.Imm 5678);
      I.Move (I.Imm 3000, I.Reg I.r9);
      I.Label "spin";
      I.Dbra (I.r9, I.To_label "spin");
      I.Pop I.r10;
      I.Pop I.r11;
      I.Move (I.Reg I.r10, I.Abs cell);
      I.Move (I.Reg I.r11, I.Abs (cell + 1));
      I.Trap 0;
    ]
  in
  let busy =
    [
      I.Push (I.Imm 999);
      I.Move (I.Imm 4000, I.Reg I.r9);
      I.Label "spin";
      I.Dbra (I.r9, I.To_label "spin");
      I.Pop I.r10;
      I.Trap 0;
    ]
  in
  let t1 =
    Thread.create k ~quantum_us:50 ~entry:(load_program b prog)
      ~segments:[ (cell, 16) ] ()
  in
  let t2 = Thread.create k ~quantum_us:50 ~entry:(load_program b busy) () in
  ignore (t1, t2);
  (match Boot.go ~max_insns:10_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  check_int "top of user stack" 5678 (Machine.peek k.Kernel.machine cell);
  check_int "second user stack slot" 1234 (Machine.peek k.Kernel.machine (cell + 1))

(* All 32 descriptors in use: the 33rd open fails cleanly. *)
let test_fd_exhaustion () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let region = user_region b 64 in
  poke_string m region "/dev/null";
  let prog =
    [
      I.Move (I.Imm 31, I.Reg I.r9);
      I.Label "loop";
      I.Move (I.Imm region, I.Reg I.r1);
      I.Trap 3;
      I.Dbra (I.r9, I.To_label "loop");
      I.Move (I.Imm region, I.Reg I.r1);
      I.Trap 3;
      I.Move (I.Reg I.r0, I.Abs (region + 32));
      I.Trap 0;
    ]
  in
  let _t = Thread.create k ~entry:(load_program b prog) ~segments:[ (region, 64) ] () in
  (match Boot.go ~max_insns:50_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  check_int "33rd open fails" (Word.of_int (-1)) (Machine.peek m (region + 32))

(* Threads exiting mid-run leave a consistent ready queue and return
   their kernel memory. *)
let test_exit_cleanup () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let live_before = Kalloc.live_words k.Kernel.alloc in
  let cell = user_region b 16 in
  let live_with_region = Kalloc.live_words k.Kernel.alloc in
  let short = [ I.Alu_mem (I.Add, I.Imm 1, I.Abs cell); I.Trap 0 ] in
  let long =
    [
      I.Move (I.Imm 20_000, I.Reg I.r9);
      I.Label "spin";
      I.Dbra (I.r9, I.To_label "spin");
      I.Alu_mem (I.Add, I.Imm 1, I.Abs (cell + 1));
      I.Trap 0;
    ]
  in
  ignore live_before;
  let t1 =
    Thread.create k ~quantum_us:50 ~entry:(load_program b short)
      ~segments:[ (cell, 16) ] ()
  in
  let t2 =
    Thread.create k ~quantum_us:50 ~entry:(load_program b long)
      ~segments:[ (cell, 16) ] ()
  in
  (match Boot.go ~max_insns:10_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  check_int "short thread ran" 1 (Machine.peek k.Kernel.machine cell);
  check_int "long thread ran to completion" 1 (Machine.peek k.Kernel.machine (cell + 1));
  check_bool "both zombies" true
    (t1.Kernel.state = Kernel.Zombie && t2.Kernel.state = Kernel.Zombie);
  check_bool "ready queue valid" true (Ready_queue.verify k);
  check_int "kernel memory freed" live_with_region (Kalloc.live_words k.Kernel.alloc)

(* Signal a thread blocked inside a kernel operation: delivery chains
   the handler to run when the kernel call completes (Procedure
   Chaining end to end). *)
let test_signal_chained_to_kernel_exit () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let vfs = b.Boot.vfs in
  let cell = user_region b 16 in
  let handler_prog = [ I.Alu_mem (I.Add, I.Imm 1, I.Abs cell); I.Rts ] in
  let handler, _ = Asm.assemble m handler_prog in
  let pipe = Kpipe.create k ~cap:32 () in
  let dst = user_region b 16 in
  let target =
    Thread.create k ~quantum_us:100 ~entry:0 ~segments:[ (cell, 16); (dst, 16) ] ()
  in
  let rfd, _wfd = Kpipe.attach vfs pipe target in
  let tprog =
    [
      I.Move (I.Imm handler, I.Reg I.r1);
      I.Trap 8;
      I.Move (I.Imm rfd, I.Reg I.r1);
      I.Move (I.Imm dst, I.Reg I.r2);
      I.Move (I.Imm 1, I.Reg I.r3);
      I.Trap 1; (* blocks: pipe empty *)
      I.Move (I.Reg I.r0, I.Abs (cell + 1));
      I.Trap 0;
    ]
  in
  let tentry, _ = Asm.assemble m tprog in
  Machine.poke m (target.Kernel.base + Layout.Tte.off_pc) tentry;
  let writer = Thread.create k ~quantum_us:100 ~entry:0 ~segments:[ (dst, 16) ] () in
  let _, wfd2 = Kpipe.attach vfs pipe writer in
  let sprog =
    [
      I.Move (I.Imm 2000, I.Reg I.r9);
      I.Label "wait";
      I.Dbra (I.r9, I.To_label "wait");
      I.Move (I.Imm target.Kernel.tid, I.Reg I.r1);
      I.Trap 6; (* signal the kernel-blocked target *)
      I.Move (I.Imm 1500, I.Reg I.r9);
      I.Label "wait2";
      I.Dbra (I.r9, I.To_label "wait2");
      I.Move (I.Imm wfd2, I.Reg I.r1);
      I.Move (I.Imm dst, I.Reg I.r2);
      I.Move (I.Imm 1, I.Reg I.r3);
      I.Trap 2; (* wake the reader *)
      I.Trap 0;
    ]
  in
  let sentry, _ = Asm.assemble m sprog in
  Machine.poke m (writer.Kernel.base + Layout.Tte.off_pc) sentry;
  (match Boot.go ~max_insns:50_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  check_int "read completed after the signal" 1 (Machine.peek m (cell + 1));
  check_int "handler ran exactly once, after the kernel call" 1 (Machine.peek m cell)

(* Descriptors are per thread: thread B cannot use thread A's fd. *)
let test_fd_isolation_between_threads () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let region = user_region b 64 in
  poke_string m region "/dev/null";
  (* A opens (gets fd 0), then spins until B has tried *)
  let a_prog =
    [
      I.Move (I.Imm region, I.Reg I.r1);
      I.Trap 3;
      I.Move (I.Reg I.r0, I.Abs (region + 32));
      I.Label "wait";
      I.Cmp (I.Imm 1, I.Abs (region + 30));
      I.B (I.Ne, I.To_label "wait");
      I.Trap 0;
    ]
  in
  (* B reads fd 0 without opening anything: must get -1 *)
  let b_prog =
    [
      I.Move (I.Imm 1500, I.Reg I.r9);
      I.Label "d";
      I.Dbra (I.r9, I.To_label "d");
      I.Move (I.Imm 0, I.Reg I.r1);
      I.Move (I.Imm (region + 40), I.Reg I.r2);
      I.Move (I.Imm 4, I.Reg I.r3);
      I.Trap 1;
      I.Move (I.Reg I.r0, I.Abs (region + 33));
      I.Move (I.Imm 1, I.Abs (region + 30));
      I.Trap 0;
    ]
  in
  let ta =
    Thread.create k ~quantum_us:100 ~entry:(load_program b a_prog)
      ~segments:[ (region, 64) ] ()
  in
  let tb =
    Thread.create k ~quantum_us:100 ~entry:(load_program b b_prog)
      ~segments:[ (region, 64) ] ()
  in
  ignore (ta, tb);
  (match Boot.go ~max_insns:50_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "fd isolation test stuck");
  check_int "A got fd 0" 0 (Machine.peek m (region + 32));
  check_int "B's fd 0 is invalid" (Word.of_int (-1)) (Machine.peek m (region + 33))

let () =
  Alcotest.run "kernel"
    [
      ( "boot",
        [
          Alcotest.test_case "boot creates idle" `Quick test_boot_idle;
          Alcotest.test_case "single thread runs and exits" `Quick test_single_thread_runs;
          Alcotest.test_case "two threads interleave" `Quick test_two_threads_interleave;
          Alcotest.test_case "removing the anchor re-homes it" `Quick
            test_remove_anchor_rehomes;
          Alcotest.test_case "removing the last worker restores idle" `Quick
            test_remove_last_worker_restores_idle;
          Alcotest.test_case "context switch preserves registers" `Quick
            test_context_switch_preserves_registers;
        ] );
      ( "io",
        [
          Alcotest.test_case "open/read/write/close /dev/null" `Quick test_open_null;
          Alcotest.test_case "file read with clamp and EOF" `Quick test_file_read_write;
          Alcotest.test_case "fd exhaustion" `Quick test_fd_exhaustion;
          Alcotest.test_case "fds are per thread" `Quick
            test_fd_isolation_between_threads;
        ] );
      ( "context",
        [
          Alcotest.test_case "user stack survives preemption" `Quick
            test_usp_preserved_across_switches;
          Alcotest.test_case "exit cleans up" `Quick test_exit_cleanup;
          Alcotest.test_case "signal chained past a kernel call" `Quick
            test_signal_chained_to_kernel_exit;
        ] );
    ]
