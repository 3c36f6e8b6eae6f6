(* Cross-kernel tests: the UNIX emulator on Synthesis, the baseline
   kernel, and the Table 1 integration shapes — the same binaries must
   produce the same results on both kernels, with Synthesis faster on
   every I/O-bound row. *)

open Quamachine
module I = Insn
module U = Unix_emulator.Unix_abi

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A self-checking Unix-ABI program: pipes, files, /dev/null; writes a
   "test passed" bitmap into [flags] through plain stores. *)
let acceptance_program (env : Repro_harness.Programs.env) ~flags =
  let buf = env.Repro_harness.Programs.e_buf in
  List.concat
    [
      (* --- pipe: write 5 words, read them back, compare *)
      [
        I.Move (I.Imm U.sys_pipe, I.Reg I.r0);
        I.Trap U.trap;
        I.Move (I.Reg I.r0, I.Reg I.r13); (* rfd *)
        I.Move (I.Reg I.r1, I.Reg I.r14); (* wfd *)
      ];
      List.concat_map
        (fun i -> [ I.Move (I.Imm (100 + i), I.Abs (buf + i)) ])
        [ 0; 1; 2; 3; 4 ];
      [
        I.Move (I.Imm U.sys_write, I.Reg I.r0);
        I.Move (I.Reg I.r14, I.Reg I.r1);
        I.Move (I.Imm buf, I.Reg I.r2);
        I.Move (I.Imm 5, I.Reg I.r3);
        I.Trap U.trap;
        I.Move (I.Reg I.r0, I.Abs (flags + 0)); (* = 5 *)
        I.Move (I.Imm U.sys_read, I.Reg I.r0);
        I.Move (I.Reg I.r13, I.Reg I.r1);
        I.Move (I.Imm (buf + 16), I.Reg I.r2);
        I.Move (I.Imm 5, I.Reg I.r3);
        I.Trap U.trap;
        I.Move (I.Reg I.r0, I.Abs (flags + 1)); (* = 5 *)
        I.Move (I.Abs (buf + 18), I.Abs (flags + 2)); (* = 102 *)
      ];
      (* --- file: open, write 3, rewind, read 3 back *)
      [
        I.Move (I.Imm U.sys_open, I.Reg I.r0);
        I.Move (I.Imm env.Repro_harness.Programs.e_name_file, I.Reg I.r1);
        I.Trap U.trap;
        I.Move (I.Reg I.r0, I.Reg I.r13);
        I.Move (I.Imm 777, I.Abs (buf + 30));
        I.Move (I.Imm U.sys_lseek, I.Reg I.r0);
        I.Move (I.Reg I.r13, I.Reg I.r1);
        I.Move (I.Imm 0, I.Reg I.r2);
        I.Trap U.trap;
        I.Move (I.Imm U.sys_write, I.Reg I.r0);
        I.Move (I.Reg I.r13, I.Reg I.r1);
        I.Move (I.Imm (buf + 30), I.Reg I.r2);
        I.Move (I.Imm 1, I.Reg I.r3);
        I.Trap U.trap;
        I.Move (I.Imm U.sys_lseek, I.Reg I.r0);
        I.Move (I.Reg I.r13, I.Reg I.r1);
        I.Move (I.Imm 0, I.Reg I.r2);
        I.Trap U.trap;
        I.Move (I.Imm U.sys_read, I.Reg I.r0);
        I.Move (I.Reg I.r13, I.Reg I.r1);
        I.Move (I.Imm (buf + 40), I.Reg I.r2);
        I.Move (I.Imm 1, I.Reg I.r3);
        I.Trap U.trap;
        I.Move (I.Abs (buf + 40), I.Abs (flags + 3)); (* = 777 *)
        I.Move (I.Imm U.sys_close, I.Reg I.r0);
        I.Move (I.Reg I.r13, I.Reg I.r1);
        I.Trap U.trap;
      ];
      (* --- /dev/null: open, read gives EOF, write swallows *)
      [
        I.Move (I.Imm U.sys_open, I.Reg I.r0);
        I.Move (I.Imm env.Repro_harness.Programs.e_name_null, I.Reg I.r1);
        I.Trap U.trap;
        I.Move (I.Reg I.r0, I.Reg I.r13);
        I.Move (I.Imm U.sys_read, I.Reg I.r0);
        I.Move (I.Reg I.r13, I.Reg I.r1);
        I.Move (I.Imm buf, I.Reg I.r2);
        I.Move (I.Imm 4, I.Reg I.r3);
        I.Trap U.trap;
        I.Move (I.Reg I.r0, I.Abs (flags + 4)); (* = 0 *)
        I.Move (I.Imm U.sys_write, I.Reg I.r0);
        I.Move (I.Reg I.r13, I.Reg I.r1);
        I.Move (I.Imm buf, I.Reg I.r2);
        I.Move (I.Imm 4, I.Reg I.r3);
        I.Trap U.trap;
        I.Move (I.Reg I.r0, I.Abs (flags + 5)); (* = 4 *)
        I.Move (I.Imm U.sys_close, I.Reg I.r0);
        I.Move (I.Reg I.r13, I.Reg I.r1);
        I.Trap U.trap;
        (* unknown syscall returns -1 *)
        I.Move (I.Imm 63, I.Reg I.r0);
        I.Trap U.trap;
        I.Move (I.Reg I.r0, I.Abs (flags + 6)); (* = -1 *)
        (* time is monotone non-negative on both kernels *)
        I.Move (I.Imm U.sys_time, I.Reg I.r0);
        I.Trap U.trap;
        I.Tst (I.Reg I.r0);
        I.B (I.Mi, I.To_label "badtime");
        I.Move (I.Imm 1, I.Abs (flags + 7)); (* = 1 *)
        I.B (I.Always, I.To_label "timedone");
        I.Label "badtime";
        I.Move (I.Imm 0, I.Abs (flags + 7));
        I.Label "timedone";
      ];
      [ I.Move (I.Imm U.sys_exit, I.Reg I.r0); I.Trap U.trap ];
    ]

let expected = [ 5; 5; 102; 777; 0; 4; Word.of_int (-1); 1 ]

let check_flags peek flags =
  List.iteri (fun i exp -> check_int (Fmt.str "flag %d" i) exp (peek (flags + i))) expected

let test_acceptance_on_synthesis () =
  let se = Repro_harness.Harness.synthesis_setup () in
  let k = se.Repro_harness.Harness.s_boot.Synthesis.Boot.kernel in
  let flags = se.Repro_harness.Harness.s_env.Repro_harness.Programs.e_data + 900 in
  let program = acceptance_program se.Repro_harness.Harness.s_env ~flags in
  ignore (Repro_harness.Harness.synthesis_run se ~program);
  check_flags (Machine.peek k.Synthesis.Kernel.machine) flags

let test_acceptance_on_baseline () =
  let be = Repro_harness.Harness.baseline_setup () in
  let flags = be.Repro_harness.Harness.b_env.Repro_harness.Programs.e_data + 900 in
  let program = acceptance_program be.Repro_harness.Harness.b_env ~flags in
  ignore (Repro_harness.Harness.baseline_run be ~program);
  check_flags (Machine.peek be.Repro_harness.Harness.b_kernel.Baseline.machine) flags

(* ------------------------------------------------------------------ *)
(* kheal differential: corrupt synthesized code regions, let the audit
   repair them by resynthesis, then run the shared workloads — the
   repaired kernel must produce exactly the outputs of an untouched
   one (and of the baseline kernel for the shared-binary program). *)

(* Corrupt one instruction in each of [n] registered regions (never
   the fault handlers: a corrupted illegal handler can't repair
   itself).  Returns how many were corrupted. *)
let corrupt_regions k n =
  let fault_handler r =
    let name = r.Synthesis.Kernel.sp_name in
    String.length name >= 6 && String.sub name 0 6 = "fault/"
  in
  let victims =
    List.filteri
      (fun i _ -> i < n)
      (List.filter (fun r -> not (fault_handler r)) (Synthesis.Kernel.pages k))
  in
  List.iter
    (fun r ->
      Fault_inject.corrupt_code k.Synthesis.Kernel.machine
        ~addr:(r.Synthesis.Kernel.sp_entry + (r.Synthesis.Kernel.sp_len / 2))
        ~bit:7)
    victims;
  List.length victims

let test_repair_then_acceptance () =
  let se = Repro_harness.Harness.synthesis_setup () in
  let k = se.Repro_harness.Harness.s_boot.Synthesis.Boot.kernel in
  let n = corrupt_regions k 6 in
  check_int "six regions corrupted" 6 n;
  check_int "audit repaired them all" n (Synthesis.Kernel.audit_code k);
  check_int "repairs counted" n
    (Synthesis.Metrics.read k.Synthesis.Kernel.metrics "kernel.code_repairs_total");
  check_int "nothing left to repair" 0 (Synthesis.Kernel.audit_code k);
  (* the repaired kernel runs the shared acceptance binary and yields
     exactly the outputs the baseline kernel yields *)
  let flags = se.Repro_harness.Harness.s_env.Repro_harness.Programs.e_data + 900 in
  let program = acceptance_program se.Repro_harness.Harness.s_env ~flags in
  ignore (Repro_harness.Harness.synthesis_run se ~program);
  check_flags (Machine.peek k.Synthesis.Kernel.machine) flags

let test_repair_then_pipeline () =
  let open Synthesis in
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let p = Repro_harness.Harness.Pipeline.build ~total:512 b in
  (* corrupt every regenerable region the pipeline owns — switch code,
     pipe code, queue templates — and repair before running *)
  let n = corrupt_regions k 1000 in
  check_bool "many regions corrupted" true (n > 10);
  check_int "audit repaired them all" n (Kernel.audit_code k);
  (* Pipeline.run verifies the consumer's exact checksum: identical
     data delivery through the repaired pipe *)
  Repro_harness.Harness.Pipeline.run p;
  let m = k.Kernel.machine in
  check_int "exact sum through repaired code" (512 * 513 / 2)
    (Machine.peek m p.Repro_harness.Harness.Pipeline.pl_result);
  check_int "post-run audit finds nothing" 0 (Kernel.audit_code k)

(* ------------------------------------------------------------------ *)
(* Table 1 shapes, scaled down: Synthesis must win every I/O row and
   tie (within 20%) the compute calibration row. *)

let test_table1_shapes () =
  let iters = 200 in
  let run build =
    let be = Repro_harness.Harness.baseline_setup () in
    let sun = Repro_harness.Harness.baseline_run be ~program:(build be.Repro_harness.Harness.b_env) in
    let se = Repro_harness.Harness.synthesis_setup () in
    let syn = Repro_harness.Harness.synthesis_run se ~program:(build se.Repro_harness.Harness.s_env) in
    (sun, syn)
  in
  (* calibration: compute-bound, must be within 20% *)
  let sun, syn = run (fun env -> Repro_harness.Programs.compute ~arr:env.Repro_harness.Programs.e_arr ~n:2000) in
  check_bool "compute parity" true (syn /. sun < 1.2 && syn /. sun > 0.8);
  (* single-word pipe: Synthesis several times faster *)
  let sun, syn = run (fun env -> Repro_harness.Programs.pipe_rw env ~chunk:1 ~iters) in
  check_bool "1-word pipe >= 3x" true (sun /. syn >= 3.0);
  (* 1 KiB pipe: still faster, smaller factor than 1-word *)
  let sun1k, syn1k = run (fun env -> Repro_harness.Programs.pipe_rw env ~chunk:256 ~iters) in
  check_bool "1KiB pipe faster" true (sun1k /. syn1k >= 1.5);
  check_bool "factor shrinks with chunk size" true (sun /. syn > sun1k /. syn1k);
  (* open/close: the code-synthesis win *)
  let sun, syn =
    run (fun env -> Repro_harness.Programs.open_close ~name_addr:env.Repro_harness.Programs.e_name_null ~iters)
  in
  check_bool "open/close >= 4x" true (sun /. syn >= 4.0)

(* ------------------------------------------------------------------ *)
(* Emulation overhead: the entry's bounds check and two table jumps
   cost about the paper's 2 us *)

let test_emulation_overhead_small () =
  let se = Repro_harness.Harness.synthesis_setup () in
  let stamps = se.Repro_harness.Harness.s_stamps in
  let mark = Repro_harness.Harness.Stamps.mark stamps in
  let env = se.Repro_harness.Harness.s_env in
  let program =
    [
      (* warm-up open/close so both measured opens hit the synthesis
         cache: this isolates the emulator's trap overhead from the
         one-time synthesis cost *)
      I.Move (I.Imm env.Repro_harness.Programs.e_name_null, I.Reg I.r1);
      I.Trap 3;
      I.Move (I.Reg I.r0, I.Reg I.r1);
      I.Trap 4;
      (* native open, then the same through the emulator *)
      mark;
      I.Move (I.Imm env.Repro_harness.Programs.e_name_null, I.Reg I.r1);
      I.Trap 3;
      mark;
      I.Move (I.Reg I.r0, I.Reg I.r1);
      I.Trap 4;
      I.Move (I.Imm U.sys_open, I.Reg I.r0);
      I.Move (I.Imm env.Repro_harness.Programs.e_name_null, I.Reg I.r1);
      mark;
      I.Trap U.trap;
      mark;
      I.Move (I.Imm U.sys_exit, I.Reg I.r0);
      I.Trap U.trap;
    ]
  in
  ignore (Repro_harness.Harness.synthesis_run se ~program);
  match Repro_harness.Harness.Stamps.spans stamps with
  | [ native; _mid; emulated ] ->
    let overhead = emulated -. native in
    check_bool "emulation overhead positive" true (overhead > 0.0);
    check_bool "emulation overhead < 2.5us" true (overhead < 2.5)
  | spans -> Alcotest.failf "unexpected spans: %d" (List.length spans)

(* ------------------------------------------------------------------ *)
(* The emulator forwards a call by jumping through the handler the
   executing thread's vector table holds for the native trap, read at
   call time through the per-core current-TTE window. *)

module S = Synthesis

let boot_with_emulator ?cores () =
  let b = S.Boot.boot ?cores () in
  ignore (Unix_emulator.Emulator.install b.S.Boot.vfs);
  b

let go b =
  match S.Boot.go ~max_insns:20_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt"

(* a native read handler that answers [v] instead of dispatching *)
let const_handler m v = fst (Asm.assemble m [ I.Move (I.Imm v, I.Reg I.r0); I.Rte ])

(* read(2) of an out-of-range fd: the native dispatcher answers -1 *)
let unix_read =
  [ I.Move (I.Imm U.sys_read, I.Reg I.r0); I.Move (I.Imm 99, I.Reg I.r1); I.Trap U.trap ]
let unix_exit = [ I.Move (I.Imm U.sys_exit, I.Reg I.r0); I.Trap U.trap ]

let test_emulator_follows_vector_rewrite () =
  let b = boot_with_emulator () in
  let k = b.S.Boot.kernel in
  let m = k.S.Kernel.machine in
  let cells = S.Kalloc.alloc_zeroed k.S.Kernel.alloc 8 in
  let rewritten = ref None in
  (* rewrite the calling thread's trap-1 vector between its two reads *)
  let rewrite =
    Machine.register_hcall m (fun _ ->
        match !rewritten with
        | Some t -> S.Kernel.set_vector k t (I.Vector.trap 1) (const_handler m 4242)
        | None -> ())
  in
  let prog first =
    List.concat
      [
        unix_read;
        [ I.Move (I.Reg I.r0, I.Abs first); I.Hcall rewrite ];
        unix_read;
        [ I.Move (I.Reg I.r0, I.Abs (first + 1)) ];
        unix_exit;
      ]
  in
  let create first =
    let entry, _ = Asm.assemble m (prog first) in
    S.Thread.create k ~entry ~segments:[ (cells, 8) ] ()
  in
  let a = create cells in
  let _other = create (cells + 2) in
  rewritten := Some a;
  go b;
  let minus1 = Word.of_int (-1) in
  check_int "first read: native dispatcher" minus1 (Machine.peek m cells);
  check_int "second read: the rewritten handler" 4242 (Machine.peek m (cells + 1));
  check_int "other thread: its own dispatcher" minus1 (Machine.peek m (cells + 2));
  check_int "other thread, again" minus1 (Machine.peek m (cells + 3))

(* Two cores: each thread's calls must reach its own vectors (and
   getpid its own tid), not those of whatever runs on core 0. *)
let test_emulator_per_core () =
  let b = boot_with_emulator ~cores:2 () in
  let k = b.S.Boot.kernel in
  let m = k.S.Kernel.machine in
  let cells = S.Kalloc.alloc_zeroed k.S.Kernel.alloc 8 in
  let iters = 300 in
  let prog sum pid =
    List.concat
      [
        [ I.Move (I.Imm (iters - 1), I.Reg I.r9); I.Label "loop" ];
        unix_read;
        [ I.Alu_mem (I.Add, I.Reg I.r0, I.Abs sum); I.Dbra (I.r9, I.To_label "loop") ];
        [ I.Move (I.Imm U.sys_getpid, I.Reg I.r0); I.Trap U.trap ];
        [ I.Move (I.Reg I.r0, I.Abs pid) ];
        unix_exit;
      ]
  in
  let create cpu v =
    let entry, _ = Asm.assemble m (prog (cells + cpu) (cells + 2 + cpu)) in
    let t = S.Thread.create k ~cpu ~entry ~segments:[ (cells, 8) ] () in
    S.Kernel.set_vector k t (I.Vector.trap 1) (const_handler m v);
    t
  in
  let t0 = create 0 10 and t1 = create 1 1000 in
  go b;
  check_int "core 0's reads reached its handler" (iters * 10) (Machine.peek m cells);
  check_int "core 1's reads reached its handler" (iters * 1000) (Machine.peek m (cells + 1));
  check_int "core 0's getpid" t0.S.Kernel.tid (Machine.peek m (cells + 2));
  check_int "core 1's getpid" t1.S.Kernel.tid (Machine.peek m (cells + 3));
  check_bool "core 1 ran" true (Machine.core_insns m 1 > iters)

(* An emulated call returns to the program exactly as the native trap
   does: the same r0-r3, status register and user stack pointer. *)
let test_emulator_matches_native_frame () =
  let se = Repro_harness.Harness.synthesis_setup () in
  let m = se.Repro_harness.Harness.s_boot.S.Boot.kernel.S.Kernel.machine in
  let env = se.Repro_harness.Harness.s_env in
  let buf = env.Repro_harness.Programs.e_buf in
  let snaps = ref [] in
  let snap =
    Machine.register_hcall m (fun mm ->
        let regs = List.map (Machine.get_reg mm) [ I.r0; I.r1; I.r2; I.r3; I.sp ] in
        snaps := (regs @ [ Machine.pack_sr mm ]) :: !snaps)
  in
  (* the same call, natively and through the emulator ([between]
     restores what the native call changed); r13 holds the /dev/null
     fd, and N and C are set going in *)
  let call ?(between = []) ~native ~sys r1 r2 r3 =
    let once trap =
      [
        I.Move (r1, I.Reg I.r1);
        I.Move (I.Imm r2, I.Reg I.r2);
        I.Move (I.Imm r3, I.Reg I.r3);
        I.Move (I.Imm sys, I.Reg I.r0);
        I.Move (I.Imm 0, I.Reg I.r5);
        I.Cmp (I.Imm 1, I.Reg I.r5);
        I.Trap trap;
        I.Hcall snap;
      ]
    in
    once native @ between @ once U.trap
  in
  let null = I.Imm env.Repro_harness.Programs.e_name_null and fd = I.Reg I.r13 in
  (* the lowest free fd is reused, so both opens return the same one *)
  let close_r0 = [ I.Move (I.Reg I.r0, I.Reg I.r1); I.Trap 4 ] in
  let reopen = [ I.Move (null, I.Reg I.r1); I.Trap 3 ] in
  let program =
    List.concat
      [
        call ~native:3 ~sys:U.sys_open null 0 0 ~between:close_r0;
        [ I.Move (I.Reg I.r0, I.Reg I.r13) ];
        call ~native:1 ~sys:U.sys_read fd buf 4;
        call ~native:2 ~sys:U.sys_write fd buf 4;
        call ~native:12 ~sys:U.sys_lseek fd 0 0;
        call ~native:1 ~sys:U.sys_read (I.Imm 99) buf 4;
        call ~native:4 ~sys:U.sys_close fd 0 0 ~between:reopen;
        unix_exit;
      ]
  in
  ignore (Repro_harness.Harness.synthesis_run se ~program);
  let rec pairs = function
    | emulated :: native :: rest -> (native, emulated) :: pairs rest
    | _ -> []
  in
  let got = pairs !snaps in
  check_int "every call snapshotted" 6 (List.length got);
  List.iter
    (fun (native, emulated) ->
      check_bool "returned in user mode" true
        (List.nth native 5 land (1 lsl 13) = 0);
      Alcotest.(check (list int)) "r0-r3, usp, sr" native emulated)
    got

(* kill(2) of the calling thread: the signal is chained to the
   program's own return address, so the handler runs in user mode as
   it does after a native trap 6. *)
let test_emulated_self_kill () =
  let b = boot_with_emulator () in
  let k = b.S.Boot.kernel in
  let m = k.S.Kernel.machine in
  let cell = S.Kalloc.alloc_zeroed k.S.Kernel.alloc 8 in
  let modes = ref [] in
  let mode = Machine.register_hcall m (fun mm -> modes := Machine.in_supervisor mm :: !modes) in
  let handler, _ =
    Asm.assemble m [ I.Hcall mode; I.Alu_mem (I.Add, I.Imm 1, I.Abs cell); I.Rts ]
  in
  let prog =
    List.concat
      [
        [ I.Move (I.Imm handler, I.Reg I.r1); I.Trap 8 ];
        [ I.Move (I.Imm U.sys_getpid, I.Reg I.r0); I.Trap U.trap ];
        [ I.Move (I.Reg I.r0, I.Reg I.r1); I.Move (I.Imm U.sys_kill, I.Reg I.r0) ];
        [ I.Trap U.trap; I.Move (I.Reg I.r0, I.Abs (cell + 1)) ];
        unix_exit;
      ]
  in
  let entry, _ = Asm.assemble m prog in
  ignore (S.Thread.create k ~entry ~segments:[ (cell, 8) ] ());
  go b;
  check_int "handler ran once" 1 (Machine.peek m cell);
  check_int "kill returned 0" 0 (Machine.peek m (cell + 1));
  Alcotest.(check (list bool)) "handler ran in user mode" [ false ] !modes

let () =
  Alcotest.run "compare"
    [
      ( "acceptance",
        [
          Alcotest.test_case "unix program on synthesis" `Quick
            test_acceptance_on_synthesis;
          Alcotest.test_case "same binary on baseline" `Quick
            test_acceptance_on_baseline;
        ] );
      ( "repair",
        [
          Alcotest.test_case "acceptance after repair cycle" `Quick
            test_repair_then_acceptance;
          Alcotest.test_case "pipeline after repair cycle" `Quick
            test_repair_then_pipeline;
        ] );
      ("table1", [ Alcotest.test_case "speedup shapes" `Slow test_table1_shapes ]);
      ( "emulator",
        [
          Alcotest.test_case "trap overhead is small" `Quick test_emulation_overhead_small;
          Alcotest.test_case "follows a vector rewrite" `Quick
            test_emulator_follows_vector_rewrite;
          Alcotest.test_case "each core's own vectors" `Quick test_emulator_per_core;
          Alcotest.test_case "returns as the native trap" `Quick
            test_emulator_matches_native_frame;
          Alcotest.test_case "self-kill handler in user mode" `Quick
            test_emulated_self_kill;
        ] );
    ]
