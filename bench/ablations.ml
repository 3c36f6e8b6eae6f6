(* Ablations of the design choices DESIGN.md calls out:

   - synthesized vs generic kernel path for the same operation (the
     heart of kernel code synthesis);
   - lazy-FP context switch vs always-saving FP state;
   - buffered A/D queue (8 words/element) vs a plain per-interrupt
     queue insert;
   - fine-grain adaptive quanta vs fixed round-robin, judged by A/D
     queue overruns under load. *)

open Quamachine
open Synthesis
module I = Insn
module U = Unix_emulator.Unix_abi

(* ------------------------------------------------------------ *)
(* Specialized vs generic read path, per 1 KiB call. *)

let ablation_synthesis () =
  Repro_harness.Harness.header "Ablation: synthesized vs generic read path (us per 1 KiB read)";
  (* Synthesis: native read through the synthesized routine *)
  let se = Repro_harness.Harness.synthesis_setup () in
  let stamps = se.Repro_harness.Harness.s_stamps in
  let mark = Repro_harness.Harness.Stamps.mark stamps in
  let env = se.Repro_harness.Harness.s_env in
  let program =
    [
      I.Move (I.Imm env.Repro_harness.Programs.e_name_file, I.Reg I.r1);
      I.Trap 3;
      I.Move (I.Reg I.r0, I.Reg I.r13);
      mark;
      I.Move (I.Reg I.r13, I.Reg I.r1);
      I.Move (I.Imm env.Repro_harness.Programs.e_buf, I.Reg I.r2);
      I.Move (I.Imm 256, I.Reg I.r3);
      I.Trap 1;
      mark;
      I.Move (I.Imm U.sys_exit, I.Reg I.r0);
      I.Trap U.trap;
    ]
  in
  ignore (Repro_harness.Harness.synthesis_run se ~program);
  let syn_us = match Repro_harness.Harness.Stamps.spans stamps with s :: _ -> s | [] -> nan in
  (* Baseline: the generic vnode path *)
  let be = Repro_harness.Harness.baseline_setup () in
  let benv = be.Repro_harness.Harness.b_env in
  (* measure one read by differencing two runs: N and N+1 reads *)
  let mk n =
    [
      I.Move (I.Imm U.sys_open, I.Reg I.r0);
      I.Move (I.Imm benv.Repro_harness.Programs.e_name_file, I.Reg I.r1);
      I.Trap U.trap;
      I.Move (I.Reg I.r0, I.Reg I.r13);
      I.Move (I.Imm (n - 1), I.Reg I.r12);
      I.Label "loop";
      I.Move (I.Imm U.sys_lseek, I.Reg I.r0);
      I.Move (I.Reg I.r13, I.Reg I.r1);
      I.Move (I.Imm 0, I.Reg I.r2);
      I.Trap U.trap;
      I.Move (I.Imm U.sys_read, I.Reg I.r0);
      I.Move (I.Reg I.r13, I.Reg I.r1);
      I.Move (I.Imm benv.Repro_harness.Programs.e_buf, I.Reg I.r2);
      I.Move (I.Imm 256, I.Reg I.r3);
      I.Trap U.trap;
      I.Dbra (I.r12, I.To_label "loop");
      I.Move (I.Imm U.sys_exit, I.Reg I.r0);
      I.Trap U.trap;
    ]
  in
  let t1 = Repro_harness.Harness.baseline_run be ~program:(mk 1) in
  let be2 = Repro_harness.Harness.baseline_setup () in
  let t101 = Repro_harness.Harness.baseline_run be2 ~program:(mk 101) in
  let base_us = (t101 -. t1) /. 100.0 *. 1_000_000.0 in
  Fmt.pr "synthesized read: %.1f us;  generic (vnode) read+seek: %.1f us;  factor %.1fx@."
    syn_us base_us (base_us /. syn_us)

(* ------------------------------------------------------------ *)
(* Lazy-FP: measured switch costs and the resynthesis trigger. *)

let ablation_fp () =
  Repro_harness.Harness.header "Ablation: lazy-FP context switch";
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  (* a thread that touches FP mid-run: triggers the resynthesis trap *)
  let prog =
    [
      I.Move (I.Imm 1000, I.Reg I.r9);
      I.Label "spin";
      I.Dbra (I.r9, I.To_label "spin");
      I.Fmove_imm (1.5, 0); (* first FP instruction *)
      I.Fop (I.Fadd, 0, 0);
      I.Trap 0;
    ]
  in
  let entry, _ = Asm.assemble m prog in
  Machine.set_fp_enabled m false;
  let t = Thread.create k ~entry () in
  let before = t.Kernel.sw_out in
  (match Boot.go ~max_insns:10_000_000 b with _ -> ());
  let resynthesized = t.Kernel.sw_out <> before in
  Fmt.pr
    "first FP instruction trapped and resynthesized the switch code: %b@.\
     (switch timings with/without FP are in Table 4: the FP save/restore@.\
     roughly doubles the switch, so threads that never touch FP never pay)@."
    resynthesized

(* ------------------------------------------------------------ *)
(* Buffered queue: per-interrupt cost at blocking factor 8 vs 1. *)

let measure_ad_cost ~factor =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let adq = Interrupt.install_adq k ~factor ~n_elems:32 () in
  let busy, _ =
    Ksynth.install k ~name:"bench/busy"
      [ I.Label "s"; I.B (I.Always, I.To_label "s") ]
  in
  let _t = Thread.create k ~quantum_us:100_000 ~entry:busy () in
  Boot.enter_scheduler k;
  ignore (Repro_harness.Harness.run_until_user m ~max_insns:1_000_000);
  Devices.Ad.set_rate k.Kernel.ad 44_100;
  (* run for 64 samples and average the interrupt cost: total time in
     supervisor attributable to A/D = delta across the window minus
     user-mode work is hard to split, so instead measure each stage *)
  let total = ref 0.0 in
  let samples = 64 in
  for _ = 1 to samples do
    let in_stage () = Array.exists (fun s -> Machine.get_pc m = s) adq.Interrupt.adq_stages in
    if not (Repro_harness.Harness.run_until m ~max_insns:10_000_000 in_stage) then
      failwith "ad: no interrupt";
    let s0 = Machine.snapshot m in
    if not (Repro_harness.Harness.run_until_user m ~max_insns:100_000) then failwith "ad: stuck";
    total := !total +. Machine.stats_us m (Machine.delta m s0)
  done;
  !total /. float_of_int samples

let ablation_buffered () =
  Repro_harness.Harness.header
    "Ablation: buffered A/D queue, blocking factor 8 vs 1";
  let buffered = measure_ad_cost ~factor:8 in
  let plain = measure_ad_cost ~factor:1 in
  Fmt.pr
    "average A/D interrupt cost: %.2f us at factor 8, %.2f us at factor 1@.\
     (mid-element interrupts are a ~5-instruction store; the element@.\
     bookkeeping amortizes over the blocking factor — at 44,100@.\
     interrupts/s the plain queue pays it every sample)@."
    buffered plain

(* ------------------------------------------------------------ *)
(* Fine-grain scheduling: adaptive quanta react to I/O rate. *)

let ablation_sched () =
  Repro_harness.Harness.header "Ablation: fine-grain scheduling (adaptive quanta)";
  let run ~adaptive =
    let b = Boot.boot () in
    let k = b.Boot.kernel in
    let m = k.Kernel.machine in
    if adaptive then Scheduler.install k ();
    (* an I/O-bound thread (gauge ticks every loop) and a compute hog *)
    let io_prog tte_gauge =
      [
        I.Move (I.Imm 60_000, I.Reg I.r9);
        I.Label "loop";
        I.Alu_mem (I.Add, I.Imm 1, I.Abs tte_gauge);
        I.Dbra (I.r9, I.To_label "loop");
        I.Trap 0;
      ]
    in
    let hog_prog =
      [
        I.Move (I.Imm 400_000, I.Reg I.r9);
        I.Label "loop";
        I.Dbra (I.r9, I.To_label "loop");
        I.Trap 0;
      ]
    in
    let hog_entry, _ = Asm.assemble m hog_prog in
    let hog = Thread.create k ~quantum_us:200 ~entry:hog_entry () in
    (* the I/O thread's gauge address is known only after creation:
       create with a placeholder entry, then load its real program *)
    let io = Thread.create k ~quantum_us:200 ~entry:0 () in
    let gauge = io.Kernel.base + Layout.Tte.off_gauge in
    let entry, _ = Asm.assemble m (io_prog gauge) in
    Machine.poke m (io.Kernel.base + Layout.Tte.off_pc) entry;
    (* the io program writes its own TTE gauge: allow it *)
    let segs = Machine.map_segments m ~id:io.Kernel.map_id in
    Machine.define_map m ~id:io.Kernel.map_id ((gauge, 1) :: segs);
    let s0 = Machine.snapshot m in
    (match Boot.go ~max_insns:100_000_000 b with _ -> ());
    ignore hog;
    let dt = Machine.stats_us m (Machine.delta m s0) in
    (dt, io.Kernel.quantum_us, hog.Kernel.quantum_us)
  in
  let fixed_dt, _, _ = run ~adaptive:false in
  let adapt_dt, io_q, hog_q = run ~adaptive:true in
  Fmt.pr
    "fixed quanta: both threads 200 us; total run %.0f us@.\
     adaptive:     I/O thread quantum -> %d us, hog -> %d us; total run %.0f us@.\
     (the I/O-rate gauge drives the quantum, %s4.4)@."
    fixed_dt io_q hog_q adapt_dt "\xc2\xa7"

(* ------------------------------------------------------------ *)
(* Peephole optimizer: its effect on generated code size and on the
   hot read path. *)

let ablation_peephole () =
  Repro_harness.Harness.header "Ablation: peephole optimizer on synthesized code";
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  (* compare raw template output with optimized output over every
     open-time template instantiated for a file *)
  let _file =
    Fs.create_file b.Boot.vfs ~name:"/data/x" ~content:(Array.make 64 1) ()
  in
  let spin, _ =
    Ksynth.install k ~name:"ab/spin" [ I.Label "s"; I.B (I.Always, I.To_label "s") ]
  in
  let t = Thread.create k ~entry:spin () in
  (match Vfs.open_named b.Boot.vfs t "/data/x" with
  | Some _ -> ()
  | None -> failwith "open failed");
  (* measure raw-vs-optimized across the registered templates *)
  let templates =
    [
      ("file read",
       Fs.file_read_template ~buf:0x2000 ~size_cell:0x3000 ~pos_cell:0x3001
         ~gauge:0x3002);
      ("file write",
       Fs.file_write_template ~buf:0x2000 ~cap:4096 ~size_cell:0x3000
         ~pos_cell:0x3001 ~gauge:0x3002);
      ("mpsc put",
       Kqueue.mpsc_put_template ~head:0x3100 ~tail:0x3101 ~buf:0x3200 ~flag:0x3300
         ~size:16);
    ]
  in
  Fmt.pr "%-14s %10s %12s@." "template" "raw insns" "after peephole";
  List.iter
    (fun (name, tmpl) ->
      let raw = Template.instantiate tmpl in
      let opt = Peephole.optimize raw in
      Fmt.pr "%-14s %10d %12d@." name (Asm.length raw) (Asm.length opt))
    templates;
  Fmt.pr
    "(the hot templates are hand-minimal, so counts hold steady; where@.a generator writes naturally, the optimizer rewrites - multiply by@.the blocking factor becomes a shift, folded constants collapse:)@.";
  let naive =
    [
      I.Move (I.Abs 0x3400, I.Reg I.r1);
      I.Alu (I.Mul, I.Imm Interrupt.blocking_factor, I.r1); (* index * 8 *)
      I.Move (I.Imm 0x2000, I.Reg I.r4); (* base *)
      I.Alu (I.Add, I.Imm 0x40, I.r4); (* + element offset *)
      I.Alu (I.Add, I.Reg I.r4, I.r1);
      I.Move (I.Ind I.r1, I.Reg I.r0);
      I.Rts;
    ]
  in
  Fmt.pr "before:@.%a@.after:@.%a@." Asm.pp_listing naive Asm.pp_listing
    (Peephole.optimize naive)

(* ------------------------------------------------------------ *)
(* Clock scaling: §6.3 notes that at the native 50 MHz the same code
   runs about three times faster than in SUN-emulation mode. *)

let ablation_clock () =
  Repro_harness.Harness.header "Clock scaling: SUN 3/160 emulation vs native 50 MHz";
  let measure cost =
    let se = Repro_harness.Harness.synthesis_setup ~cost () in
    let env = se.Repro_harness.Harness.s_env in
    let program = Repro_harness.Programs.pipe_rw env ~chunk:256 ~iters:200 in
    Repro_harness.Harness.synthesis_run se ~program *. 1000.0
  in
  let emu = measure Cost.sun3_emulation in
  let native = measure Cost.native in
  Fmt.pr "200 x 1KiB pipe write+read: %.2f ms emulated, %.2f ms native (%.1fx; paper: ~3x)@."
    emu native (emu /. native)

(* ------------------------------------------------------------ *)
(* Collapsing Layers (§2.2, §5.4): the same filter operation invoked
   through three compositions — a collapsed procedure call, an
   optimistic queue drained by the same thread, and a pipe into
   another thread.  Each layer reintroduced costs real microseconds. *)

let ablation_collapse () =
  Repro_harness.Harness.header
    "Ablation: Collapsing Layers (us per item through the same filter)";
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let n = 512 in
  (* the filter: negate the item in r1 *)
  let filter, _ =
    Ksynth.install k ~name:"col/filter" [ I.Neg I.r1; I.Rts ]
  in
  (* an active producer calling a passive filter: §5.2 collapses the
     connection to a jump straight to the filter *)
  let direct_call, _ =
    Ksynth.install k ~name:"col/direct/call" [ I.Jmp (I.To_addr filter) ]
  in
  let q = Kqueue.create ~kind:Kqueue.Spsc k ~name:"col/q" ~size:64 in
  let measure frag =
    let entry, _ = Asm.assemble m frag in
    Machine.set_halted m false;
    Machine.set_supervisor m true;
    Machine.set_reg m I.sp 0xE00;
    Machine.set_pc m entry;
    let s0 = Machine.snapshot m in
    (match Machine.run ~max_insns:10_000_000 m with
    | Machine.Halted -> ()
    | Machine.Insn_limit -> failwith "collapse bench stuck");
    Machine.stats_us m (Machine.delta m s0) /. float_of_int n
  in
  (* collapsed: one Jsr per item *)
  let direct =
    measure
      [
        I.Move (I.Imm (n - 1), I.Reg I.r9);
        I.Label "loop";
        I.Move (I.Reg I.r9, I.Reg I.r1);
        I.Jsr (I.To_addr direct_call);
        I.Dbra (I.r9, I.To_label "loop");
        I.Halt;
      ]
  in
  (* layered, same thread: put into the queue, take it back, filter *)
  let queued =
    measure
      [
        I.Move (I.Imm (n - 1), I.Reg I.r9);
        I.Label "loop";
        I.Move (I.Reg I.r9, I.Reg I.r1);
        I.Jsr (I.To_addr q.Kqueue.q_put);
        I.Jsr (I.To_addr q.Kqueue.q_get);
        I.Jsr (I.To_addr filter);
        I.Dbra (I.r9, I.To_label "loop");
        I.Halt;
      ]
  in
  (* layered, cross-thread: a pipe into a consumer thread *)
  let se = Repro_harness.Harness.synthesis_setup () in
  let env = se.Repro_harness.Harness.s_env in
  let secs =
    Repro_harness.Harness.synthesis_run se
      ~program:(Repro_harness.Programs.pipe_rw env ~chunk:1 ~iters:n)
  in
  let piped = secs *. 1_000_000.0 /. float_of_int n /. 2.0 in
  Fmt.pr "collapsed procedure call: %6.2f us/item@." direct;
  Fmt.pr "optimistic queue (same thread): %6.2f us/item@." queued;
  Fmt.pr "pipe syscall round trip: %6.2f us/item@." piped;
  Fmt.pr "(the boot-time optimization of section 5.4 turns the first form@.";
  Fmt.pr " of the cooked-tty pipeline into exactly this procedure call)@."

let run () =
  ablation_collapse ();
  ablation_synthesis ();
  ablation_fp ();
  ablation_buffered ();
  ablation_sched ();
  ablation_peephole ();
  ablation_clock ()
