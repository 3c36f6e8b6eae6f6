(* Measurement harness: runs the same Unix-ABI programs on the
   Synthesis kernel (through the UNIX emulator) and on the baseline
   kernel, and provides the microsecond instrumentation used by
   Tables 2–5 (the Quamachine's counters and trace, §6.1). *)

open Quamachine
open Synthesis
module I = Insn

(* ---------------------------------------------------------------- *)
(* Timestamps: an Hcall that records the cycle counter — the software
   equivalent of the Quamachine's microsecond interval timer. *)

module Stamps = struct
  type t = Machine.t * int * int list ref

  let create m : t =
    let marks = ref [] in
    let id = Machine.register_hcall m (fun m -> marks := Machine.cycles m :: !marks) in
    (m, id, marks)

  let mark ((_, id, _) : t) = I.Hcall id
  let cycles ((_, _, marks) : t) = List.rev !marks

  (* Intervals between consecutive stamps, in microseconds. *)
  let spans ((m, _, _) as t) =
    let rec pair = function
      | a :: (b :: _ as rest) -> (b - a) :: pair rest
      | _ -> []
    in
    List.map (fun c -> Cost.us_of_cycles (Machine.cost_model m) c) (pair (cycles t))
end

(* ---------------------------------------------------------------- *)
(* Stepping helpers *)

let run_until m ~max_insns pred =
  let rec go n =
    if n >= max_insns then false
    else if Machine.halted m then false
    else if pred () then true
    else begin
      Machine.step m;
      go (n + 1)
    end
  in
  go 0

let run_until_pc m ~max_insns pc =
  run_until m ~max_insns (fun () -> Machine.get_pc m = pc)

let run_until_user m ~max_insns =
  run_until m ~max_insns (fun () -> not (Machine.in_supervisor m))

(* ---------------------------------------------------------------- *)
(* A booted Synthesis instance ready to run Unix-ABI programs. *)

type synthesis_env = {
  s_boot : Boot.t;
  s_env : Programs.env;
  s_stamps : Machine.t * int * int list ref;
}

(* words in the benchmark file /data/bench *)
let file_content = 4096

let synthesis_setup ?(cost = Cost.sun3_emulation) () =
  let b = Boot.boot ~cost () in
  let k = b.Boot.kernel in
  let _tty_srv = Tty.install b.Boot.vfs in
  let _em = Unix_emulator.Emulator.install b.Boot.vfs in
  let content = Array.init file_content (fun i -> i land 0xFF) in
  let _file = Fs.create_file b.Boot.vfs ~name:"/data/bench" ~content () in
  let data = Kalloc.alloc_zeroed k.Kernel.alloc Programs.data_words in
  let env = Programs.layout ~data in
  Programs.populate env ~poke:(fun a v -> Machine.poke k.Kernel.machine a v);
  let stamps = Stamps.create k.Kernel.machine in
  { s_boot = b; s_env = env; s_stamps = stamps }

(* Run a program (built against [s_env]) to completion on Synthesis;
   returns the elapsed simulated seconds. *)
let synthesis_run se ~program =
  let k = se.s_boot.Boot.kernel in
  let m = k.Kernel.machine in
  let entry, _ = Asm.assemble m program in
  let segs = [ (se.s_env.Programs.e_data, Programs.data_words) ] in
  let _t = Thread.create k ~entry ~quantum_us:10_000 ~segments:segs () in
  let s0 = Machine.snapshot m in
  (match Boot.go ~max_insns:2_000_000_000 se.s_boot with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> failwith "synthesis_run: instruction limit");
  (* code_repair entries are recoveries, not deaths: a corrupted
     region was resynthesized and the faulting thread carried on *)
  let fatal e =
    let p = "code_repair/" in
    let r = e.Kernel.f_reason in
    not (String.length r >= String.length p && String.sub r 0 (String.length p) = p)
  in
  (match List.filter fatal k.Kernel.fault_log with
  | [] -> ()
  | { Kernel.f_tid = tid; f_reason = reason; _ } :: _ ->
    failwith (Fmt.str "synthesis_run: thread %d died of %s" tid reason));
  let d = Machine.delta m s0 in
  Machine.stats_us m d /. 1_000_000.0

(* ---------------------------------------------------------------- *)
(* A booted baseline instance. *)

type baseline_env = { b_kernel : Baseline.t; b_env : Programs.env }

let baseline_setup ?(cost = Cost.sun3_emulation) () =
  let bk = Baseline.boot ~cost () in
  let content = Array.init file_content (fun i -> i land 0xFF) in
  ignore (Baseline.create_file bk ~name:"/data/bench" ~content ());
  (* above the baseline kernel's heap, below the top of memory *)
  let data = 0x40000 in
  let env = Programs.layout ~data in
  Programs.populate env ~poke:(fun a v -> Baseline.poke bk a v);
  { b_kernel = bk; b_env = env }

let baseline_run be ~program =
  let bk = be.b_kernel in
  let entry = Baseline.load_program bk program in
  let m = bk.Baseline.machine in
  let s0 = Machine.snapshot m in
  (match Baseline.run ~max_insns:2_000_000_000 bk ~entry with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> failwith "baseline_run: instruction limit");
  let d = Machine.delta m s0 in
  Machine.stats_us m d /. 1_000_000.0

(* ---------------------------------------------------------------- *)
(* The two-stage pipe pipeline shared by the observability stack: a
   producer thread writes [total] words into a pipe in 8-word bursts,
   a consumer reads them in up-to-32-word chunks and sums them.  The
   ktrace/kperf CLI commands, the overhead benches, and the trace and
   profiler tests all measure this workload, so it lives here once. *)

module Pipeline = struct
  type t = {
    pl_boot : Boot.t;
    pl_producer : Kernel.tte;
    pl_consumer : Kernel.tte;
    pl_result : int; (* data address of the consumer's final sum *)
    pl_total : int;
  }

  let build ?(total = 1024) b =
    let k = b.Boot.kernel in
    let m = k.Kernel.machine in
    let pipe = Kpipe.create k ~cap:64 () in
    let src = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
    let dst = Kalloc.alloc_zeroed k.Kernel.alloc 64 in
    let result = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
    let producer_prog ~wfd =
      [
        I.Move (I.Imm 1, I.Reg I.r9);
        I.Label "loop";
        I.Move (I.Imm src, I.Reg I.r10);
        I.Move (I.Imm 7, I.Reg I.r11);
        I.Label "fill";
        I.Move (I.Reg I.r9, I.Post_inc I.r10);
        I.Alu (I.Add, I.Imm 1, I.r9);
        I.Dbra (I.r11, I.To_label "fill");
        I.Move (I.Imm wfd, I.Reg I.r1);
        I.Move (I.Imm src, I.Reg I.r2);
        I.Move (I.Imm 8, I.Reg I.r3);
        I.Trap 2;
        I.Cmp (I.Imm (total + 1), I.Reg I.r9);
        I.B (I.Ne, I.To_label "loop");
        I.Trap 0;
      ]
    in
    let consumer_prog ~rfd =
      [
        I.Move (I.Imm 0, I.Reg I.r9);
        I.Move (I.Imm 0, I.Reg I.r10);
        I.Label "loop";
        I.Move (I.Imm rfd, I.Reg I.r1);
        I.Move (I.Imm dst, I.Reg I.r2);
        I.Move (I.Imm 32, I.Reg I.r3);
        I.Trap 1;
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
    let consumer =
      Thread.create k ~quantum_us:150 ~entry:0
        ~segments:[ (dst, 64); (result, 16) ]
        ()
    in
    let producer =
      Thread.create k ~quantum_us:150 ~entry:0 ~segments:[ (src, 16) ] ()
    in
    let crfd, _ = Kpipe.attach b.Boot.vfs pipe consumer in
    let _, pwfd = Kpipe.attach b.Boot.vfs pipe producer in
    let centry, _ = Asm.assemble m (consumer_prog ~rfd:crfd) in
    let pentry, _ = Asm.assemble m (producer_prog ~wfd:pwfd) in
    Machine.poke m (consumer.Kernel.base + Layout.Tte.off_pc) centry;
    Machine.poke m (producer.Kernel.base + Layout.Tte.off_pc) pentry;
    { pl_boot = b; pl_producer = producer; pl_consumer = consumer;
      pl_result = result; pl_total = total }

  (* Run to completion and verify the consumer's checksum. *)
  let run p =
    (match Boot.go ~max_insns:200_000_000 p.pl_boot with
    | Machine.Halted -> ()
    | Machine.Insn_limit -> failwith "Pipeline.run: did not halt");
    let m = p.pl_boot.Boot.kernel.Kernel.machine in
    let expected = p.pl_total * (p.pl_total + 1) / 2 in
    let got = Machine.peek m p.pl_result in
    if got <> expected then
      failwith (Fmt.str "Pipeline.run: wrong sum %d, expected %d" got expected)
end

(* ---------------------------------------------------------------- *)
(* Zero cost on and off: every instrumentation layer observes the
   machine from the host side — ktrace and kspan through host-side
   probes on synthesized code, the PMU through pc sampling in the step
   loop, the fault injector through an idle device.  Attached, with or
   without collection, a kernel runs the *identical* instruction
   stream as a plain kernel, in the same cycles.  One list of setups
   is the proof's only statement of what "attached" means: the
   overhead bench and its test both iterate it. *)

module Zero_cost = struct
  (* A row's setup instruments a freshly booted kernel and returns
     what to run once the workload is done (stop the PMU, disarm a
     plan). *)
  type setup = Boot.t -> unit -> unit

  let nothing () = ()
  let plain _ = nothing

  let trace ~enabled b =
    let k = b.Boot.kernel in
    Kernel.attach_tracing k (Ktrace.create ~enabled k.Kernel.machine);
    nothing

  let spans b =
    ignore (Kernel.attach_spans b.Boot.kernel);
    nothing

  let pmu ~sampling b =
    let p = Pmu.create b.Boot.kernel.Kernel.machine in
    (* prime period so sampling never locks onto a loop's cycle pattern *)
    if sampling then Pmu.enable_sampling p ~period:251;
    Pmu.start p;
    fun () -> Pmu.stop p

  (* a plan exists but is never armed *)
  let fault_compiled _ =
    ignore (Fault_inject.compile 42);
    nothing

  (* armed, but every event is far past the end of the run: the
     injector device sits idle in the event queue *)
  let fault_armed_idle b =
    let m = b.Boot.kernel.Kernel.machine in
    let fi =
      Fault_inject.arm m
        (Fault_inject.make_plan ~seed:42
           [
             {
               Fault_inject.ev_after = 1_000_000_000;
               ev_action =
                 Fault_inject.Spurious_irq
                   {
                     cpu = None;
                     level = Mmio_map.timer_level;
                     vector = Mmio_map.timer_vector;
                   };
             };
           ])
    in
    fun () -> Fault_inject.disarm m fi

  let rows =
    [
      ("trace_off", "ktrace attached, collection off", trace ~enabled:false);
      ("trace_on", "ktrace attached, collecting", trace ~enabled:true);
      ("span_on", "kspan attached", spans);
      ("pmu_idle", "pmu counting, sampling off", pmu ~sampling:false);
      ("pmu_sampling", "pmu counting + pc sampling (period 251)", pmu ~sampling:true);
      ("fault_compiled", "fault plan compiled, never armed", fault_compiled);
      ("fault_armed_idle", "fault plan armed, horizon beyond the run", fault_armed_idle);
    ]

  let workload ?(total = 2048) setup =
    let b = Boot.boot () in
    let k = b.Boot.kernel in
    let finish = setup b in
    let pl = Pipeline.build ~total b in
    Pipeline.run pl;
    finish ();
    (k, Machine.cycles k.Kernel.machine, Machine.insns_executed k.Kernel.machine)

  let row name =
    match List.find_opt (fun (r, _, _) -> r = name) rows with
    | Some (_, _, setup) -> setup
    | None -> invalid_arg ("Zero_cost.row: no row " ^ name)

  let mismatches ?total names =
    let setups = List.map (fun name -> (name, row name)) names in
    let _, plain_cy, plain_in = workload ?total plain in
    List.filter_map
      (fun (name, setup) ->
        let _, cy, insns = workload ?total setup in
        if cy = plain_cy && insns = plain_in then None
        else
          Some
            (Fmt.str "%s: %d cycles, %d insns (plain: %d, %d)" name cy insns
               plain_cy plain_in))
      setups
end

(* ---------------------------------------------------------------- *)
(* Pretty printing *)

let header title =
  Fmt.pr "@.=== %s ===@." title
