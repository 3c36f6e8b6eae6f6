(* kperf: gauge rate-window edge cases, the Quamachine PMU (counter
   windows, interrupt counting, pc-sample weights), profiler owner
   attribution, and the PMU's zero-simulated-cost guarantee. *)

open Quamachine
open Synthesis

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_rate = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Gauge rate windows *)

let test_gauge_empty_window () =
  let g = Oq.Gauge.create () in
  (* a window with no events is a zero rate, not a stale one *)
  check_rate "empty window rate" 0.0 (Oq.Gauge.sample_rate g ~now:1.0);
  check_rate "last_rate agrees" 0.0 (Oq.Gauge.last_rate g)

let test_gauge_zero_length_window () =
  let g = Oq.Gauge.create () in
  for _ = 1 to 10 do
    Oq.Gauge.tick g
  done;
  let r1 = Oq.Gauge.sample_rate g ~now:2.0 in
  check_rate "10 events over 2 units" 5.0 r1;
  (* sampling again at the same instant: dt = 0, no division — the
     previous window's rate is reported instead *)
  check_rate "zero-length window repeats last rate" r1
    (Oq.Gauge.sample_rate g ~now:2.0);
  (* ... and the gauge keeps measuring cleanly afterwards *)
  Oq.Gauge.tick g;
  check_rate "next real window counts from the stall" 1.0
    (Oq.Gauge.sample_rate g ~now:3.0)

let test_gauge_clock_wraps_backwards () =
  let g = Oq.Gauge.create () in
  Oq.Gauge.add g 8;
  let r1 = Oq.Gauge.sample_rate g ~now:4.0 in
  check_rate "8 events over 4 units" 2.0 r1;
  (* a clock running backwards (wrap-around) must not produce a
     negative rate; last_rate is reported and the window re-anchors *)
  Oq.Gauge.add g 100;
  check_rate "backwards clock repeats last rate" r1
    (Oq.Gauge.sample_rate g ~now:1.0);
  (* the bad stamp re-anchored the window, so only post-anchor events
     count in the next one *)
  Oq.Gauge.add g 10;
  check_rate "window re-anchored at the bad stamp" 5.0
    (Oq.Gauge.sample_rate g ~now:3.0)

let test_gauge_reset () =
  let g = Oq.Gauge.create () in
  Oq.Gauge.add g 42;
  ignore (Oq.Gauge.sample_rate g ~now:1.0);
  Oq.Gauge.reset g;
  check_int "count cleared" 0 (Oq.Gauge.count g);
  check_rate "last_rate cleared" 0.0 (Oq.Gauge.last_rate g);
  (* the window base count was also cleared, so the next sample sees
     only post-reset events — not a negative delta *)
  Oq.Gauge.tick g;
  check_rate "post-reset window counts from zero" 1.0
    (Oq.Gauge.sample_rate g ~now:2.0)

(* ------------------------------------------------------------------ *)
(* PMU counter windows *)

let run_pipeline_with b =
  let pl = Repro_harness.Harness.Pipeline.build ~total:1024 b in
  Repro_harness.Harness.Pipeline.run pl

let test_pmu_window_counts () =
  let b = Boot.boot () in
  let m = b.Boot.kernel.Kernel.machine in
  let pmu = Pmu.create m in
  check_bool "not running before start" false (Pmu.running pmu);
  let cy0 = Machine.cycles m and in0 = Machine.insns_executed m in
  Pmu.start pmu;
  run_pipeline_with b;
  Pmu.stop pmu;
  (* the window covers exactly the machine deltas *)
  check_int "cycles counter" (Machine.cycles m - cy0) (Pmu.read pmu Pmu.Cycles);
  check_int "instruction counter"
    (Machine.insns_executed m - in0)
    (Pmu.read pmu Pmu.Instructions);
  check_bool "memory references counted" true (Pmu.read pmu Pmu.Mem_refs > 0);
  (* the pipeline runs on quantum timers: interrupts were taken and
     the machine-level count flows through the PMU *)
  check_bool "interrupts taken" true (Machine.irqs_taken m > 0);
  check_int "interrupt counter" (Machine.irqs_taken m)
    (Pmu.read pmu Pmu.Interrupts)

let test_pmu_stop_freezes () =
  let b = Boot.boot () in
  let m = b.Boot.kernel.Kernel.machine in
  let entry, _ =
    Asm.assemble m
      [ Insn.Move (Insn.Imm 7, Insn.Reg Insn.r0); Insn.Halt ]
  in
  let go () =
    Machine.set_supervisor m true;
    Machine.set_reg m Insn.sp Layout.boot_stack_top;
    Machine.set_pc m entry;
    ignore (Machine.run ~max_insns:100 m)
  in
  let pmu = Pmu.create m in
  Pmu.start pmu;
  go ();
  Pmu.stop pmu;
  let frozen = Pmu.read_all pmu in
  check_bool "window saw work" true (Pmu.read pmu Pmu.Instructions > 0);
  (* cycles spent outside a window are invisible to the counters *)
  go ();
  List.iter
    (fun (c, v) ->
      check_int
        (Fmt.str "%s frozen across stop" (Pmu.counter_name c))
        v (Pmu.read pmu c))
    frozen;
  (* a second window accumulates on top of the first *)
  let first_cy = Pmu.read pmu Pmu.Cycles in
  let cy_mid = Machine.cycles m in
  Pmu.start pmu;
  go ();
  Pmu.stop pmu;
  check_int "windows accumulate"
    (first_cy + (Machine.cycles m - cy_mid))
    (Pmu.read pmu Pmu.Cycles);
  (* reset zeroes everything *)
  Pmu.reset pmu;
  List.iter (fun (c, _) -> check_int "reset" 0 (Pmu.read pmu c)) frozen

let test_pmu_samples_tile_window () =
  let b = Boot.boot () in
  let m = b.Boot.kernel.Kernel.machine in
  let pmu = Pmu.create m in
  Pmu.enable_sampling pmu ~period:251;
  check_int "period readable" 251 (Pmu.sampling_period pmu);
  Pmu.start pmu;
  run_pipeline_with b;
  Pmu.stop pmu;
  check_bool "samples taken" true (Pmu.sample_count pmu > 0);
  (* each sample's weight is the cycles since the previous one, so the
     weights tile the sampled span: their sum never exceeds the window
     and the histogram is only a re-grouping of the same weights *)
  check_bool "sampled cycles within window" true
    (Pmu.sampled_cycles pmu <= Pmu.read pmu Pmu.Cycles);
  let hist_sum =
    List.fold_left (fun a (_, w) -> a + w) 0 (Pmu.sample_histogram pmu)
  in
  check_int "histogram re-buckets the sample weights"
    (Pmu.sampled_cycles pmu) hist_sum;
  List.iter
    (fun (_, w) -> check_bool "weights positive" true (w > 0))
    (Pmu.samples pmu);
  (* disabling sampling drops the hook; counters keep working *)
  Pmu.disable_sampling pmu;
  check_int "period 0 when off" 0 (Pmu.sampling_period pmu)

(* ------------------------------------------------------------------ *)
(* Profiler attribution *)

let test_profile_balances () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let tr = Ktrace.create m in
  Kernel.attach_tracing k tr;
  let pmu = Pmu.create m in
  Pmu.enable_sampling pmu ~period:251;
  Pmu.start pmu;
  run_pipeline_with b;
  Pmu.stop pmu;
  let p = Profile.collect k pmu in
  (* the acceptance claim: per-owner cycles partition the machine's
     cycle total exactly *)
  check_int "owner lines sum to machine total" p.Profile.p_total
    (Profile.owners_total p);
  check_bool "balanced" true (Profile.balanced p);
  check_int "total is the machine's" (Machine.cycles m) p.Profile.p_total;
  let shares =
    List.fold_left (fun a l -> a +. l.Profile.l_share) 0.0 p.Profile.p_owners
  in
  Alcotest.(check (float 1e-6)) "shares sum to 100%" 100.0 shares;
  (* the flat view names synthesized fragments, not just addresses *)
  check_bool "flat view nonempty" true (p.Profile.p_flat <> []);
  check_bool "a synthesized routine is named" true
    (List.exists (fun (_, name, _) -> name <> "(user/unowned)") p.Profile.p_flat)

(* A sleeping core's clock jumps to the present when an interrupt
   wakes it.  The cycles it skips are idle time: with them on the idle
   owner, the owner lines still sum to the per-core clocks. *)
let test_wake_warp_is_idle () =
  let b = Boot.boot ~cores:2 () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let tr = Ktrace.create ~enabled:false m in
  Kernel.attach_tracing k tr;
  let core_sum () = Machine.core_cycles m 0 + Machine.core_cycles m 1 in
  let base = core_sum () in
  let cells = Kalloc.alloc_zeroed k.Kernel.alloc 1 in
  let counter cell n =
    fst
      (Asm.assemble m
         [
           Insn.Move (Insn.Imm (n - 1), Insn.Reg Insn.r9);
           Insn.Label "loop";
           Insn.Alu_mem (Insn.Add, Insn.Imm 1, Insn.Abs cell);
           Insn.Dbra (Insn.r9, Insn.To_label "loop");
           Insn.Trap 0;
         ])
  in
  ignore
    (Thread.create k ~cpu:0 ~entry:(counter cells 3_000) ~segments:[ (cells, 1) ] ());
  (* core 1 has only its idle thread, asleep in Stop_wait, until a
     device fires its quantum timer midway through core 0's loop *)
  let asleep_at_wake = ref false in
  ignore
    (Machine.add_device m ~name:"waker"
       ~due:(Machine.cycles m + 20_000)
       ~tick:(fun _ ->
         asleep_at_wake := Machine.core_cycles m 1 < Machine.core_cycles m 0;
         Devices.Timer.arm (Kernel.timer_for k 1) ~us:2.0));
  (match Boot.go ~max_insns:1_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "run did not converge");
  check_int "core 0's loop ran" 3_000 (Machine.peek m cells);
  check_bool "core 1 was asleep behind core 0 when woken" true !asleep_at_wake;
  let owned = List.fold_left (fun a (_, c) -> a + c) 0 (Ktrace.owner_cycles tr) in
  check_int "owner lines sum to the per-core cycles" (core_sum () - base) owned

(* ------------------------------------------------------------------ *)
(* Zero simulated cost: the overhead bench's PMU rows, counting with
   and without pc sampling *)

let test_pmu_is_free () =
  Alcotest.(check (list string)) "identical to the plain run" []
    (Repro_harness.Harness.Zero_cost.mismatches ~total:1024
       [ "pmu_idle"; "pmu_sampling" ])

let () =
  Alcotest.run "kperf"
    [
      ( "gauge",
        [
          Alcotest.test_case "empty window" `Quick test_gauge_empty_window;
          Alcotest.test_case "zero-length window" `Quick
            test_gauge_zero_length_window;
          Alcotest.test_case "clock wraps backwards" `Quick
            test_gauge_clock_wraps_backwards;
          Alcotest.test_case "reset" `Quick test_gauge_reset;
        ] );
      ( "pmu",
        [
          Alcotest.test_case "window counts" `Quick test_pmu_window_counts;
          Alcotest.test_case "stop freezes" `Quick test_pmu_stop_freezes;
          Alcotest.test_case "samples tile the window" `Quick
            test_pmu_samples_tile_window;
          Alcotest.test_case "sampling costs zero cycles" `Quick
            test_pmu_is_free;
        ] );
      ( "profile",
        [
          Alcotest.test_case "attribution balances" `Quick test_profile_balances;
          Alcotest.test_case "wake warp is idle time" `Quick test_wake_warp_is_idle;
        ] );
    ]
