(* Zero cost when off: every instrumentation layer either splices its
   probes into synthesized code only when enabled at synthesis time
   (ktrace, kspan) or observes the machine from the host side (the PMU,
   the fault injector).  Switched off, a kernel with the layer attached
   runs the *identical* instruction stream as a plain kernel.

   One table proves it for all four layers.  The shared two-stage pipe
   pipeline runs once plain, then once per row with that row's setup
   applied right after boot (before anything is synthesized).  A
   [Free_cycles] row must cost exactly zero simulated cycles; a
   [Free_stream] row must match the plain run's cycles *and*
   instructions (host-side observers must not perturb anything, even
   with PMU pc sampling on: samples cost host time, never simulated
   cycles); a [Priced] row records what its probes cost when on (one
   Hcall, 2 cycles, per probe site crossed).  Every row lands in the
   [overhead] baseline table as [extra_cycles]. *)

open Quamachine
open Synthesis

type gate = Priced | Free_cycles | Free_stream

(* [setup] instruments a freshly booted kernel and returns what to run
   once the workload is done (stop the PMU, disarm a plan). *)
type row = {
  row : string;
  label : string;
  gate : gate;
  setup : Boot.t -> unit -> unit;
}

let nothing () = ()

let trace ~enabled b =
  let k = b.Boot.kernel in
  Kernel.attach_tracing k (Ktrace.create ~enabled k.Kernel.machine);
  nothing

let spans ~enabled b =
  ignore (Kernel.attach_spans ~enabled b.Boot.kernel);
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

(* armed, but every event is far past the end of the run: the injector
   device sits idle in the event queue *)
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
    { row = "trace_off"; label = "ktrace attached, disabled at synthesis";
      gate = Free_cycles; setup = trace ~enabled:false };
    { row = "trace_on"; label = "ktrace attached, probes compiled in";
      gate = Priced; setup = trace ~enabled:true };
    { row = "span_off"; label = "kspan attached, disabled at synthesis";
      gate = Free_cycles; setup = spans ~enabled:false };
    { row = "span_on"; label = "kspan attached, probes compiled in";
      gate = Priced; setup = spans ~enabled:true };
    { row = "pmu_idle"; label = "pmu counting, sampling off";
      gate = Free_stream; setup = pmu ~sampling:false };
    { row = "pmu_sampling"; label = "pmu counting + pc sampling (period 251)";
      gate = Free_stream; setup = pmu ~sampling:true };
    { row = "fault_compiled"; label = "fault plan compiled, never armed";
      gate = Free_stream; setup = fault_compiled };
    { row = "fault_armed_idle";
      label = "fault plan armed, horizon beyond the run";
      gate = Free_stream; setup = fault_armed_idle };
  ]

let workload setup =
  let b = Boot.boot () in
  let m = b.Boot.kernel.Kernel.machine in
  let finish = setup b in
  let pl = Repro_harness.Harness.Pipeline.build ~total:2048 b in
  Repro_harness.Harness.Pipeline.run pl;
  finish ();
  (Machine.cycles m, Machine.insns_executed m)

let run () =
  Repro_harness.Harness.header
    "zero cost when off: ktrace, kspan, the PMU and kfault";
  let plain_cy, plain_in = workload (fun _ -> nothing) in
  Fmt.pr "%-44s %12s %12s %8s@." "configuration" "cycles" "insns" "extra";
  Fmt.pr "%-44s %12d %12d@." "plain kernel (no instrumentation)" plain_cy
    plain_in;
  Bench_json.record ~table:"overhead" ~row:"pipeline_plain" ~metric:"cycles"
    (float_of_int plain_cy);
  let failed =
    List.filter
      (fun r ->
        let cy, insns = workload r.setup in
        Fmt.pr "%-44s %12d %12d %8d@." r.label cy insns (cy - plain_cy);
        Bench_json.record ~table:"overhead" ~row:r.row ~metric:"extra_cycles"
          (float_of_int (cy - plain_cy));
        match r.gate with
        | Priced -> false
        | Free_cycles -> cy <> plain_cy
        | Free_stream -> cy <> plain_cy || insns <> plain_in)
      rows
  in
  match failed with
  | [] -> Fmt.pr "every off row: exactly zero (identical instruction streams)@."
  | _ ->
    Fmt.failwith "overhead: %s perturbed the plain run"
      (String.concat ", " (List.map (fun r -> r.row) failed))
