(* Zero cost on and off: every instrumentation layer observes the
   machine from the host side — ktrace and kspan through host-side
   probes on synthesized code, the PMU through pc sampling in the step
   loop, the fault injector through an idle device.  Attached, with or
   without collection, a kernel runs the *identical* instruction
   stream as a plain kernel, in the same cycles.

   One table proves it for all four layers.  The shared two-stage pipe
   pipeline runs once plain, then once per row with that row's setup
   applied right after boot (before anything is synthesized).  Every
   row must match the plain run's cycles *and* instructions, and lands
   in the [overhead] baseline table as [extra_cycles]. *)

open Quamachine
open Synthesis

(* A row's setup instruments a freshly booted kernel and returns what
   to run once the workload is done (stop the PMU, disarm a plan). *)
let nothing () = ()

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

(* (baseline row, label, setup) *)
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
    "zero cost on and off: ktrace, kspan, the PMU and kfault";
  let plain_cy, plain_in = workload (fun _ -> nothing) in
  Fmt.pr "%-44s %12s %12s %8s@." "configuration" "cycles" "insns" "extra";
  Fmt.pr "%-44s %12d %12d@." "plain kernel (no instrumentation)" plain_cy
    plain_in;
  Bench_json.record ~table:"overhead" ~row:"pipeline_plain" ~metric:"cycles"
    (float_of_int plain_cy);
  let failed =
    List.filter
      (fun (row, label, setup) ->
        let cy, insns = workload setup in
        Fmt.pr "%-44s %12d %12d %8d@." label cy insns (cy - plain_cy);
        Bench_json.record ~table:"overhead" ~row ~metric:"extra_cycles"
          (float_of_int (cy - plain_cy));
        cy <> plain_cy || insns <> plain_in)
      rows
  in
  match failed with
  | [] -> Fmt.pr "every row: exactly zero (identical instruction streams)@."
  | _ ->
    Fmt.failwith "overhead: %s perturbed the plain run"
      (String.concat ", " (List.map (fun (row, _, _) -> row) failed))
