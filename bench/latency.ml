(* Tail latency: drive the two synthesized pipelines with the span
   layer attached and land their per-request latency percentiles in
   BENCH_tables.json — clean, and under a seeded fault storm (spurious
   interrupts, forced CAS failures, a stalled and a dropped disk
   completion).  The storm rows are the interesting ones: p50 barely
   moves while p999 absorbs the recovery latency, which is exactly the
   claim the flight recorder is built around.

   Everything is seeded and simulated, so every percentile is exactly
   reproducible run to run. *)

open Quamachine
open Synthesis
module I = Insn

let storm_seed = 7

let hist k name =
  match
    List.assoc_opt name (Metrics.histograms k.Kernel.metrics)
  with
  | Some h -> h
  | None -> Fmt.failwith "latency: histogram %s never recorded" name

let record ~row h =
  List.iter
    (fun (metric, q) ->
      Bench_json.record ~table:"latency" ~row ~metric
        (float_of_int (Histogram.quantile h q)))
    [ ("p50_cycles", 0.50); ("p99_cycles", 0.99); ("p999_cycles", 0.999) ];
  Fmt.pr "%-12s %a@." row Histogram.pp h

(* ---------------------------------------------------------------- *)
(* Pipe: the two-stage pipeline, 256 8-word write bursts *)

let pipe_config =
  {
    Fault_inject.default_config with
    Fault_inject.horizon_cycles = 400_000;
    n_irqs = 3;
    n_flips = 0;
    n_stalls = 0;
    n_drops = 0;
    n_cas_fails = 6;
    cas_gap = 32;
    irq_choices =
      [
        (Mmio_map.timer_level, Mmio_map.timer_vector);
        (Mmio_map.disk_level, Mmio_map.disk_vector);
      ];
    flip_len = 0;
  }

let pipe_run ~storm =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  ignore (Kernel.attach_spans k);
  let pl = Repro_harness.Harness.Pipeline.build ~total:2048 b in
  let fi =
    if storm then
      Some (Fault_inject.arm m (Fault_inject.compile ~config:pipe_config storm_seed))
    else None
  in
  Repro_harness.Harness.Pipeline.run pl;
  (match fi with Some f -> Fault_inject.disarm m f | None -> ());
  hist k "kspan.pipe.total_cycles"

(* ---------------------------------------------------------------- *)
(* Disk: a 12-request burst through the elevator *)

let disk_config =
  {
    Fault_inject.default_config with
    Fault_inject.horizon_cycles = 300_000;
    n_irqs = 4;
    n_flips = 0;
    n_stalls = 1;
    n_drops = 1;
    n_cas_fails = 0;
    irq_choices = [ (Mmio_map.disk_level, Mmio_map.disk_vector) ];
    stall_devices = [ "disk" ];
    flip_len = 0;
  }

let disk_run ~storm =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  ignore (Kernel.attach_spans k);
  let ds = Disk_server.install k ~timeout_us:2_000.0 ~max_tries:6 () in
  let blocks = [| 5; 9; 12; 3; 17; 30; 44; 2; 58; 23; 71; 8 |] in
  Array.iter
    (fun bno ->
      Devices.Disk.write_block k.Kernel.disk bno
        (Array.init Devices.Disk.block_words (fun i -> (bno * 1_000) + i)))
    blocks;
  (* idle thread takes the completion interrupts *)
  Boot.park_on_idle k;
  let fi =
    if storm then
      Some (Fault_inject.arm m (Fault_inject.compile ~config:disk_config storm_seed))
    else None
  in
  let reqs =
    Array.map
      (fun bno ->
        let buf = Kalloc.alloc_zeroed k.Kernel.alloc Disk_server.block_words in
        (Disk_server.submit ds ~block:bno ~buffer:buf ~write:false ()).Disk_server.r_desc)
      blocks
  in
  let all_done () =
    Array.for_all (fun desc -> Machine.peek m (desc + 3) = 1) reqs
  in
  let budget = ref 8_000_000 in
  while (not (all_done ())) && !budget > 0 do
    Machine.step m;
    decr budget
  done;
  (match fi with Some f -> Fault_inject.disarm m f | None -> ());
  if not (all_done ()) then failwith "latency: disk burst did not complete";
  hist k "kspan.disk.total_cycles"

let run () =
  Repro_harness.Harness.header
    "tail latency: per-request span percentiles, clean vs fault storm";
  record ~row:"pipe_clean" (pipe_run ~storm:false);
  record ~row:"pipe_storm" (pipe_run ~storm:true);
  record ~row:"disk_clean" (disk_run ~storm:false);
  record ~row:"disk_storm" (disk_run ~storm:true)
