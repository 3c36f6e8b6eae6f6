(* synth-scale: the memoizing synthesis cache at open/close scale.

   Opens and closes 100k pipes against one kernel.  Before ksynth,
   every attach ran the full synthesizer and appended fresh code — the
   code store grew linearly in opens and every open paid generation
   cost.  With the cache, the first open synthesizes and every later
   open of the recycled pipe carcass is a content-addressed hit, so
   cycles per open collapse and peak code bytes go flat (sublinear in
   opens).

   A second phase churns thread batches under a tight per-kind code
   budget to drive the eviction/resynthesis path: destroyed threads
   leave their dispatcher pages cached at refcount zero, the cap
   evicts them (keeping their keys), and the next batch's
   instantiations at the recycled TTE bases resynthesize those keys.

   Everything here is host-driven and deterministic: with faults off,
   twin runs are cycle-identical, which is what lets `bench compare`
   gate these numbers exactly. *)

open Quamachine
open Synthesis
module I = Insn

let opens = 100_000

let run () =
  Repro_harness.Harness.header
    "synth-scale: memoizing synthesis at open/close scale";
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let vfs = b.Boot.vfs in
  let entry, _ = Asm.assemble m [ I.Trap 0 ] in
  let t = Thread.create k ~entry () in
  let open_close () =
    let p = Kpipe.create k ~cap:1024 () in
    let rfd, wfd = Kpipe.attach vfs p t in
    ignore (Vfs.close_fd vfs t rfd);
    ignore (Vfs.close_fd vfs t wfd)
  in
  (* phase 1: cold open, then the warm steady state *)
  let c0 = Machine.cycles m in
  open_close ();
  let cold = Machine.cycles m - c0 in
  for _ = 2 to 100 do
    open_close ()
  done;
  let words_100 = (Ksynth.stats k).Ksynth.st_footprint_words in
  let c1 = Machine.cycles m in
  for _ = 101 to opens do
    open_close ()
  done;
  let warm = (Machine.cycles m - c1) / (opens - 100) in
  let words_all = (Ksynth.stats k).Ksynth.st_footprint_words in
  let speedup = float_of_int cold /. float_of_int (max 1 warm) in
  Fmt.pr "%d pipe open/close pairs against one kernel:@." opens;
  Fmt.pr "  cold open/close        %8d cycles@." cold;
  Fmt.pr "  warm open/close        %8d cycles (%.1fx cheaper)@." warm speedup;
  Fmt.pr "  code store after 100   %8d words@." words_100;
  Fmt.pr "  code store after %dk  %8d words@." (opens / 1000) words_all;
  if speedup < 5.0 then
    failwith (Fmt.str "synth-scale: warm open only %.1fx cheaper than cold" speedup);
  if words_all > words_100 then
    failwith "synth-scale: code store grew past the 100-open working set";
  (* phase 2: thread churn under a tight per-kind code budget *)
  let cap = 128 in
  Ksynth.set_cap k ~kind:"thread" cap;
  Ksynth.set_cap k ~kind:"ctx" cap;
  for _round = 1 to 8 do
    let ts = List.init 12 (fun _ -> Thread.create k ~entry ()) in
    List.iter (fun tt -> Thread.destroy k tt) ts
  done;
  let s = Ksynth.stats k in
  let total = s.Ksynth.st_hits + s.Ksynth.st_misses in
  let hit_ratio = float_of_int s.Ksynth.st_hits /. float_of_int (max 1 total) in
  let peak_bytes = 4 * s.Ksynth.st_footprint_words in
  Fmt.pr "@.8 rounds of 12-thread churn under a %d-word/kind budget:@." cap;
  Fmt.pr
    "  %d hits, %d misses (%.4f hit ratio), %d evictions, %d resynthesized@."
    s.Ksynth.st_hits s.Ksynth.st_misses hit_ratio s.Ksynth.st_evictions
    s.Ksynth.st_resynth;
  Fmt.pr "  peak code bytes %d (%d pages cached, %d words live)@." peak_bytes
    s.Ksynth.st_cached_pages s.Ksynth.st_live_words;
  if s.Ksynth.st_evictions = 0 then failwith "synth-scale: no evictions";
  if s.Ksynth.st_resynth = 0 then failwith "synth-scale: no resynthesis";
  Bench_json.record ~table:"synth_scale" ~row:"pipe_open" ~metric:"cold_cycles"
    (float_of_int cold);
  Bench_json.record ~table:"synth_scale" ~row:"pipe_open" ~metric:"warm_cycles"
    (float_of_int warm);
  Bench_json.record ~table:"synth_scale" ~row:"pipe_open"
    ~metric:"warm_speedup_ratio" speedup;
  Bench_json.record ~table:"synth_scale" ~row:"code" ~metric:"peak_code_bytes"
    (float_of_int peak_bytes);
  Bench_json.record ~table:"synth_scale" ~row:"cache" ~metric:"hit_ratio"
    hit_ratio;
  Bench_json.record ~table:"synth_scale" ~row:"cache" ~metric:"evictions"
    (float_of_int s.Ksynth.st_evictions);
  Bench_json.record ~table:"synth_scale" ~row:"cache" ~metric:"resynth"
    (float_of_int s.Ksynth.st_resynth)
