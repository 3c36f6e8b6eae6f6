(* perfbench: the repository benchmark.

   One executable, three workloads, each run in this single host
   process from a seed:

   - serve_1c / serve_4c: a kserve server on 1 or 4 cores under the
     default request mix (open, 4 data requests of which 1 in 4 is a
     write, close; 30 µs think time), in two phases from separate
     boots.  The paced phase offers open-loop session arrivals at
     0.8/ms from a conn-id pool that never runs dry, so its latency
     reflects the service path; it runs as several sub-runs whose
     tail figures are reported as medians.  The saturated phase is a
     48-client closed loop that measures capacity.
   - unix_syscalls: the Table 1 programs under the UNIX emulator on 1
     core: a pipe_rw loop at 1 word, one at 4 KiB, and an open+close
     loop on /dev/tty.

   Simulated metrics are a pure function of the seed.  Host metrics
   (set-up and run seconds, heap) measure the simulator itself.  A run
   repeats the workload until [--seconds] of wall-clock time have passed;
   every repetition must reproduce the first one's simulated figures
   exactly, and host figures are the median over repetitions.

   With [--trace 1] the run adds two instrumented passes and reports
   the per-layer metrics instead of the end-to-end ones:

   - a ledger pass with ktrace attached disabled before the workload
     is built — cycle-identical to the plain run, which is checked —
     whose per-owner cycles ({!Profile.collect}) are grouped into
     layers and normalized per request (or per call), and checked
     against the sum of the per-core cycle counters;
   - a span pass with the kspan layer enabled, whose stage wait
     histograms and latency cost ([kspan.overhead_ratio]) are
     reported.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

   Usage:
     perfbench --workload NAME --seed N --seconds S --trace 0|1 *)

open Quamachine
open Synthesis
open Repro_harness

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

(* Host time is the process's CPU time (user + system): the simulator
   is single-threaded, and CPU time does not count the slices other
   processes on a shared machine take from it, as wall time would. *)
let now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* [Histogram.quantile] returns a bucket's representative, so it moves
   in 1/16-octave steps; interpolate linearly inside the bucket that
   holds the rank instead, as HDR histograms do. *)
let quantile h q =
  let n = Histogram.count h in
  if n = 0 then 0.0
  else begin
    let target = q *. fi n in
    (* bucket [lower, lower + width) from its representative (see
       histogram.ml: exact below 16, 16 sub-buckets per octave above) *)
    let bounds r =
      if r < 16 then (fi r, 1.0)
      else begin
        let p = ref 0 in
        while r lsr (!p + 1) > 0 do incr p done;
        let w = 1 lsl (!p - 4) in
        (fi (r - (w / 2)), fi w)
      end
    in
    let rec go cum = function
      | [] -> fi (Histogram.max_value h)
      | (r, c) :: rest ->
        let cum' = cum +. fi c in
        if cum' >= target then
          let lo, w = bounds r in
          lo +. (w *. (target -. cum) /. fi c)
        else go cum' rest
    in
    let v = go 0.0 (Histogram.buckets h) in
    Float.min (fi (Histogram.max_value h)) (Float.max (fi (Histogram.min_value h)) v)
  end

(* A derived, never-zero seed for sub-run [i] of a run seeded [seed]. *)
let derive seed i = 1 + (((seed * 7919) + (i * 104_729)) land 0x3FFF_FFFF)

let sum_cores m f =
  let s = ref 0 in
  for c = 0 to Machine.num_cores m - 1 do
    s := !s + f m c
  done;
  !s

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Every timed region starts from a freshly compacted heap, so the
   garbage of earlier boots is not collected inside it.  (Compacting
   rather than only collecting made the set-up median about twice as
   steady from run to run.) *)
let clean f =
  Gc.compact ();
  f ()

(* Host set-up takes a few ms and is noisy: time it [setup_trials]
   times and keep the median. *)
let setup_trials = 101
let trials f = List.init setup_trials (fun _ -> clean f)

(* Repeat [f] until [seconds] of wall-clock time have passed (at least
   once). *)
let repeat ~seconds f =
  let t0 = Unix.gettimeofday () in
  let rec go acc =
    let acc = f () :: acc in
    if Unix.gettimeofday () -. t0 >= seconds then List.rev acc else go acc
  in
  go []

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

type instrument = Plain | Ledger | Spans

(* An open attribution window: the PMU Profile.collect reads, and the
   per-core cycle total when attribution began. *)
type window = { w_pmu : Pmu.t; w_base : int }

let attach instrument k =
  let m = k.Kernel.machine in
  match instrument with
  | Plain -> None
  | Spans ->
    ignore (Kernel.attach_spans k);
    None
  | Ledger ->
    Kernel.attach_tracing k (Ktrace.create ~enabled:false m);
    let pmu = Pmu.create m in
    Pmu.start pmu;
    Some { w_pmu = pmu; w_base = sum_cores m Machine.core_cycles }

(* Owner lines of one ledger window, minus Profile's pre-attach line
   (it is derived from the current core's clock, which is not the
   machine total on N cores); plus the residual against the per-core
   cycle counters. *)
let ledger_lines k w =
  let m = k.Kernel.machine in
  Pmu.stop w.w_pmu;
  let p = Profile.collect k w.w_pmu in
  let lines =
    List.filter_map
      (fun ln ->
        if ln.Profile.l_name = "(boot, pre-attach)" then None
        else Some (ln.Profile.l_name, ln.Profile.l_cycles))
      p.Profile.p_owners
  in
  let elapsed = sum_cores m Machine.core_cycles - w.w_base in
  let owned = List.fold_left (fun a (_, c) -> a + c) 0 lines in
  (lines, elapsed - owned)

(* The layers of the cycle ledger, by owner-name prefix. *)
let starts s p = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let ends s p =
  let n = String.length s and k = String.length p in
  n >= k && String.sub s (n - k) k = p

let layers =
  [
    ("interrupt", fun n -> n = "(irq delivery)" || starts n "irq/");
    ("kserve.service", fun n -> starts n "serve/conn");
    ("kserve.host_services", fun n -> n = "(host services)");
    ("ctx", fun n -> starts n "ctx/");
    ("kqueue", fun n -> starts n "serve." && (ends n "/get" || ends n "/put"));
    ("scheduler.yield", fun n -> n = "syscall/yield");
    ("kserve.stage", fun n -> n = "(user/unowned)");
    ("kpipe", fun n -> starts n "pipe/");
    ("unix_emulator", fun n -> starts n "unix/" || (starts n "syscall/" && n <> "syscall/yield"));
    ("thread.dispatch", fun n -> starts n "thread/");
    ("vfs", fun n -> starts n "vfs/");
  ]

let layer_cycles lines name =
  let pred = List.assoc name layers in
  List.fold_left (fun a (n, c) -> if pred n then a + c else a) 0 lines

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

type metric = string * float

(* Every metric the benchmark prints, with its unit, in the order of
   BENCHMARK.json.  A workload that does not exercise a layer reports 0
   for it. *)
let end_to_end =
  [
    ("setup_s", "s"); ("host_s", "s"); ("host_heap_mb", "MB"); ("throughput_rps", "1/s");
    ("p50_us", "us"); ("p99_us", "us"); ("mean_us", "us");
  ]

let per_layer =
  [
    ("machine.host_ns_per_insn", "ns"); ("machine.insns_per_req", "insns");
    ("machine.cas_lost_per_kreq", "count"); ("nic.irqs_per_req", "count");
    ("nic.rx_shed", "count"); ("nic.rx_overruns", "count");
    ("interrupt.cycles_per_req", "cycles"); ("kserve.service_cycles_per_req", "cycles");
    ("kserve.host_services_cycles_per_req", "cycles"); ("ctx.cycles_per_req", "cycles");
    ("kqueue.cycles_per_req", "cycles"); ("scheduler.yield_cycles_per_req", "cycles");
    ("kserve.stage_cycles_per_req", "cycles"); ("kpipe.cycles_per_op", "cycles");
    ("unix_emulator.cycles_per_call", "cycles"); ("thread.dispatch_cycles_per_op", "cycles");
    ("vfs.cycles_per_open", "cycles"); ("ledger.residual_cycles", "cycles");
    ("stream_graph.req.wait_p99_us", "us"); ("stream_graph.work.wait_p99_us", "us");
    ("stream_graph.resp.wait_p99_us", "us"); ("kspan.overhead_ratio", "ratio");
    ("ksynth.accept_hit_ratio", "ratio"); ("ksynth.open_hit_ratio", "ratio");
    ("kserve.retunes_per_kreq", "count"); ("smp.steals", "count"); ("smp.migrations", "count");
    ("loadgen.resent", "count"); ("loadgen.abandoned", "count");
    ("loadgen.duplicates", "count"); ("loadgen.errors", "count");
    ("loadgen.fail_ratio", "ratio"); ("setup.boot_s", "s"); ("setup.kserve_create_s", "s");
    ("table1.pipe_1w_us", "us"); ("table1.pipe_4k_mbps", "MB/s"); ("table1.open_us", "us");
  ]

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(* The metric table on stderr, then the result line on stdout. *)
let print_result ~correct ~attempted ~failed ~table (metrics : metric list) =
  List.iter
    (fun (n, _) -> if not (List.mem_assoc n table) then failwith ("perfbench: unlisted metric " ^ n))
    metrics;
  let rows =
    List.map (fun (n, u) -> (n, Option.value ~default:0.0 (List.assoc_opt n metrics), u)) table
  in
  (* JSON has no NaN or infinity: print 0 and fail the run instead *)
  let correct = correct && List.for_all (fun (_, v, _) -> Float.is_finite v) rows in
  let rows = List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.0), u)) rows in
  List.iter (fun (n, v, u) -> Printf.eprintf "  %-40s %14.4f %s\n" n v u) rows;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
          rows))

(* ------------------------------------------------------------------ *)
(* serve_1c / serve_4c                                                 *)
(* ------------------------------------------------------------------ *)

type kind = Paced | Saturated

(* Paced: 0.8 mean arrivals per simulated ms (every 8th arrival brings
   4 more sessions), about two thirds of one core's capacity.  The
   conn-id pool is the default's thousands, never exhausted.
   Saturated: the default 40 arrivals/ms against a 48-id pool — a
   48-client closed loop.  Client timeouts and retries stay on in both
   phases: 20 ms is far past every phase's p99, so a resend marks a
   request left unanswered far beyond the tail. *)
let lg_config kind ~seed ~sessions =
  let c =
    {
      Loadgen.default_config with
      Loadgen.lg_clients = sessions;
      lg_seed = seed;
      lg_timeout_us = 20_000.0;
    }
  in
  match kind with
  | Paced -> { c with Loadgen.lg_rate_per_ms = 0.8 }
  | Saturated -> { c with Loadgen.lg_conn_ids = 48 }

(* Paced sub-runs: six on 1 core, whose per-run p99 varies by ~10%
   from seed to seed (the median of six varies by ~3.5%); two on 4
   cores, whose tail is steadier and whose idle cores yield-spin, so a
   session costs ~4x the host time. *)
let paced_subruns ~cores = if cores = 1 then 6 else 2
let paced_sessions = 1200
let saturated_sessions = 600

(* The client's view of one phase, copied out of the load generator. *)
type client = {
  c_sent : int;
  c_received : int;
  c_resent : int;
  c_abandoned : int;
  c_duplicates : int;
  c_errors : int;
  c_latency : Histogram.t;  (** round trips, cycles *)
  c_elapsed : int;
}

let client lg =
  {
    c_sent = Loadgen.sent lg;
    c_received = Loadgen.received lg;
    c_resent = Loadgen.resent lg;
    c_abandoned = Loadgen.abandoned lg;
    c_duplicates = Loadgen.duplicates lg;
    c_errors = Loadgen.errors lg;
    c_latency = Loadgen.latency lg;
    c_elapsed = Loadgen.elapsed_cycles lg;
  }

(* What one phase run leaves behind: figures only, so repetitions do
   not keep their machines alive (the heap is a metric). *)
type phase = {
  p_kind : kind;
  p_cost : Cost.t;
  p_client : client;
  p_stats : Kserve.stats;
  p_ok : bool;  (** halted, finished, nothing in flight, drained *)
  p_cycles : int;  (** Σ per-core cycles *)
  p_insns : int;
  p_cas_lost : int;
  p_steals : int;
  p_migrations : int;
  p_nic : Devices.Nic.stats;
  p_host_s : float;
  p_ledger : ((string * int) list * int) option;
  p_ksynth : Ksynth.stats;
  p_hist : (string * Histogram.t) list;  (** kspan histograms *)
}

let run_phase ~cores ~instrument kind ~seed ~sessions =
  let b = Boot.boot ~cores () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  if cores > 1 then Machine.set_schedule_seed m seed;
  let led = attach instrument k in
  let srv = Kserve.create b in
  let lg =
    Loadgen.create ~config:(lg_config kind ~seed ~sessions)
      ~on_complete:(fun () -> Kserve.shutdown srv)
      srv
  in
  let halted, host_s =
    clean (fun () ->
        time (fun () ->
            match Boot.go ~max_insns:(500_000_000 + (20_000 * sessions)) b with
            | Machine.Halted -> true
            | Machine.Insn_limit -> false))
  in
  {
    p_kind = kind;
    p_cost = Machine.cost_model m;
    p_client = client lg;
    p_stats = Kserve.stats srv;
    p_ok =
      halted && Loadgen.finished lg && Loadgen.in_flight lg = 0 && Kserve.drained srv;
    p_cycles = sum_cores m Machine.core_cycles;
    p_insns = Machine.insns_executed m;
    p_cas_lost = sum_cores m Machine.core_cas_lost;
    p_steals = Smp.steals k;
    p_migrations = Smp.migrations k;
    p_nic = Devices.Nic.stats (Kserve.nic srv);
    p_host_s = host_s;
    p_ledger = Option.map (ledger_lines k) led;
    p_ksynth = Ksynth.stats k;
    p_hist = Metrics.histograms k.Kernel.metrics;
  }

(* One full serve workload: the paced sub-runs, then the saturated
   phase. *)
let run_serve ~cores ~instrument ~seed =
  let paced =
    List.init (paced_subruns ~cores) (fun i ->
        run_phase ~cores ~instrument Paced ~seed:(derive seed i) ~sessions:paced_sessions)
  in
  let sat =
    run_phase ~cores ~instrument Saturated ~seed:(derive seed (paced_subruns ~cores))
      ~sessions:saturated_sessions
  in
  paced @ [ sat ]

let reqs_per_session = 2 + Loadgen.default_config.Loadgen.lg_reqs_per_session

(* resent + abandoned-session requests + op_err responses + duplicates *)
let failures p =
  let c = p.p_client in
  c.c_resent + (reqs_per_session * c.c_abandoned) + c.c_errors + c.c_duplicates

let us p c = Cost.us_of_cycles p.p_cost c
let sent p = p.p_client.c_sent
let received p = p.p_client.c_received
let paced ps = List.filter (fun p -> p.p_kind = Paced) ps
let saturated ps = List.find (fun p -> p.p_kind = Saturated) ps
let total f ps = List.fold_left (fun a p -> a + f p) 0 ps

(* The simulated end-to-end metrics: deterministic per seed.  The
   latency quantiles are the median over the paced sub-runs. *)
let serve_sim ps : metric list =
  let pc = paced ps and sat = saturated ps in
  let q p x = us p 1 *. quantile p.p_client.c_latency x in
  let merged =
    List.fold_left
      (fun h p -> Histogram.merge h p.p_client.c_latency)
      (Histogram.create ()) pc
  in
  [
    ( "throughput_rps",
      ratio (fi sat.p_client.c_received) (us sat sat.p_client.c_elapsed /. 1e6));
    ("p50_us", median (List.map (fun p -> q p 0.5) pc));
    ("p99_us", median (List.map (fun p -> q p 0.99) pc));
    ("mean_us", Histogram.mean merged *. us sat 1);
  ]

(* Everything a repetition must reproduce exactly. *)
let serve_fingerprint ps =
  List.map
    (fun p ->
      ( p.p_cycles,
        p.p_insns,
        p.p_client.c_sent,
        p.p_client.c_received,
        failures p,
        Histogram.buckets p.p_client.c_latency ))
    ps

let serve_host ps = List.fold_left (fun a p -> a +. p.p_host_s) 0.0 ps

(* Median set-up time — everything before [Boot.go]: boot, kserve
   create, load generator create — and of its first two parts. *)
let serve_setup ~cores ~seed =
  let ts =
    trials (fun () ->
        let b, boot_s = time (fun () -> Boot.boot ~cores ()) in
        let srv, create_s = time (fun () -> Kserve.create b) in
        let _, lg_s =
          time (fun () -> Loadgen.create ~config:(lg_config Paced ~seed ~sessions:paced_sessions) srv)
        in
        (boot_s, create_s, boot_s +. create_s +. lg_s))
  in
  ( median (List.map (fun (_, _, s) -> s) ts),
    median (List.map (fun (b, _, _) -> b) ts),
    median (List.map (fun (_, c, _) -> c) ts) )

(* Sum owner lines by name across ledger windows. *)
let merge_lines windows =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (lines, _) ->
      List.iter
        (fun (n, c) ->
          Hashtbl.replace tbl n (c + Option.value ~default:0 (Hashtbl.find_opt tbl n)))
        lines)
    windows;
  Hashtbl.fold (fun n c acc -> (n, c) :: acc) tbl []

(* The raw ledger, biggest owner first, on stderr. *)
let dump_lines lines =
  List.iter
    (fun (n, c) -> Printf.eprintf "  owner %-40s %12d cycles\n" n c)
    (List.sort (fun (_, a) (_, b) -> compare b a) lines)

(* The cycle-ledger metrics shared by every workload: [units] is the
   work count (requests or system calls), [pipe_ops] the pipe reads
   and writes among them, [opens] the opens. *)
let ledger_metrics ~units ~pipe_ops ~opens windows : metric list =
  let lines = merge_lines windows in
  dump_lines lines;
  let residual = List.fold_left (fun a (_, r) -> a + r) 0 windows in
  let per name d = ratio (fi (layer_cycles lines name)) (fi d) in
  [
    ("interrupt.cycles_per_req", per "interrupt" units);
    ("kserve.service_cycles_per_req", per "kserve.service" units);
    ("kserve.host_services_cycles_per_req", per "kserve.host_services" units);
    ("ctx.cycles_per_req", per "ctx" units);
    ("kqueue.cycles_per_req", per "kqueue" units);
    ("scheduler.yield_cycles_per_req", per "scheduler.yield" units);
    ("kserve.stage_cycles_per_req", per "kserve.stage" units);
    ("kpipe.cycles_per_op", per "kpipe" pipe_ops);
    ("unix_emulator.cycles_per_call", per "unix_emulator" units);
    ("thread.dispatch_cycles_per_op", per "thread.dispatch" units);
    ("vfs.cycles_per_open", per "vfs" opens);
    ("ledger.residual_cycles", fi residual);
  ]

let heap_mb () = fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Per-layer metrics of a serve workload from its plain repetitions,
   its ledger pass and its span pass. *)
let serve_layers ~setup ~reps ~ledger ~spans : metric list =
  let _, boot_s, create_s = setup in
  let ps = List.hd reps in
  let reqs = fi (total received ps) in
  let per_k n = 1000.0 *. ratio (fi n) reqs in
  let insns = total (fun p -> p.p_insns) ps in
  let nic f = total (fun p -> f p.p_nic) ps in
  let st f = total (fun p -> f p.p_stats) ps in
  let lg f = total (fun p -> f p.p_client) ps in
  let merged_paced f ps =
    List.fold_left (fun h p -> Histogram.merge h (f p)) (Histogram.create ()) (paced ps)
  in
  let p0 = List.hd ps in
  (* a stage's queue wait: the get-side wait of its flow(s), e.g.
     "kspan.serve.work1.get.wait_cycles" *)
  let wait_p99 stage =
    let pre = "kspan.serve." ^ stage and suf = ".get.wait_cycles" in
    let h =
      merged_paced
        (fun p ->
          List.fold_left
            (fun h (n, x) -> if starts n pre && ends n suf then Histogram.merge h x else h)
            (Histogram.create ()) p.p_hist)
        spans
    in
    us p0 1 *. quantile h 0.99
  in
  let mean_lat ps = Histogram.mean (merged_paced (fun p -> p.p_client.c_latency) ps) in
  [
    ( "machine.host_ns_per_insn",
      median (List.map (fun ps -> 1e9 *. serve_host ps /. fi insns) reps));
    ("machine.insns_per_req", ratio (fi insns) reqs);
    ("machine.cas_lost_per_kreq", per_k (total (fun p -> p.p_cas_lost) ps));
    ("nic.irqs_per_req", ratio (fi (nic (fun s -> s.Devices.Nic.s_irqs))) reqs);
    ("nic.rx_shed", fi (nic (fun s -> s.Devices.Nic.s_rx_shed)));
    ("nic.rx_overruns", fi (nic (fun s -> s.Devices.Nic.s_rx_overruns)));
  ]
  @ ledger_metrics ~units:(total received ledger) ~pipe_ops:(total received ledger)
      ~opens:(st (fun s -> s.Kserve.n_accepts))
      (List.filter_map (fun p -> p.p_ledger) ledger)
  @ [
      ("stream_graph.req.wait_p99_us", wait_p99 "req");
      ("stream_graph.work.wait_p99_us", wait_p99 "work");
      ("stream_graph.resp.wait_p99_us", wait_p99 "resp");
      ("kspan.overhead_ratio", ratio (mean_lat spans) (mean_lat ps) -. 1.0);
      ( "ksynth.accept_hit_ratio",
        ratio (fi (st (fun s -> s.Kserve.n_hits))) (fi (st (fun s -> s.Kserve.n_accepts))));
      ( "ksynth.open_hit_ratio",
        (let hits = total (fun p -> p.p_ksynth.Ksynth.st_hits) ps in
         ratio (fi hits) (fi (hits + total (fun p -> p.p_ksynth.Ksynth.st_misses) ps))));
      ("kserve.retunes_per_kreq", per_k (st (fun s -> s.Kserve.n_retunes)));
      ("smp.steals", fi (total (fun p -> p.p_steals) ps));
      ("smp.migrations", fi (total (fun p -> p.p_migrations) ps));
      ("loadgen.resent", fi (lg (fun c -> c.c_resent)));
      ("loadgen.abandoned", fi (lg (fun c -> c.c_abandoned)));
      ("loadgen.duplicates", fi (lg (fun c -> c.c_duplicates)));
      ("loadgen.errors", fi (lg (fun c -> c.c_errors)));
      ("loadgen.fail_ratio", ratio (fi (total failures ps)) (fi (total sent ps)));
      ("setup.boot_s", boot_s);
      ("setup.kserve_create_s", create_s);
    ]

let serve ~cores ~seed ~seconds ~trace =
  let setup = serve_setup ~cores ~seed in
  let setup_s, _, _ = setup in
  let reps = repeat ~seconds (fun () -> run_serve ~cores ~instrument:Plain ~seed) in
  let first = List.hd reps in
  let fp = serve_fingerprint first in
  let ok ps = List.for_all (fun p -> p.p_ok) ps && serve_fingerprint ps = fp in
  let correct = List.for_all ok reps in
  let attempted = total sent first in
  let failed = total failures first in
  if not trace then begin
    let metrics =
      [ ("setup_s", setup_s);
        ("host_s", median (List.map serve_host reps)) ]
      @ serve_sim first
      @ [ ("host_heap_mb", heap_mb ()) ]
    in
    (correct, attempted, failed, metrics)
  end
  else begin
    let ledger = run_serve ~cores ~instrument:Ledger ~seed in
    let spans = run_serve ~cores ~instrument:Spans ~seed in
    (* ktrace attached disabled is cycle-identical to the plain run *)
    let correct = correct && ok ledger && List.for_all (fun p -> p.p_ok) spans in
    (correct, attempted, failed, serve_layers ~setup ~reps ~ledger ~spans)
  end

(* ------------------------------------------------------------------ *)
(* unix_syscalls                                                       *)
(* ------------------------------------------------------------------ *)

type uprog = {
  u_name : string;
  u_iters : int;
  u_words : int;  (** words per write (pipe programs), 0 otherwise *)
  u_build : Programs.env -> Insn.insn list;
}

(* The three Table 1 programs; the seed picks each loop's iteration
   count within 1% (so the host work stays nearly constant) and the
   words the pipe carries. *)
let unix_programs ~seed =
  let pick i lo span = lo + (derive seed i mod span) in
  let n1 = pick 1 10_000 100 and n4 = pick 2 1000 10 and no = pick 3 5000 50 in
  [
    { u_name = "pipe_1w"; u_iters = n1; u_words = 1;
      u_build = (fun env -> Programs.pipe_rw env ~chunk:1 ~iters:n1) };
    { u_name = "pipe_4k"; u_iters = n4; u_words = 1024;
      u_build = (fun env -> Programs.pipe_rw env ~chunk:1024 ~iters:n4) };
    { u_name = "open_tty"; u_iters = no; u_words = 0;
      u_build = (fun env -> Programs.open_close ~name_addr:env.Programs.e_name_tty ~iters:no) };
  ]

type urun = {
  ur_prog : uprog;
  ur_ok : bool;  (** no fault, and the transfer buffer round-tripped intact *)
  ur_secs : float;  (** simulated seconds *)
  ur_cycles : int;
  ur_insns : int;
  ur_host_s : float;
  ur_ledger : ((string * int) list * int) option;
  ur_synth : int * int;  (** Ksynth hits, misses during the run *)
}

let run_unix_prog ~instrument ~seed prog =
  let se = Harness.synthesis_setup () in
  let k = se.Harness.s_boot.Boot.kernel in
  let m = k.Kernel.machine in
  let env = se.Harness.s_env in
  (* seeded words to carry through the pipe; the programs read each
     chunk back into the buffer they wrote it from *)
  let words = Array.init 1024 (fun i -> derive seed (i + 16) land 0xFFFF) in
  Array.iteri (fun i w -> Machine.poke m (env.Programs.e_buf + i) w) words;
  let led = attach instrument k in
  let program = prog.u_build env in
  let c0 = sum_cores m Machine.core_cycles and i0 = Machine.insns_executed m in
  let s0 = Ksynth.stats k in
  let secs, host_s =
    clean (fun () ->
        time (fun () -> try Some (Harness.synthesis_run se ~program) with Failure _ -> None))
  in
  let s1 = Ksynth.stats k in
  let intact = Array.for_all Fun.id (Array.mapi (fun i w -> Machine.peek m (env.Programs.e_buf + i) = w) words) in
  {
    ur_prog = prog;
    ur_ok = Option.is_some secs && intact;
    ur_secs = Option.value ~default:0.0 secs;
    ur_cycles = sum_cores m Machine.core_cycles - c0;
    ur_insns = Machine.insns_executed m - i0;
    ur_host_s = host_s;
    ur_ledger = Option.map (ledger_lines k) led;
    ur_synth = (s1.Ksynth.st_hits - s0.Ksynth.st_hits, s1.Ksynth.st_misses - s0.Ksynth.st_misses);
  }

let run_unix ~instrument ~seed =
  List.map (run_unix_prog ~instrument ~seed) (unix_programs ~seed)

let find rs name = List.find (fun r -> r.ur_prog.u_name = name) rs

(* Each loop iteration is two system calls. *)
let calls rs = List.fold_left (fun a r -> a + (2 * r.ur_prog.u_iters)) 0 rs

(* The Table 1 figures: µs per 1-word write+read pair, MB/s through
   the pipe at 4 KiB, µs per open+close. *)
let table1 rs : metric list =
  let per_iter r = 1e6 *. r.ur_secs /. fi r.ur_prog.u_iters in
  let p4 = find rs "pipe_4k" in
  [
    ("table1.pipe_1w_us", per_iter (find rs "pipe_1w"));
    ( "table1.pipe_4k_mbps",
      fi (4 * p4.ur_prog.u_words * p4.ur_prog.u_iters) /. p4.ur_secs /. 1e6);
    ("table1.open_us", per_iter (find rs "open_tty"));
  ]

(* The serve-shaped end-to-end metrics over the request mix, a
   request being one loop iteration (a write+read pair or an
   open+close): every iteration of a loop costs its loop's mean, so
   the quantiles pick out whole loops — p50 the 1-word pipe pair, p99
   the 4 KiB pair — and the mean and throughput weigh in the opens. *)
let unix_sim rs : metric list =
  let lat =
    List.sort compare
      (List.map (fun r -> (1e6 *. r.ur_secs /. fi r.ur_prog.u_iters, r.ur_prog.u_iters)) rs)
  in
  let n = List.fold_left (fun a (_, k) -> a + k) 0 lat in
  let q x =
    let target = x *. fi n in
    let rec go cum = function
      | [] -> 0.0
      | [ (l, _) ] -> l
      | (l, k) :: rest -> if fi (cum + k) >= target then l else go (cum + k) rest
    in
    go 0 lat
  in
  let secs = List.fold_left (fun a r -> a +. r.ur_secs) 0.0 rs in
  [
    ("throughput_rps", fi n /. secs);
    ("p50_us", q 0.5);
    ("p99_us", q 0.99);
    ("mean_us", 1e6 *. secs /. fi n);
  ]

let unix_fingerprint rs = List.map (fun r -> (r.ur_cycles, r.ur_insns, r.ur_synth)) rs
let unix_host rs = List.fold_left (fun a r -> a +. r.ur_host_s) 0.0 rs

let unix ~seed ~seconds ~trace =
  let setup =
    median
      (trials (fun () -> snd (time (fun () -> Harness.synthesis_setup ()))))
  in
  let reps = repeat ~seconds (fun () -> run_unix ~instrument:Plain ~seed) in
  let first = List.hd reps in
  let fp = unix_fingerprint first in
  let ok rs = List.for_all (fun r -> r.ur_ok) rs && unix_fingerprint rs = fp in
  let correct = List.for_all ok reps in
  let attempted = calls first in
  if not trace then
    ( correct,
      attempted,
      0,
      [ ("setup_s", setup); ("host_s", median (List.map unix_host reps)) ]
      @ unix_sim first
      @ [ ("host_heap_mb", heap_mb ()) ] )
  else begin
    let ledger = run_unix ~instrument:Ledger ~seed in
    let spans = run_unix ~instrument:Spans ~seed in
    let correct = correct && ok ledger && List.for_all (fun r -> r.ur_ok) spans in
    let insns = List.fold_left (fun a r -> a + r.ur_insns) 0 first in
    let op = find first "open_tty" in
    let hits, misses = op.ur_synth in
    let secs rs = List.fold_left (fun a r -> a +. r.ur_secs) 0.0 rs in
    let metrics =
      [ ( "machine.host_ns_per_insn",
          median (List.map (fun rs -> 1e9 *. unix_host rs /. fi insns) reps));
        ("machine.insns_per_req", ratio (fi insns) (fi attempted)) ]
      @ ledger_metrics ~units:attempted
          ~pipe_ops:(calls [ find first "pipe_1w"; find first "pipe_4k" ])
          ~opens:op.ur_prog.u_iters
          (List.filter_map (fun r -> r.ur_ledger) ledger)
      @ [ ("kspan.overhead_ratio", ratio (secs spans) (secs first) -. 1.0);
          ("ksynth.open_hit_ratio", ratio (fi hits) (fi (hits + misses)));
          ("setup.boot_s", setup) ]
      @ table1 first
    in
    (correct, attempted, 0, metrics)
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0) and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "serve_1c | serve_4c | unix_syscalls");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "host seconds to measure for");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    Arg.usage spec usage;
    exit 2
  end;
  let seed = !seed and seconds = !seconds and trace = !trace = 1 in
  let correct, attempted, failed, metrics =
    match !workload with
    | "serve_1c" -> serve ~cores:1 ~seed ~seconds ~trace
    | "serve_4c" -> serve ~cores:4 ~seed ~seconds ~trace
    | "unix_syscalls" -> unix ~seed ~seconds ~trace
    | w ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      exit 2
  in
  print_result ~correct ~attempted ~failed
    ~table:(if trace then per_layer else end_to_end)
    metrics
