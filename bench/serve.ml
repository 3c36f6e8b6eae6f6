(* kserve: serving throughput and request-latency tails under a
   seeded client storm (end to end: NIC rx ring → the serve pump's
   dispatch through synthesized per-connection routines → NIC tx
   ring).

   Five deterministic rows gate in `bench compare`:

   - clients_1c / clients_4c / clients_8c — the full client load on
     1, 4 and 8 cores (one serve pump and NIC queue per core):
     throughput (response megabytes per simulated second) and the
     p50/p99/p999 round-trip cycles; for 1 and 4 cores also the cycles per response spent in the pumps
     ([serve/pump]) and in the synthesized per-connection routines
     ([serve/conn]), from the exact per-owner attribution
     ({!Profile.collect}; ktrace is attached disabled, which leaves
     the run cycle-identical);
   - warm — a drained server restarted under the same load: the
     second run's accepts that missed the synthesis cache although
     the cold run had already built their serve/conn page (accept
     misses minus the serve/conn pages the second run added; 0 when
     the accept-path synthesis memo works);
   - overload — offered load far over capacity on 1 core:
     admission control must shed at the rx ring (asserted non-zero)
     while the p99 of the *served* requests stays gated.

   The driver passes ~scale (default 10 → 1,200 sessions) so the
   compare gate stays quick; the standalone `bench serve` subcommand
   runs scale 1 — 12,000 sessions, the ISSUE's ≥10k-client harness. *)

open Quamachine
open Synthesis
open Repro_harness

let base_clients = 12_000

(* Run budgets scale with the session count: at a fixed arrival rate
   the simulated time is linear in clients.  Sleeping pumps execute no
   instructions, so only the cycle budget can end a run whose server
   never drains. *)
let insn_budget clients = 500_000_000 + (2_000_000 * clients)
let cycle_budget clients = 20_000_000 + (100_000 * clients)

(* One serving run to completion: boot, serve, storm, drain.
   [allow_dups] is for retry-under-shedding rows: a response slower
   than the client's timeout is answered twice, and the straggler
   matches nothing in flight — client-visible retry fallout, not a
   server defect. *)
let run_load ~cores ?(allow_dups = false)
    ?(sv_config = fun c -> c) ?(lg_config = fun c -> c) ~clients () =
  let b = Boot.boot ~cores () in
  let k = b.Boot.kernel in
  ignore (Kernel.attach_spans k);
  Kernel.attach_tracing k (Ktrace.create ~enabled:false k.Kernel.machine);
  let srv =
    Kserve.create ~config:(sv_config Kserve.default_config) b
  in
  let lg =
    Loadgen.create
      ~config:
        (lg_config
           { Loadgen.default_config with Loadgen.lg_clients = clients })
      ~on_complete:(fun () -> Kserve.shutdown srv)
      srv
  in
  (match
     Boot.go ~max_insns:(insn_budget clients) ~max_cycles:(cycle_budget clients) b
   with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> failwith "serve bench: run did not converge");
  if not (Loadgen.finished lg) then failwith "serve bench: sessions unfinished";
  if (not allow_dups) && Loadgen.duplicates lg > 0 then
    failwith "serve bench: ledger violation";
  (srv, lg)

let mbps ~cycles ~responses =
  (* one-word (4-byte) responses at the native 50 MHz cost model *)
  let bytes = 4.0 *. float_of_int responses in
  let seconds = float_of_int cycles /. 50.0e6 in
  bytes /. 1.0e6 /. seconds

let record_latency ~row lg =
  let h = Loadgen.latency lg in
  List.iter
    (fun (metric, q) ->
      let v = Histogram.quantile h q in
      Fmt.pr "  %-14s %10d cycles@." metric v;
      Bench_json.record ~table:"serve" ~row ~metric (float_of_int v))
    [ ("p50_cycles", 0.5); ("p99_cycles", 0.99); ("p999_cycles", 0.999) ]

(* The cycles per response one layer's routine took: the exact owner
   line of [Profile.collect] named [owner]. *)
let record_layer ~row ~metric ~owner srv lg =
  let k = Kserve.kernel srv in
  let p = Profile.collect k (Pmu.create k.Kernel.machine) in
  let cycles =
    List.fold_left
      (fun a l -> if l.Profile.l_name = owner then a + l.Profile.l_cycles else a)
      0 p.Profile.p_owners
  in
  let v = float_of_int cycles /. float_of_int (max 1 (Loadgen.received lg)) in
  Fmt.pr "  %-20s %9.1f cycles per response@." metric v;
  Bench_json.record ~table:"serve" ~row ~metric v

let run ?(scale = 10) () =
  Harness.header "kserve: serving throughput and latency tails";
  let clients = max 100 (base_clients / max 1 scale) in
  (* 1, 4 and 8 cores, same offered load *)
  (* closed loop: the conn-id pool caps concurrency below the
     admission watermark, so the throughput rows measure a saturated
     but unshed server (sessions past the cap queue in the generator);
     the timeout is a safety net, not a steady-state path *)
  let closed_loop c =
    { c with Loadgen.lg_conn_ids = 48; lg_timeout_us = 20_000.0 }
  in
  List.iter
    (fun cores ->
      let row = Fmt.str "clients_%dc" cores in
      let srv, lg = run_load ~cores ~lg_config:closed_loop ~clients () in
      let tput = mbps ~cycles:(Loadgen.elapsed_cycles lg) ~responses:(Loadgen.received lg) in
      Fmt.pr "@.%d sessions, %d core%s: %d responses, %.3f MB/s@." clients
        cores
        (if cores = 1 then "" else "s")
        (Loadgen.received lg) tput;
      Bench_json.record ~table:"serve" ~row ~metric:"throughput_mbps" tput;
      record_latency ~row lg;
      if cores <= 4 then begin
        record_layer ~row ~metric:"pump_cycles_per_req" ~owner:"serve/pump" srv lg;
        record_layer ~row ~metric:"conn_cycles_per_req" ~owner:"serve/conn" srv lg
      end)
    [ 1; 4; 8 ];
  (* warm restart: the second run's accepts hit the synthesis cache *)
  let b = Boot.boot () in
  let srv = Kserve.create b in
  let warm_clients = min clients 400 in
  let go () =
    let lg =
      Loadgen.create
        ~config:
          (closed_loop
             { Loadgen.default_config with Loadgen.lg_clients = warm_clients })
        ~on_complete:(fun () -> Kserve.shutdown srv)
        srv
    in
    (match
       Boot.go ~max_insns:(insn_budget warm_clients)
         ~max_cycles:(cycle_budget warm_clients) b
     with
    | Machine.Halted -> ()
    | Machine.Insn_limit -> failwith "serve bench: warm run did not converge");
    ignore lg
  in
  let conn_pages () =
    List.length
      (List.filter
         (fun p -> p.Kernel.sp_name = "serve/conn")
         (Kernel.pages b.Boot.kernel))
  in
  go ();
  let st1 = Kserve.stats srv and pages1 = conn_pages () in
  Kserve.restart srv;
  go ();
  let st2 = Kserve.stats srv and pages2 = conn_pages () in
  let misses = st2.Kserve.n_misses - st1.Kserve.n_misses in
  let new_pages = pages2 - pages1 in
  Fmt.pr
    "@.warm restart: %d/%d accepts missed the synthesis cache, %d of them \
     building a first serve/conn page@."
    misses (st2.Kserve.n_accepts - st1.Kserve.n_accepts) new_pages;
  Bench_json.record ~table:"serve" ~row:"warm" ~metric:"warm_misses"
    (float_of_int (misses - new_pages));
  (* overload: a 1-core server against ~10x its capacity — admission
     control sheds at the NIC ring and the served tail stays bounded *)
  let srv, lg =
    run_load ~cores:1 ~allow_dups:true
      ~clients:(max 200 (clients / 4))
      ~sv_config:(fun c ->
        {
          c with
          Kserve.cfg_admit_hi = 48;
          cfg_admit_lo = 16;
          cfg_admit_limit = 8;
        })
      ~lg_config:(fun c ->
        {
          c with
          Loadgen.lg_rate_per_ms = 300.0;
          lg_think_us = 20.0;
          lg_timeout_us = 8000.0;
          lg_retries = 6;
          lg_seed = 3;
        })
      ()
  in
  let shed = (Kserve.stats srv).Kserve.n_shed in
  if shed = 0 then failwith "serve bench: overload never shed";
  let h = Loadgen.latency lg in
  Fmt.pr
    "@.overload (1 core): %d served, %d shed at the ring, p99 %d cycles@."
    (Loadgen.completed lg) shed
    (Histogram.quantile h 0.99);
  Bench_json.record ~table:"serve" ~row:"overload" ~metric:"shed_frames"
    (float_of_int shed);
  record_latency ~row:"overload" lg
