(* kserve end-to-end: a seeded load-generator run over the full stack
   (NIC rx ring → the serve pump's dispatch through synthesized
   per-connection service routines → NIC tx ring) completes every
   session exactly once, recycled slots included; a warm restart
   serves its accepts from the synthesis cache with a flat code
   footprint; overload arms admission control, sheds at the rx ring,
   and still converges; spans measure every served request. *)

open Quamachine
open Synthesis
open Repro_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_sessions_complete_exactly_once () =
  let boot = Boot.boot () in
  let k = boot.Boot.kernel in
  ignore (Kernel.attach_spans k);
  let srv = Kserve.create boot in
  let lg =
    Loadgen.create
      ~config:
        {
          Loadgen.default_config with
          lg_clients = 50;
          lg_reqs_per_session = 3;
        }
      ~on_complete:(fun () -> Kserve.shutdown srv)
      srv
  in
  (match Boot.go ~max_insns:40_000_000 boot with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "serve run did not converge");
  check_bool "all sessions finished" true (Loadgen.finished lg);
  check_bool "pump drained" true (Kserve.drained srv);
  check_int "every session completed" 50 (Loadgen.completed lg);
  check_int "nothing refused" 0 (Loadgen.refused lg);
  check_int "exactly-once: no unmatched responses" 0 (Loadgen.duplicates lg);
  check_int "no protocol errors" 0 (Loadgen.errors lg);
  check_int "no requests left in flight" 0 (Loadgen.in_flight lg);
  check_int "one send per receive" (Loadgen.sent lg) (Loadgen.received lg);
  let st = Kserve.stats srv in
  check_int "one accept per session" 50 st.Kserve.n_accepts;
  check_int "one close per session" 50 st.Kserve.n_closes;
  check_int "every slot returned" 0 (Kserve.open_slots srv);
  check_bool "the pump answered every request" true
    (st.Kserve.n_responses >= Loadgen.received lg);
  (* spans: every request's latency was measured *)
  let h = Loadgen.latency lg in
  check_int "a latency sample per response" (Loadgen.received lg)
    (Histogram.count h);
  check_bool "the controller retuned the pump's quantum" true (st.Kserve.n_retunes > 0)

(* The load generator is a device that fires at its next client event:
   its ticks are O(events), not O(instructions).  (With deadlines that
   stayed due after a tick it ran on every step once its first event
   had fired — millions of ticks for a few hundred events.) *)
let test_loadgen_ticks_per_event () =
  let boot = Boot.boot () in
  let m = boot.Boot.kernel.Kernel.machine in
  let ticks = ref 0 in
  Machine.set_hooks m
    (Some
       {
         Machine.h_post = (fun ~source:_ ~level:_ ~vector:_ -> ());
         h_irq = (fun ~level:_ ~vector:_ -> ());
         h_device = (fun name -> if name = "loadgen" then incr ticks);
         h_fault = (fun _ -> ());
       });
  let srv = Kserve.create boot in
  let sessions = 50 in
  let lg =
    Loadgen.create
      ~config:
        { Loadgen.default_config with lg_clients = sessions; lg_reqs_per_session = 3 }
      ~on_complete:(fun () -> Kserve.shutdown srv)
      srv
  in
  (match Boot.go ~max_insns:40_000_000 boot with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "serve run did not converge");
  Machine.set_hooks m None;
  check_bool "all sessions finished" true (Loadgen.finished lg);
  (* each session arrives once; each send arms at most one timeout and
     its response at most one think-time event *)
  let events = sessions + (2 * Loadgen.sent lg) in
  check_bool
    (Printf.sprintf "loadgen ticks %d <= events %d" !ticks events)
    true
    (!ticks > 0 && !ticks <= events);
  (* against cycles, not instructions: the serving core sleeps
     between requests, so a run executes few instructions, but a tick
     per step would still cost at least one cycle each *)
  check_bool "far fewer ticks than cycles" true
    (!ticks * 100 < Machine.cycles m)

let test_warm_restart_hits_cache () =
  let boot = Boot.boot () in
  let srv = Kserve.create boot in
  let run () =
    let lg =
      Loadgen.create
        ~config:{ Loadgen.default_config with lg_clients = 40; lg_seed = 7 }
        ~on_complete:(fun () -> Kserve.shutdown srv)
        srv
    in
    (match Boot.go ~max_insns:60_000_000 boot with
    | Machine.Halted -> ()
    | Machine.Insn_limit -> Alcotest.fail "serve run did not converge");
    check_bool "sessions finished" true (Loadgen.finished lg)
  in
  run ();
  let st1 = Kserve.stats srv in
  let fp1 = Ksynth.footprint_words (Kserve.kernel srv) in
  check_int "cold run misses for every accept" st1.Kserve.n_accepts
    st1.Kserve.n_misses;
  Kserve.restart srv;
  run ();
  let st2 = Kserve.stats srv in
  let fp2 = Ksynth.footprint_words (Kserve.kernel srv) in
  let warm_accepts = st2.Kserve.n_accepts - st1.Kserve.n_accepts in
  let warm_hits = st2.Kserve.n_hits - st1.Kserve.n_hits in
  check_bool
    (Printf.sprintf "warm accepts are cache hits (%d/%d)" warm_hits
       warm_accepts)
    true
    (float_of_int warm_hits >= 0.9 *. float_of_int warm_accepts);
  check_int "code footprint stayed flat across the restart" fp1 fp2;
  check_bool "drained again" true (Kserve.drained srv)

let test_overload_sheds_and_converges () =
  let boot = Boot.boot () in
  let srv =
    Kserve.create
      ~config:
        {
          Kserve.default_config with
          cfg_admit_hi = 48;
          cfg_admit_lo = 16;
          cfg_admit_limit = 8;
        }
      boot
  in
  let lg =
    Loadgen.create
      ~config:
        {
          Loadgen.default_config with
          lg_clients = 300;
          lg_rate_per_ms = 300.0;
          lg_think_us = 20.0;
          lg_timeout_us = 8000.0;
          lg_retries = 6;
          lg_seed = 3;
        }
      ~on_complete:(fun () -> Kserve.shutdown srv)
      srv
  in
  (match Boot.go ~max_insns:200_000_000 boot with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "overload run did not converge");
  let st = Kserve.stats srv in
  check_bool "admission control shed at the rx ring" true (st.Kserve.n_shed > 0);
  check_bool "clients retried through the shedding" true
    (Loadgen.resent lg > 0);
  check_int "the ledger stayed exactly-once under overload" 0
    (Loadgen.duplicates lg);
  check_bool "some sessions were still served" true (Loadgen.completed lg > 0);
  check_bool "pump drained after the storm" true (Kserve.drained srv)

(* A full tx ring makes the pump spin before it stores a response;
   the spins must neither open nor close spans.  Every request opens
   exactly one serve span, and its response closes it.  One-entry
   rings and a slow card tick drive the spin: the card tops up the rx
   ring while the pump still holds a request, so its next store finds
   the tx ring full until the following tick.  Frames that overrun the
   one-entry rx ring are lost, so clients resend after a timeout. *)
let test_spans_survive_backpressure () =
  let boot = Boot.boot () in
  let k = boot.Boot.kernel in
  let m = k.Kernel.machine in
  let tr = Ktrace.create ~capacity:(1 lsl 18) m in
  Kernel.attach_tracing k tr;
  let sp = Kernel.attach_spans k in
  let ring_len = 1 in
  let srv =
    Kserve.create
      ~config:
        {
          Kserve.default_config with
          cfg_ring_len = ring_len;
          cfg_coalesce = 1;
          cfg_poll_us = 20.0;
        }
      boot
  in
  (* a card tick that finds the tx ring full while the pump holds a
     request (an open span): the pump cannot store until it drains *)
  let full_ticks = ref 0 in
  Machine.set_hooks m
    (Some
       {
         Machine.h_post = (fun ~source:_ ~level:_ ~vector:_ -> ());
         h_irq = (fun ~level:_ ~vector:_ -> ());
         h_device =
           (fun name ->
             if name = "nic" then begin
               let laid = (Kserve.stats srv).Kserve.n_responses in
               if
                 Kspan.open_count sp > 0
                 && laid - Devices.Nic.tx_tail (Kserve.nic srv) >= ring_len
               then incr full_ticks
             end);
         h_fault = (fun _ -> ());
       });
  let lg =
    Loadgen.create
      ~config:
        {
          Loadgen.default_config with
          lg_clients = 20;
          lg_reqs_per_session = 3;
          lg_rate_per_ms = 100.0;
          lg_timeout_us = 2000.0;
          lg_retries = 8;
        }
      ~on_complete:(fun () -> Kserve.shutdown srv)
      srv
  in
  (match Boot.go ~max_insns:40_000_000 boot with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "serve run did not converge");
  Machine.set_hooks m None;
  check_bool "drained" true (Kserve.drained srv);
  check_int "trace kept every event" 0 (Ktrace.dropped tr);
  check_bool
    (Printf.sprintf "the pump met a full tx ring (%d ticks)" !full_ticks)
    true (!full_ticks > 0);
  check_int "no span left open" 0 (Kspan.open_count sp);
  let requests = (Kserve.stats srv).Kserve.n_responses in
  let serve_opens =
    List.length
      (List.filter
         (fun e ->
           match e.Ktrace.ev_kind with
           | Ktrace.Span_open (_, "serve") -> true
           | _ -> false)
         (Ktrace.events tr))
  in
  check_int "one serve span opened per request" requests serve_opens;
  check_int "one serve span closed per request" requests
    (Histogram.count (Metrics.histogram k.Kernel.metrics "kspan.serve.total_cycles"));
  check_int "a latency sample per response" (Loadgen.received lg)
    (Histogram.count (Loadgen.latency lg))

(* Slot recycling under a paced load (perfbench serve_1c, seed 1, its
   second paced sub-run).  A slot is reused as soon as its close is
   handled; when the close ack could still be queued behind the
   recycled slot's open response, a client attributed responses to the
   wrong session: duplicates, op_err answers, resends and abandoned
   sessions.  The pump lays each close ack on the tx ring before it
   reads the next frame, so none of them may appear. *)
let test_recycled_slot_keeps_close_order () =
  let boot = Boot.boot () in
  let srv = Kserve.create boot in
  let lg =
    Loadgen.create
      ~config:
        {
          Loadgen.default_config with
          lg_clients = 1200;
          lg_seed = 112649;
          lg_rate_per_ms = 0.8;
          lg_timeout_us = 20_000.0;
        }
      ~on_complete:(fun () -> Kserve.shutdown srv)
      srv
  in
  (match Boot.go ~max_insns:2_000_000_000 boot with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "serve run did not converge");
  check_bool "all sessions finished" true (Loadgen.finished lg);
  check_int "no duplicate responses" 0 (Loadgen.duplicates lg);
  check_int "no op_err responses" 0 (Loadgen.errors lg);
  check_int "no resends" 0 (Loadgen.resent lg);
  check_int "no abandoned sessions" 0 (Loadgen.abandoned lg);
  check_bool "slots were recycled" true
    ((Kserve.stats srv).Kserve.n_accepts > (Kserve.config srv).Kserve.cfg_slots)

let test_host_accept_slot_discipline () =
  let boot = Boot.boot () in
  let srv = Kserve.create boot in
  let cfg = Kserve.config srv in
  (* an open answers with the slot and echoes the connection *)
  let r = Kserve.host_accept srv ~conn:9 ~file:0 in
  check_bool "open accepted" true (Kserve.msg_op r <> Kserve.op_err);
  check_int "connection echoed" 9 (Kserve.msg_arg r);
  (* the same connection opening again is idempotent: same slot, no
     second slot consumed *)
  let dup = Kserve.host_accept srv ~conn:9 ~file:1 in
  check_int "duplicate open returns the same slot" (Kserve.msg_id r)
    (Kserve.msg_id dup);
  check_int "one slot in use" 1 (Kserve.open_slots srv);
  check_int "the duplicate was counted" 1 (Kserve.stats srv).Kserve.n_dup_opens;
  Kserve.host_close srv ~slot:(Kserve.msg_id r);
  check_int "slot returned on close" 0 (Kserve.open_slots srv);
  (* slot exhaustion refuses with op_err and a zero id *)
  for c = 0 to cfg.Kserve.cfg_slots - 1 do
    let r = Kserve.host_accept srv ~conn:(100 + c) ~file:(c mod 4) in
    check_bool "filling opens accepted" true (Kserve.msg_op r <> Kserve.op_err)
  done;
  let r = Kserve.host_accept srv ~conn:9999 ~file:0 in
  check_int "the table-full open is refused" Kserve.op_err (Kserve.msg_op r);
  check_int "refusals carry id 0" 0 (Kserve.msg_id r);
  check_int "refusal counted" 1 (Kserve.stats srv).Kserve.n_refused

let () =
  Alcotest.run "serve"
    [
      ( "kserve",
        [
          Alcotest.test_case "sessions complete exactly once" `Quick
            test_sessions_complete_exactly_once;
          Alcotest.test_case "load generator ticks per event" `Quick
            test_loadgen_ticks_per_event;
          Alcotest.test_case "warm restart hits the synthesis cache" `Quick
            test_warm_restart_hits_cache;
          Alcotest.test_case "overload sheds and converges" `Quick
            test_overload_sheds_and_converges;
          Alcotest.test_case "spans survive backpressure" `Quick
            test_spans_survive_backpressure;
          Alcotest.test_case "recycled slot keeps close order" `Quick
            test_recycled_slot_keeps_close_order;
          Alcotest.test_case "host accept/close slot discipline" `Quick
            test_host_accept_slot_discipline;
        ] );
    ]
