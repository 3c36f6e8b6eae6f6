(* kserve end-to-end: a seeded load-generator run over the full stack
   (NIC rx ring → the serve pumps' dispatch through synthesized
   per-connection service routines → NIC tx ring) completes every
   session exactly once, recycled slots included; its paced arrivals
   burst every 8th instant; every kind of (slot, op) dispatch entry
   answers correctly on the wire; a warm restart serves its accepts
   from the synthesis cache with a flat code footprint; overload arms
   admission control, sheds at the rx ring, and still converges;
   spans measure every served request.  The per-core pumps sleep
   without losing a wakeup, drain on shutdown, keep cross-core appends
   to one file exact, and share a saturated load evenly; a lone pump's
   quantum timer never switches it to itself, yet a thread made ready
   next to it still gets turns; a client times a straggler from its
   first send. *)

open Quamachine
open Synthesis
open Repro_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Run a served load to its halt.  A pump with nothing to do sleeps,
   and a machine whose cores all sleep executes no instructions while
   its devices tick on, so the run is bounded in simulated cycles as
   well: a server that never drains fails here instead of hanging. *)
let serve_to_halt ~max_insns ~max_cycles ~what boot =
  match Boot.go ~max_insns ~max_cycles boot with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail (what ^ " did not converge")

(* The address of the first instruction matching [f] in the pump's
   page (core 0's pump on a one-core server). *)
let pump_insn k f =
  match Kernel.find_region_by_name k "serve/pump" with
  | None -> Alcotest.fail "no serve/pump region"
  | Some r ->
    let rec find a =
      if a >= r.Kernel.sp_entry + r.Kernel.sp_len then
        Alcotest.fail "instruction not in the pump"
      else if f (Machine.read_code k.Kernel.machine a) then a
      else find (a + 1)
    in
    find r.Kernel.sp_entry

(* The live pump thread of a one-core server: the thread started on
   the pump page's entry. *)
let pump_thread k =
  match Kernel.find_region_by_name k "serve/pump" with
  | None -> Alcotest.fail "no serve/pump region"
  | Some r -> (
    match
      Hashtbl.fold
        (fun _ t acc -> if t.Kernel.entry = r.Kernel.sp_entry then Some t else acc)
        k.Kernel.threads None
    with
    | Some t -> t
    | None -> Alcotest.fail "no pump thread")

(* Is the pump's quantum-timer vector its page's tick stub? *)
let pump_timer_is_tick k =
  let tick = pump_insn k (function Insn.Push (Insn.Reg r) -> r = Insn.r9 | _ -> false) in
  Machine.peek k.Kernel.machine
    (Kernel.vector_addr (pump_thread k) Mmio_map.timer_vector)
  = tick

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
  serve_to_halt ~max_insns:40_000_000 ~max_cycles:2_000_000 ~what:"serve run" boot;
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
  check_int "a pump alone on its core is never retuned" 0 st.Kserve.n_retunes

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
  serve_to_halt ~max_insns:40_000_000 ~max_cycles:2_000_000 ~what:"serve run" boot;
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

(* The paced arrival shape: sessions start in groups, one group per
   arrival instant, and every 8th instant starts 1 + 4 sessions where
   every other starts one (the last group is cut to the sessions left).
   A think time far past the run keeps every session at its open, so
   each load-generator tick's sends are exactly the sessions that
   arrived at that instant. *)
let test_arrival_bursts () =
  let boot = Boot.boot () in
  let m = boot.Boot.kernel.Kernel.machine in
  let srv = Kserve.create boot in
  let sessions = 45 in
  let lg =
    Loadgen.create
      ~config:
        {
          Loadgen.default_config with
          lg_clients = sessions;
          lg_rate_per_ms = 0.8;
          lg_think_us = 1e12;
        }
      srv
  in
  (* a hook runs before its device's tick: a tick's sends show at the
     next device tick *)
  let groups = ref [] and tick_start = ref None in
  let close_tick () =
    match !tick_start with
    | Some sent when Loadgen.sent lg > sent -> groups := (Loadgen.sent lg - sent) :: !groups
    | _ -> ()
  in
  Machine.set_hooks m
    (Some
       {
         Machine.h_post = (fun ~source:_ ~level:_ ~vector:_ -> ());
         h_irq = (fun ~level:_ ~vector:_ -> ());
         h_device =
           (fun name ->
             close_tick ();
             tick_start := if name = "loadgen" then Some (Loadgen.sent lg) else None);
         h_fault = (fun _ -> ());
       });
  (match Boot.go ~max_insns:40_000_000 ~max_cycles:4_000_000 boot with
  | Machine.Insn_limit -> ()
  | Machine.Halted -> Alcotest.fail "sessions closed before their think time");
  close_tick ();
  Machine.set_hooks m None;
  let rec expected instant left =
    if left = 0 then []
    else
      let n = min left (if instant mod 8 = 0 then 5 else 1) in
      n :: expected (instant + 1) (left - n)
  in
  check_int "every session opened" sessions (Loadgen.sent lg);
  Alcotest.(check (list int))
    "sessions per arrival instant" (expected 1 sessions) (List.rev !groups)

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
    serve_to_halt ~max_insns:60_000_000 ~max_cycles:4_000_000 ~what:"serve run" boot;
    check_bool "sessions finished" true (Loadgen.finished lg)
  in
  run ();
  let st1 = Kserve.stats srv in
  let fp1 = (Ksynth.stats (Kserve.kernel srv)).Ksynth.st_footprint_words in
  check_int "cold run misses for every accept" st1.Kserve.n_accepts
    st1.Kserve.n_misses;
  Kserve.restart srv;
  check_bool "the restarted pump's timer vector is its tick stub" true
    (pump_timer_is_tick (Kserve.kernel srv));
  run ();
  let st2 = Kserve.stats srv in
  let fp2 = (Ksynth.stats (Kserve.kernel srv)).Ksynth.st_footprint_words in
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
  serve_to_halt ~max_insns:200_000_000 ~max_cycles:10_000_000 ~what:"overload run" boot;
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
  let tr = Ktrace.create m in
  Kernel.attach_tracing k tr;
  let sp = Kernel.attach_spans k in
  let ring_len = 1 in
  let srv =
    Kserve.create
      ~config:
        {
          Kserve.default_config with
          cfg_ring_len = ring_len;
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
  serve_to_halt ~max_insns:40_000_000 ~max_cycles:4_000_000 ~what:"serve run" boot;
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

(* The controller's rates are windowed counts: each epoch's [gauge]
   is the growth of [count] over the epoch before, per kilocycle.
   Sampled just before each controller tick, a value is checked
   against the counts between the two ticks before it. *)
let check_rate_tracks ~gauge ~count ~what =
  let boot = Boot.boot () in
  let k = boot.Boot.kernel in
  let m = k.Kernel.machine in
  let srv = Kserve.create boot in
  let g = Metrics.gauge k.Kernel.metrics gauge in
  let samples = ref [] in
  Machine.set_hooks m
    (Some
       {
         Machine.h_post = (fun ~source:_ ~level:_ ~vector:_ -> ());
         h_irq = (fun ~level:_ ~vector:_ -> ());
         h_device =
           (fun name ->
             if name = "serve-ctl" then
               samples := (Machine.cycles m, count srv, Metrics.gauge_value g) :: !samples);
         h_fault = (fun _ -> ());
       });
  let lg =
    Loadgen.create
      ~config:{ Loadgen.default_config with lg_clients = 100; lg_rate_per_ms = 4.0 }
      ~on_complete:(fun () -> Kserve.shutdown srv)
      srv
  in
  serve_to_halt ~max_insns:40_000_000 ~max_cycles:10_000_000 ~what:"paced run" boot;
  Machine.set_hooks m None;
  check_bool "all sessions finished" true (Loadgen.finished lg);
  let rec check = function
    | (_, _, rate) :: ((c1, d1, _) :: (c0, d0, _) :: _ as rest) ->
      let want = 1000.0 *. float_of_int (d1 - d0) /. float_of_int (c1 - c0) in
      if Float.abs (rate -. want) > 1e-9 *. Float.max 1.0 want then
        Alcotest.failf "%s rate %g, counts say %g" what rate want;
      check rest
    | _ -> ()
  in
  check !samples;
  check_bool "enough epochs sampled" true (List.length !samples > 20);
  check_bool ("the rate saw " ^ what) true
    (List.exists (fun (_, _, rate) -> rate > 0.0) !samples)

(* "serve.arrival_rate" counts the card's rx deliveries. *)
let test_arrival_rate_tracks_deliveries () =
  check_rate_tracks ~gauge:"serve.arrival_rate" ~what:"arrival"
    ~count:(fun srv -> (Devices.Nic.stats (Kserve.nic srv)).Devices.Nic.s_rx_delivered)

(* "serve.service_rate" counts the responses the pumps laid (the sum
   of their tx doorbell cells, [n_responses]). *)
let test_service_rate_tracks_responses () =
  check_rate_tracks ~gauge:"serve.service_rate" ~what:"service"
    ~count:(fun srv -> (Kserve.stats srv).Kserve.n_responses)

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
  serve_to_halt ~max_insns:2_000_000_000 ~max_cycles:100_000_000 ~what:"serve run" boot;
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

(* A straggler's round trip is timed from its first send.  The card
   drops the first rx frame (the first open), so the client resends it
   once after its timeout; the recorded round trip of that open must
   cover the whole timeout, not just the resend. *)
let test_straggler_timed_from_first_send () =
  let boot = Boot.boot () in
  let m = boot.Boot.kernel.Kernel.machine in
  let srv = Kserve.create boot in
  let timeout_us = 2000.0 in
  let lg =
    Loadgen.create
      ~config:
        {
          Loadgen.default_config with
          lg_clients = 5;
          lg_reqs_per_session = 2;
          lg_timeout_us = timeout_us;
        }
      ~on_complete:(fun () -> Kserve.shutdown srv)
      srv
  in
  Machine.frame_fault m ~device:"nic" ~dir:0 ~kind:0;
  serve_to_halt ~max_insns:40_000_000 ~max_cycles:2_000_000 ~what:"serve run" boot;
  check_bool "all sessions finished" true (Loadgen.finished lg);
  check_int "the dropped open was resent once" 1 (Loadgen.resent lg);
  check_int "no duplicate responses" 0 (Loadgen.duplicates lg);
  let timeout = Cost.cycles_of_us (Machine.cost_model m) timeout_us in
  let worst = Histogram.max_value (Loadgen.latency lg) in
  check_bool
    (Printf.sprintf "the straggler's round trip (%d cycles) covers its timeout (%d)"
       worst timeout)
    true (worst >= timeout)

(* Step the machine until [pred] holds or [cycles] of simulated time
   pass; a sleeping machine executes no instructions, so the bound is
   on cycles, not steps. *)
let step_until m ~cycles pred =
  let limit = Machine.cycles m + cycles in
  while (not (pred ())) && Machine.cycles m < limit && not (Machine.halted m) do
    Machine.step m
  done;
  pred ()

(* Feed one frame to the card and run its service tick now: the frame
   is in the rx ring (mailbox written, the queue's interrupt posted if
   it is armed) before the core's next instruction. *)
let deliver_now m nic frame =
  Devices.Nic.inject nic [| frame |];
  match Machine.find_device m "nic" with
  | Some d -> d.Machine.dev_tick m
  | None -> Alcotest.fail "no nic device"

(* Count the card's interrupt entries from now on.  (The quantum
   timer's are not the pump's business: it runs while the pump is
   awake.) *)
let count_nic_entries m =
  let n = ref 0 in
  Machine.set_hooks m
    (Some
       {
         Machine.h_post = (fun ~source:_ ~level:_ ~vector:_ -> ());
         h_irq = (fun ~level ~vector:_ -> if level = Mmio_map.nic_level then incr n);
         h_device = (fun _ -> ());
         h_fault = (fun _ -> ());
       });
  n

(* Boot a one-core server and run it up to its first instruction. *)
let one_core_server () =
  let boot = Boot.boot () in
  let srv = Kserve.create boot in
  (match Boot.go ~max_insns:1 boot with
  | Machine.Insn_limit -> ()
  | Machine.Halted -> Alcotest.fail "halted at once");
  (boot.Boot.kernel, srv)

(* Lost wakeup: a frame lands while the pump is on its way to sleep —
   at the wait trap, after the pump's own empty check; then in front
   of each instruction of the wait handler up to its Stop_wait, the
   window between the arm store and the mailbox re-read among them.
   Each time it must be served with no second frame to wake the pump,
   and with no interrupt entry: a frame that beats the arm is seen by
   the re-check, and the interrupt a later one posts is acknowledged
   inside the handler.  A second frame landing as the handler returns
   finds the queue disarmed, so it takes no interrupt either. *)
let test_no_lost_wakeup () =
  let k0, _ = one_core_server () in
  let trap = pump_insn k0 (function Insn.Trap 15 -> true | _ -> false) in
  let wait = pump_insn k0 (function Insn.Set_ipl 7 -> true | _ -> false) in
  let stop = pump_insn k0 (function Insn.Stop_wait -> true | _ -> false) in
  List.iter
    (fun target ->
      let k, srv = one_core_server () in
      let m = k.Kernel.machine in
      let nic = Kserve.nic srv in
      let where =
        Fmt.str "frame at wait%+d (%a)" (target - wait) Insn.pp
          (Machine.read_code m target)
      in
      check_bool (where ^ ": the pump reached it") true
        (step_until m ~cycles:100_000 (fun () -> Machine.core_pc m 0 = target));
      let entries = count_nic_entries m in
      deliver_now m nic (Kserve.pack ~id:7 ~op:Kserve.op_open ~arg:0);
      check_int (where ^ ": the frame is in the ring") 1 (Devices.Nic.rx_head nic);
      check_bool (where ^ ": the handler returned into the pump") true
        (step_until m ~cycles:100_000 (fun () -> Machine.core_pc m 0 = trap + 1));
      deliver_now m nic (Kserve.pack ~id:9 ~op:Kserve.op_open ~arg:0);
      let answered () = (Kserve.stats srv).Kserve.n_responses = 2 in
      check_bool (where ^ ": both frames served") true
        (step_until m ~cycles:200_000 answered);
      check_int (where ^ ": no interrupt entry") 0 !entries)
    (trap :: List.init (stop - wait + 1) (fun i -> wait + i))

(* The wake of a sleeping pump is taken inside its wait handler: the
   frame is answered and the core takes no interrupt entry at all. *)
let test_wake_takes_no_interrupt () =
  let k, srv = one_core_server () in
  let m = k.Kernel.machine in
  check_bool "the pump went to sleep" true
    (step_until m ~cycles:100_000 (fun () -> Machine.core_stopped m 0));
  let irqs = Machine.core_irqs m 0 in
  Devices.Nic.inject (Kserve.nic srv) [| Kserve.pack ~id:7 ~op:Kserve.op_open ~arg:0 |];
  check_bool "the frame is answered" true
    (step_until m ~cycles:100_000 (fun () -> (Kserve.stats srv).Kserve.n_responses = 1));
  check_int "no interrupt entry" irqs (Machine.core_irqs m 0)

(* One jump per request: the pump indexes its (slot, op) table with
   the request word shifted right by [op_shift].  Frames go in through
   the card like a client's and each answer is read off the wire.  Ops
   on a free slot, ops no routine has, and data frames past the table
   answer op_err with the frame's id; opens below and above the table
   size are both accepted; after a close, the slot's read, write and
   close answer op_err again while another live slot still serves. *)
let test_dispatch_on_the_wire () =
  let k, srv = one_core_server () in
  let m = k.Kernel.machine in
  let nic = Kserve.nic srv in
  let slots = (Kserve.config srv).Kserve.cfg_slots in
  let wire = ref [] in
  Devices.Nic.set_tx_sink nic (Some (fun f -> wire := f.(0) :: !wire));
  let ask what ~id ~op ~arg =
    let before = List.length !wire in
    Devices.Nic.inject nic [| Kserve.pack ~id ~op ~arg |];
    if not (step_until m ~cycles:200_000 (fun () -> List.length !wire > before)) then
      Alcotest.fail (what ^ ": no answer");
    List.hd !wire
  in
  let check_err what ~id ~op =
    check_int what (Kserve.pack ~id ~op:Kserve.op_err ~arg:0) (ask what ~id ~op ~arg:9)
  in
  let data_ops = [ Kserve.op_read; Kserve.op_write; Kserve.op_close ] in
  List.iter
    (fun op -> check_err (Fmt.str "op %d on free slot 5" op) ~id:5 ~op)
    data_ops;
  let opened conn =
    let r = ask (Fmt.str "open of conn %d" conn) ~id:conn ~op:Kserve.op_open ~arg:0 in
    check_int (Fmt.str "conn %d accepted" conn) Kserve.op_open (Kserve.msg_op r);
    check_int (Fmt.str "conn %d echoed" conn) conn (Kserve.msg_arg r);
    Kserve.msg_id r
  in
  let low = opened 3 and high = opened (slots + 100) in
  check_int "two slots live" 2 (Kserve.open_slots srv);
  List.iter
    (fun op -> check_err (Fmt.str "op %d on live slot %d" op low) ~id:low ~op)
    [ 0; 5; 6; 7 ];
  check_err "a read past the table" ~id:slots ~op:Kserve.op_read;
  check_err "a close past the table" ~id:(slots + 100) ~op:Kserve.op_close;
  let served what ~id ~op =
    let r = ask what ~id ~op ~arg:9 in
    check_int (what ^ ": id") id (Kserve.msg_id r);
    check_int (what ^ ": op") op (Kserve.msg_op r)
  in
  List.iter
    (fun op -> served (Fmt.str "op %d on live slot %d" op low) ~id:low ~op)
    [ Kserve.op_read; Kserve.op_write ];
  check_int "close acked"
    (Kserve.pack ~id:low ~op:Kserve.op_close ~arg:0)
    (ask "close" ~id:low ~op:Kserve.op_close ~arg:0);
  check_int "one slot live" 1 (Kserve.open_slots srv);
  List.iter
    (fun op -> check_err (Fmt.str "op %d on closed slot %d" op low) ~id:low ~op)
    data_ops;
  served (Fmt.str "a read on live slot %d" high) ~id:high ~op:Kserve.op_read

(* A refused open is answered with id 0, but its span is its own
   pump's.  Two cores, two slots: slot 0 is pump 0's and slot 1 pump
   1's.  With slot 1 held, a slot-0 read passes pump 0's open probe and
   core 0 stalls for [stall] cycles; meanwhile pump 1 refuses an odd
   conn's open.  The refusal must not close the read's span: that span
   closes when pump 0 stores the read's response, [stall] cycles on. *)
let test_refusal_keeps_other_pumps_span () =
  let boot = Boot.boot ~cores:2 () in
  let k = boot.Boot.kernel in
  let m = k.Kernel.machine in
  let sp = Kernel.attach_spans k in
  let srv = Kserve.create ~config:{ Kserve.default_config with cfg_slots = 2 } boot in
  (match Boot.go ~max_insns:1 boot with
  | Machine.Insn_limit -> ()
  | Machine.Halted -> Alcotest.fail "halted at once");
  let nic = Kserve.nic srv in
  let answers = ref 0 in
  Devices.Nic.set_tx_sink nic (Some (fun _ -> incr answers));
  let send what frame =
    let before = !answers in
    deliver_now m nic frame;
    if not (step_until m ~cycles:200_000 (fun () -> !answers > before)) then
      Alcotest.fail (what ^ ": no answer")
  in
  send "open of conn 0" (Kserve.pack ~id:0 ~op:Kserve.op_open ~arg:0);
  send "open of conn 1" (Kserve.pack ~id:1 ~op:Kserve.op_open ~arg:0);
  check_int "both slots held" 2 (Kserve.open_slots srv);
  let stall = 50_000 in
  deliver_now m nic (Kserve.pack ~id:0 ~op:Kserve.op_read ~arg:0);
  check_bool "pump 0 opened the read's span" true
    (step_until m ~cycles:200_000 (fun () -> Kspan.open_count sp = 1));
  Machine.stall_core m ~cpu:0 ~cycles:stall;
  send "open of conn 3" (Kserve.pack ~id:3 ~op:Kserve.op_open ~arg:0);
  check_int "pump 1 refused conn 3" 1 (Kserve.stats srv).Kserve.n_refused;
  check_bool "the read is answered" true
    (step_until m ~cycles:200_000 (fun () -> !answers = 4));
  check_int "no span left open" 0 (Kspan.open_count sp);
  check_int "no orphan close" 0 (Metrics.read k.Kernel.metrics "kspan.orphan_closes");
  let total = Metrics.histogram k.Kernel.metrics "kspan.serve.total_cycles" in
  check_int "a span per request" 4 (Histogram.count total);
  check_bool
    (Printf.sprintf "the read's span spans the stall (%d >= %d)"
       (Histogram.max_value total) stall)
    true
    (Histogram.max_value total >= stall)

(* perfbench serve_1c's saturated phase (seed 1): 600 sessions of a
   48-client closed loop on one core. *)
let saturated_1c ?(config = Kserve.default_config) () =
  let boot = Boot.boot () in
  let srv = Kserve.create ~config boot in
  let lg =
    Loadgen.create
      ~config:
        {
          Loadgen.default_config with
          lg_clients = 600;
          lg_conn_ids = 48;
          lg_timeout_us = 20_000.0;
          lg_seed = 636294;
        }
      ~on_complete:(fun () -> Kserve.shutdown srv)
      srv
  in
  (boot, srv, lg)

let check_saturated_run lg =
  check_int "every session completed" 600 (Loadgen.completed lg);
  check_int "no resends" 0 (Loadgen.resent lg);
  check_int "no duplicates" 0 (Loadgen.duplicates lg);
  check_int "no errors" 0 (Loadgen.errors lg)

(* The pump always has work, so its queue stays disarmed and the card
   (almost) never interrupts it; nothing is resent, duplicated or
   answered with op_err. *)
let test_busy_pump_not_interrupted () =
  let boot, srv, lg = saturated_1c () in
  serve_to_halt ~max_insns:200_000_000 ~max_cycles:20_000_000 ~what:"saturated run" boot;
  check_saturated_run lg;
  let irqs = (Devices.Nic.stats (Kserve.nic srv)).Devices.Nic.s_irqs in
  let responses = (Kserve.stats srv).Kserve.n_responses in
  check_bool
    (Printf.sprintf "%d card interrupts for %d responses: under 1%%" irqs responses)
    true
    (irqs * 100 < responses)

(* Run a saturated one-core server to its halt, counting the pump's
   switch-outs.  Its queue never runs dry, so the pump never sleeps. *)
let saturated_switch_outs ?config () =
  let boot, _, lg = saturated_1c ?config () in
  let k = boot.Boot.kernel in
  let tid = (pump_thread k).Kernel.tid in
  let tr = Ktrace.create ~capacity:(1 lsl 20) k.Kernel.machine in
  Kernel.attach_tracing k tr;
  serve_to_halt ~max_insns:400_000_000 ~max_cycles:40_000_000 ~what:"saturated run" boot;
  check_int "trace kept every event" 0 (Ktrace.dropped tr);
  let outs =
    List.length
      (List.filter
         (fun e -> e.Ktrace.ev_kind = Ktrace.Switch_out tid)
         (Ktrace.events tr))
  in
  (lg, outs)

(* A pump alone on its core never switches to itself: its quantum
   timer lands in the tick stub, which re-arms the timer and returns. *)
let test_lone_pump_never_switches () =
  let lg, outs = saturated_switch_outs () in
  check_saturated_run lg;
  check_int "no switch-out of the pump" 0 outs

(* With a 2 us quantum (32 cycles) the tick stub lands all over the
   pump's loop: the interrupted pump must go on exactly as before, its
   registers intact.  r0..r14 are compared between the stub's first
   instruction and the instruction after its Rte, every tick: among
   them r9, the host call's result register, and the pump's tx head
   (r12) and tx credit (r13), which it never reloads from memory. *)
let test_tick_keeps_registers () =
  let config = { Kserve.default_config with cfg_worker_quantum_max_us = 2 } in
  let lg, outs = saturated_switch_outs ~config () in
  check_saturated_run lg;
  check_int "no switch-out of the pump" 0 outs;
  let boot, _, lg = saturated_1c ~config () in
  let k = boot.Boot.kernel in
  let m = k.Kernel.machine in
  (match Boot.go ~max_insns:1 boot with
  | Machine.Insn_limit -> ()
  | Machine.Halted -> Alcotest.fail "halted at once");
  let tick = Machine.peek m (Kernel.vector_addr (pump_thread k) Mmio_map.timer_vector) in
  let rec rte a = if Machine.read_code m a = Insn.Rte then a else rte (a + 1) in
  let rte = rte tick in
  let regs () = Array.init Insn.sp (Machine.get_reg m) in
  let entered = ref None and ticks = ref 0 in
  let limit = Machine.cycles m + 40_000_000 in
  while (not (Machine.halted m)) && Machine.cycles m < limit do
    let pc = Machine.core_pc m 0 in
    if pc = tick then entered := Some (regs ());
    Machine.step m;
    match !entered with
    | Some before when pc = rte ->
      incr ticks;
      entered := None;
      Array.iteri
        (fun r v ->
          if v <> before.(r) then
            Alcotest.failf "tick %d: r%d was %d before the stub, %d after" !ticks r
              before.(r) v)
        (regs ())
    | _ -> ()
  done;
  check_saturated_run lg;
  check_bool (Printf.sprintf "the stub ran (%d ticks)" !ticks) true (!ticks > 100)

(* Bug: a 1 us longest quantum (16 cycles) is due again before the
   tick stub's Rte after its timer store (22 cycles on the sun3
   model), so a lone pump never ran again: 0 of 600 saturated sessions
   completed in 40M cycles.  [create] now refuses a quantum no longer
   than that tail, read off the pump page; 2 us runs (above). *)
let test_quantum_inside_tick_refused () =
  match
    Kserve.create
      ~config:{ Kserve.default_config with cfg_worker_quantum_max_us = 1 }
      (Boot.boot ())
  with
  | _ -> Alcotest.fail "a 1 us longest quantum was accepted"
  | exception Invalid_argument _ -> ()

(* A thread made ready mid-run with no timer arm ([Thread.create], no
   [start]) on a busy pump's core: the pump's next tick, at most
   [cfg_worker_quantum_max_us] away, switches to it, and from then on
   the two take turns — the neighbour's quantum, then the pump's, which
   is at most the longest.  So the neighbour gets the core back within
   one of each every time, and its count finishes while the load is
   still on. *)
let test_neighbour_runs () =
  let boot, srv, lg = saturated_1c () in
  let k = boot.Boot.kernel in
  let m = k.Kernel.machine in
  (match Boot.go ~max_cycles:200_000 boot with
  | Machine.Insn_limit -> ()
  | Machine.Halted -> Alcotest.fail "the saturated run ended early");
  check_bool "the load is under way" true ((Kserve.stats srv).Kserve.n_responses > 0);
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 1 in
  let target = 2_000 in
  let entry, _ =
    Asm.assemble m
      [
        Insn.Label "loop";
        Insn.Alu_mem (Insn.Add, Insn.Imm 1, Insn.Abs cell);
        Insn.Move (Insn.Abs cell, Insn.Reg Insn.r1);
        Insn.Cmp (Insn.Imm target, Insn.Reg Insn.r1);
        Insn.B (Insn.Ne, Insn.To_label "loop");
        Insn.Trap 0;
      ]
  in
  let quantum_us = 100 in
  let tr = Ktrace.create m in
  Kernel.attach_tracing k tr;
  let created = Machine.cycles m in
  let tid = (Thread.create k ~quantum_us ~segments:[ (cell, 1) ] ~entry ()).Kernel.tid in
  check_bool "the neighbour finished" true
    (step_until m ~cycles:20_000_000 (fun () -> Machine.peek m cell = target));
  check_bool "while the load is still on" false (Loadgen.finished lg);
  let ins =
    List.filter_map
      (fun e -> if e.Ktrace.ev_kind = Ktrace.Switch_in tid then Some e.Ktrace.ev_cycles else None)
      (Ktrace.events tr)
  in
  let bound_us = Kserve.default_config.Kserve.cfg_worker_quantum_max_us + quantum_us + 10 in
  let bound = Cost.cycles_of_us (Machine.cost_model m) (float_of_int bound_us) in
  ignore
    (List.fold_left
       (fun last at ->
         check_bool
           (Printf.sprintf "switched in %d cycles after its last turn (bound %d)" (at - last)
              bound)
           true
           (at - last <= bound);
         at)
       created ins);
  check_bool "it took turns" true (List.length ins > 1);
  serve_to_halt ~max_insns:200_000_000 ~max_cycles:20_000_000 ~what:"saturated run" boot;
  check_saturated_run lg;
  check_bool "the controller retuned the pump sharing its core" true
    ((Kserve.stats srv).Kserve.n_retunes > 0)

(* A server nobody shuts down sleeps forever with its card ticking:
   no instruction budget can end that run, the cycle budget does. *)
let test_cycle_budget_ends_idle_server () =
  let boot = Boot.boot () in
  let m = boot.Boot.kernel.Kernel.machine in
  let srv = Kserve.create boot in
  let budget = 2_000_000 in
  (match Boot.go ~max_insns:max_int ~max_cycles:budget boot with
  | Machine.Insn_limit -> ()
  | Machine.Halted -> Alcotest.fail "an idle server halted");
  check_bool "the run spent its cycle budget" true (Machine.cycles m >= budget);
  check_bool "the pump sleeps, still serving" true
    (Machine.core_stopped m 0 && not (Kserve.drained srv))

(* A second [Boot.go] resumes the machine where a run that spent its
   budget left it.  Core 0 must not be staged again on its ring's
   switch-in: that wakes the sleeping pump and restarts it from its
   saved context, which is stale if the pump ever switched out, and
   then it answers old frames again. *)
let test_second_go_resumes () =
  let boot = Boot.boot () in
  let m = boot.Boot.kernel.Kernel.machine in
  let srv = Kserve.create boot in
  let nic = Kserve.nic srv in
  let go () =
    match Boot.go ~max_cycles:200_000 boot with
    | Machine.Insn_limit -> ()
    | Machine.Halted -> Alcotest.fail "an idle server halted"
  in
  let serve conns =
    List.iter
      (fun c -> Devices.Nic.inject nic [| Kserve.pack ~id:c ~op:Kserve.op_open ~arg:0 |])
      conns;
    ignore (Machine.run ~max_cycles:200_000 m)
  in
  go ();
  serve [ 1; 2; 3 ];
  check_int "three opens answered" 3 (Kserve.stats srv).Kserve.n_responses;
  let pc = Machine.core_pc m 0 in
  go ();
  check_int "core 0 sleeps where it slept" pc (Machine.core_pc m 0);
  serve [ 4 ];
  check_int "one more open, one more answer" 4 (Kserve.stats srv).Kserve.n_responses

(* A pump sleeps with its quantum paused only when it has its core to
   itself.  Next to another ready thread it yields instead: the
   neighbour, which needs many quanta, must finish while the server
   sits idle with no frame to wake its pump. *)
let test_pump_shares_its_core () =
  let boot = Boot.boot () in
  let k = boot.Boot.kernel in
  let m = k.Kernel.machine in
  ignore (Kserve.create boot);
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 1 in
  let target = 20_000 in
  let entry, _ =
    Asm.assemble m
      [
        Insn.Label "loop";
        Insn.Alu_mem (Insn.Add, Insn.Imm 1, Insn.Abs cell);
        Insn.Move (Insn.Abs cell, Insn.Reg Insn.r1);
        Insn.Cmp (Insn.Imm target, Insn.Reg Insn.r1);
        Insn.B (Insn.Ne, Insn.To_label "loop");
        Insn.Trap 0;
      ]
  in
  let neighbour =
    Thread.create k ~quantum_us:100 ~segments:[ (cell, 1) ] ~entry ()
  in
  Thread.start k neighbour;
  (match Boot.go ~max_insns:1 boot with
  | Machine.Insn_limit -> ()
  | Machine.Halted -> Alcotest.fail "halted at once");
  check_bool "the neighbour ran to completion" true
    (step_until m ~cycles:20_000_000 (fun () -> Machine.peek m cell = target))

(* A server whose pumps are all asleep drains on shutdown: the wake it
   posts reaches every core. *)
let test_shutdown_wakes_sleeping_pumps () =
  let cores = 4 in
  let boot = Boot.boot ~cores () in
  let m = boot.Boot.kernel.Kernel.machine in
  let srv = Kserve.create boot in
  (match Boot.go ~max_insns:1 boot with
  | Machine.Insn_limit -> ()
  | Machine.Halted -> Alcotest.fail "halted at once");
  let all_asleep () =
    List.for_all (fun c -> Machine.core_stopped m c) (List.init cores Fun.id)
  in
  check_bool "every pump went to sleep" true
    (step_until m ~cycles:1_000_000 all_asleep);
  Kserve.shutdown srv;
  check_bool "drained" true
    (step_until m ~cycles:1_000_000 (fun () -> Kserve.drained srv));
  check_bool "the machine halted" true
    (step_until m ~cycles:1_000_000 (fun () -> Machine.halted m))

let conn_page_has_cas k =
  List.exists
    (fun r ->
      r.Kernel.sp_name = "serve/conn"
      && List.exists
           (fun a ->
             match Machine.read_code k.Kernel.machine a with
             | Insn.Cas _ -> true
             | _ -> false)
           (List.init r.Kernel.sp_len (fun i -> r.Kernel.sp_entry + i)))
    (Kernel.pages k)

(* Two pumps appending to one file: every acknowledged write lands.
   Sessions on both queues (odd and even conns) write the only file, so
   the size cell — shared by both cores — must count every write
   exactly (it wraps at the capacity).  With one pump the lock folds
   away: the routine carries no Cas. *)
let test_cross_core_appends () =
  let boot = Boot.boot ~cores:2 () in
  let k = boot.Boot.kernel in
  let m = k.Kernel.machine in
  Machine.set_schedule_seed m 3;
  let srv =
    Kserve.create ~config:{ Kserve.default_config with cfg_files = 1 } boot
  in
  let sessions = 120 and writes_each = 6 in
  let lg =
    Loadgen.create
      ~config:
        {
          Loadgen.default_config with
          lg_clients = sessions;
          lg_reqs_per_session = writes_each;
          lg_write_1_in = 1;
          lg_conn_ids = 24;
          lg_think_us = 5.0;
          lg_seed = 11;
        }
      ~on_complete:(fun () -> Kserve.shutdown srv)
      srv
  in
  serve_to_halt ~max_insns:200_000_000 ~max_cycles:4_000_000 ~what:"serve run" boot;
  check_int "every session completed" sessions (Loadgen.completed lg);
  check_int "no errors" 0 (Loadgen.errors lg);
  check_int "no duplicates" 0 (Loadgen.duplicates lg);
  check_int "no resends" 0 (Loadgen.resent lg);
  let nic = Kserve.nic srv in
  for q = 0 to 1 do
    check_bool
      (Printf.sprintf "queue %d served sessions" q)
      true
      ((Devices.Nic.queue_stats nic q).Devices.Nic.s_tx_sent > 0)
  done;
  let acked = sessions * writes_each in
  let file = Kserve.file srv 0 in
  check_int "the size cell counts every acknowledged write"
    (acked mod file.Fs.f_cap)
    (Machine.peek m file.Fs.f_size_cell mod file.Fs.f_cap);
  check_bool "two pumps: the write path takes the file lock" true
    (conn_page_has_cas k);
  let one = Boot.boot () in
  let srv1 = Kserve.create one in
  ignore (Kserve.host_accept srv1 ~conn:3 ~file:0);
  check_bool "one pump: no Cas in serve/conn" false
    (conn_page_has_cas one.Boot.kernel)

(* perfbench serve_4c's saturated phase: 600 sessions of a 48-client
   closed loop on 4 cores.  Every open is accepted (a refusal would
   shorten its session and inflate requests/s without counting as a
   failure), nothing is resent, duplicated or answered with op_err,
   and each queue carries its share of the responses. *)
let test_saturated_balance () =
  let cores = 4 in
  let boot = Boot.boot ~cores () in
  let m = boot.Boot.kernel.Kernel.machine in
  Machine.set_schedule_seed m 217378;
  let srv = Kserve.create boot in
  let lg =
    Loadgen.create
      ~config:
        {
          Loadgen.default_config with
          lg_clients = 600;
          lg_conn_ids = 48;
          lg_timeout_us = 20_000.0;
          lg_seed = 217378;
        }
      ~on_complete:(fun () -> Kserve.shutdown srv)
      srv
  in
  serve_to_halt ~max_insns:600_000_000 ~max_cycles:6_000_000 ~what:"serve run" boot;
  check_bool "drained" true (Kserve.drained srv);
  check_int "every session completed" 600 (Loadgen.completed lg);
  check_int "no refusals" 0 (Kserve.stats srv).Kserve.n_refused;
  check_int "no resends" 0 (Loadgen.resent lg);
  check_int "no duplicates" 0 (Loadgen.duplicates lg);
  check_int "no errors" 0 (Loadgen.errors lg);
  let nic = Kserve.nic srv in
  let total = (Devices.Nic.stats nic).Devices.Nic.s_tx_sent in
  for q = 0 to cores - 1 do
    let sent = (Devices.Nic.queue_stats nic q).Devices.Nic.s_tx_sent in
    let share = float_of_int sent /. float_of_int total in
    check_bool
      (Printf.sprintf "queue %d carries %.1f%% of the responses" q (100.0 *. share))
      true
      (share >= 0.20 && share <= 0.30)
  done

(* ------------------------------------------------------------------ *)
(* Naps: while every core sleeps the card skips its idle poll ticks    *)
(* ------------------------------------------------------------------ *)

let poll_cycles m =
  Cost.cycles_of_us (Machine.cost_model m) Kserve.default_config.Kserve.cfg_poll_us

(* A device that re-arms itself every poll period, so the card's next
   event is never more than one poll away and it can never nap: the
   run a card that always ticks would make. *)
let pin_card m =
  let period = poll_cycles m in
  let dev = ref None in
  let tick m' =
    match !dev with
    | Some d -> Machine.device_schedule m' d (Machine.cycles m' + period)
    | None -> ()
  in
  dev := Some (Machine.add_device m ~name:"pin" ~due:(Machine.cycles m + period) ~tick)

(* The card's ticks, seen through [h_device]: how many ran, and for
   each tick that sent frames its cycle and the running tx count after
   it.  (A tick's frames show at the next tick, or at [close].) *)
type card_log = {
  mutable cl_ticks : int;
  mutable cl_tick_at : int;
  mutable cl_sent : int;
  mutable cl_tx : (int * int) list;
}

let log_card m nic =
  let l = { cl_ticks = 0; cl_tick_at = 0; cl_sent = 0; cl_tx = [] } in
  let seen () =
    let sent = (Devices.Nic.stats nic).Devices.Nic.s_tx_sent in
    if sent > l.cl_sent then l.cl_tx <- (l.cl_tick_at, sent) :: l.cl_tx;
    l.cl_sent <- sent
  in
  Machine.set_hooks m
    (Some
       {
         Machine.h_post = (fun ~source:_ ~level:_ ~vector:_ -> ());
         h_irq = (fun ~level:_ ~vector:_ -> ());
         h_device =
           (fun name ->
             if name = "nic" then begin
               seen ();
               l.cl_ticks <- l.cl_ticks + 1;
               l.cl_tick_at <- Machine.global_cycles m
             end);
         h_fault = (fun _ -> ());
       });
  (l, fun () -> seen (); List.rev l.cl_tx)

type served = {
  sv_cycles : int list;  (** per core *)
  sv_insns : int;
  sv_latency : (int * int) list;
  sv_nic : Devices.Nic.stats;
  sv_tx : (int * int) list;
}

(* A paced kserve (perfbench's 0.8 sessions/ms, fewer sessions) run to
   its halt; returns what it did and how many card ticks it took. *)
let paced_run ~cores ~pinned =
  let boot = Boot.boot ~cores () in
  let m = boot.Boot.kernel.Kernel.machine in
  if cores > 1 then Machine.set_schedule_seed m 5;
  let srv = Kserve.create boot in
  let sessions = 24 in
  let lg =
    Loadgen.create
      ~config:
        {
          Loadgen.default_config with
          lg_clients = sessions;
          lg_rate_per_ms = 0.8;
          lg_timeout_us = 20_000.0;
          lg_seed = 7;
        }
      ~on_complete:(fun () -> Kserve.shutdown srv)
      srv
  in
  if pinned then pin_card m;
  let log, close = log_card m (Kserve.nic srv) in
  serve_to_halt ~max_insns:100_000_000
    ~max_cycles:(Cost.cycles_of_us (Machine.cost_model m) 200_000.0)
    ~what:"paced run" boot;
  check_int "every session completed" sessions (Loadgen.completed lg);
  ( {
      sv_cycles = List.init cores (Machine.core_cycles m);
      sv_insns = Machine.insns_executed m;
      sv_latency = Histogram.buckets (Loadgen.latency lg);
      sv_nic = Devices.Nic.stats (Kserve.nic srv);
      sv_tx = close ();
    },
    log.cl_ticks )

(* Napping changes no simulated figure: a paced server whose card can
   never nap and one whose card naps run the same cycles and
   instructions, see the same latencies and card counters, and send
   every frame on the same tick.  The napping card takes fewer ticks. *)
let test_nap_is_invisible () =
  List.iter
    (fun cores ->
      let pinned, pinned_ticks = paced_run ~cores ~pinned:true in
      let napped, napped_ticks = paced_run ~cores ~pinned:false in
      let what s = Printf.sprintf "%d core(s): %s" cores s in
      check_bool (what "per-core cycles") true (pinned.sv_cycles = napped.sv_cycles);
      check_int (what "instructions") pinned.sv_insns napped.sv_insns;
      check_bool (what "latency buckets") true (pinned.sv_latency = napped.sv_latency);
      check_bool (what "card stats") true (pinned.sv_nic = napped.sv_nic);
      check_bool (what "every frame left on the same tick") true
        (pinned.sv_tx = napped.sv_tx);
      check_bool
        (what (Printf.sprintf "%d card ticks napping, %d pinned" napped_ticks pinned_ticks))
        true
        (napped_ticks * 2 < pinned_ticks))
    [ 1; 4 ]

(* An idle server's card naps between the machine's other events
   instead of ticking every poll period. *)
let test_idle_card_naps () =
  let boot = Boot.boot () in
  let m = boot.Boot.kernel.Kernel.machine in
  let srv = Kserve.create boot in
  let log, _ = log_card m (Kserve.nic srv) in
  let budget = Cost.cycles_of_us (Machine.cost_model m) 10_000.0 in
  (match Boot.go ~max_insns:max_int ~max_cycles:budget boot with
  | Machine.Insn_limit -> ()
  | Machine.Halted -> Alcotest.fail "an idle server halted");
  let periods = budget / poll_cycles m in
  check_bool
    (Printf.sprintf "%d card ticks over %d poll periods" log.cl_ticks periods)
    true
    (log.cl_ticks * 10 < periods)

(* A cycle budget ends a sleeping server's run on the cycle it would
   end on with a card that never naps, and the next run picks up from
   there: a frame injected between the runs is answered on the same
   tick. *)
let budget_runs ~pinned =
  let boot = Boot.boot () in
  let m = boot.Boot.kernel.Kernel.machine in
  let srv = Kserve.create boot in
  if pinned then pin_card m;
  let _, close = log_card m (Kserve.nic srv) in
  (match Boot.go ~max_insns:max_int ~max_cycles:123_457 boot with
  | Machine.Insn_limit -> ()
  | Machine.Halted -> Alcotest.fail "an idle server halted");
  let first = (Machine.cycles m, Machine.global_cycles m) in
  Devices.Nic.inject (Kserve.nic srv) [| Kserve.pack ~id:7 ~op:Kserve.op_open ~arg:0 |];
  ignore (Machine.run ~max_cycles:50_001 m);
  check_int "the frame is answered" 1 (Kserve.stats srv).Kserve.n_responses;
  (first, (Machine.cycles m, Machine.global_cycles m), close ())

let test_budget_ends_on_the_same_cycle () =
  let (p1, p2, ptx) = budget_runs ~pinned:true in
  let (n1, n2, ntx) = budget_runs ~pinned:false in
  check_bool "the first run ends on the same cycle" true (p1 = n1);
  check_bool "the second run ends on the same cycle" true (p2 = n2);
  check_bool "the answer leaves on the same tick" true (ptx = ntx)

(* Host code wakes a sleeping core while the card naps, between bare
   steps (no run budget bounds the nap; a distant device does), and
   the core rings the tx doorbell, a plain memory cell the card polls.
   The frame must leave on the tick a card that never naps sends it
   on.  One core is woken by an interrupt; on two cores, the second
   is started with [start_core]. *)
let wake_and_ring ~pinned ~via_start =
  let cores = if via_start then 2 else 1 in
  let m = Machine.create ~mem_words:(1 lsl 16) ~cores Cost.sun3_emulation in
  let nic = Devices.Nic.install ~poll_us:Kserve.default_config.Kserve.cfg_poll_us m in
  let ring = 0x100 and buf = 0x200 and head_cell = 0x300 in
  Machine.poke m ring buf;
  Machine.poke m (ring + 1) 1;
  Machine.poke m buf 42;
  Devices.Nic.host_config_tx nic ~ring ~len:4 ~mail:0 ~head_cell;
  Devices.Nic.host_enable nic true;
  let sent_at = ref (-1) in
  Devices.Nic.set_tx_sink nic (Some (fun _ -> sent_at := Machine.global_cycles m));
  ignore (Machine.add_device m ~name:"far" ~due:10_000_000 ~tick:(fun _ -> ()));
  if pinned then pin_card m;
  let handler, _ = Asm.assemble m [ Insn.Rte ] in
  Machine.poke m (Insn.Vector.autovector 2) handler;
  let ring_it = [ Insn.Move (Insn.Imm 1, Insn.Abs head_cell); Insn.Set_ipl 7; Insn.Stop_wait ] in
  let stage cpu sp code =
    let entry, _ = Asm.assemble m code in
    Machine.set_active_core m cpu;
    Machine.set_supervisor m true;
    Machine.set_reg m Insn.sp sp;
    Machine.set_pc m entry
  in
  if via_start then begin
    stage 1 0x7000 ring_it;
    stage 0 0x8000 [ Insn.Set_ipl 7; Insn.Stop_wait ]
  end
  else stage 0 0x8000 ([ Insn.Set_ipl 0; Insn.Stop_wait ] @ ring_it);
  let log, _ = log_card m nic in
  (* asleep, and the card has ticked once since: it napped there *)
  while not (Machine.all_stopped m && log.cl_ticks > 0) do
    Machine.step m
  done;
  let woke = Machine.global_cycles m in
  let napped =
    match Machine.find_device m "nic" with
    | Some d -> d.Machine.next_due > woke + poll_cycles m
    | None -> Alcotest.fail "no nic device"
  in
  if via_start then Machine.start_core m 1
  else Machine.post_interrupt m ~level:2 ~vector:(Insn.Vector.autovector 2);
  while !sent_at < 0 && Machine.global_cycles m < 20_000_000 do
    Machine.step m
  done;
  (woke, napped, !sent_at)

let test_host_wake_ends_the_nap () =
  List.iter
    (fun via_start ->
      let what s = (if via_start then "start_core: " else "interrupt: ") ^ s in
      let pw, pnapped, psent = wake_and_ring ~pinned:true ~via_start in
      let nw, nnapped, nsent = wake_and_ring ~pinned:false ~via_start in
      check_bool (what "the pinned card never napped") false pnapped;
      check_bool (what "the card napped") true nnapped;
      check_int (what "woken on the same cycle") pw nw;
      check_bool (what "the frame left") true (psent > pw);
      check_int (what "the frame left on the same tick") psent nsent)
    [ false; true ]


let () =
  Alcotest.run "serve"
    [
      ( "kserve",
        [
          Alcotest.test_case "sessions complete exactly once" `Quick
            test_sessions_complete_exactly_once;
          Alcotest.test_case "load generator ticks per event" `Quick
            test_loadgen_ticks_per_event;
          Alcotest.test_case "arrivals burst every 8th instant" `Quick
            test_arrival_bursts;
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
          Alcotest.test_case "a straggler is timed from its first send" `Quick
            test_straggler_timed_from_first_send;
          Alcotest.test_case "arrival rate tracks deliveries" `Quick
            test_arrival_rate_tracks_deliveries;
          Alcotest.test_case "service rate tracks responses" `Quick
            test_service_rate_tracks_responses;
          Alcotest.test_case "the dispatch table answers on the wire" `Quick
            test_dispatch_on_the_wire;
          Alcotest.test_case "a refusal keeps another pump's span" `Quick
            test_refusal_keeps_other_pumps_span;
        ] );
      (* Suite names stay no longer than "kserve": Alcotest widens its
         suite column to the longest one and truncates test names to fit. *)
      ( "pumps",
        [
          Alcotest.test_case "no lost wakeup on the way to sleep" `Quick
            test_no_lost_wakeup;
          Alcotest.test_case "shutdown wakes sleeping pumps" `Quick
            test_shutdown_wakes_sleeping_pumps;
          Alcotest.test_case "a pump sharing its core does not starve it"
            `Quick test_pump_shares_its_core;
          Alcotest.test_case "cross-core appends to one file are exact" `Quick
            test_cross_core_appends;
          Alcotest.test_case "a saturated load is balanced across queues" `Quick
            test_saturated_balance;
          Alcotest.test_case "a wake takes no interrupt entry" `Quick
            test_wake_takes_no_interrupt;
          Alcotest.test_case "a busy pump is not interrupted" `Quick
            test_busy_pump_not_interrupted;
          Alcotest.test_case "the cycle budget ends an idle server" `Quick
            test_cycle_budget_ends_idle_server;
          Alcotest.test_case "a second go resumes a sleeping pump" `Quick
            test_second_go_resumes;
          Alcotest.test_case "a lone pump never switches to itself" `Quick
            test_lone_pump_never_switches;
          Alcotest.test_case "the tick stub keeps registers intact" `Quick
            test_tick_keeps_registers;
          Alcotest.test_case "a quantum inside the tick is refused" `Quick
            test_quantum_inside_tick_refused;
          Alcotest.test_case "a neighbour created mid-run still runs" `Quick
            test_neighbour_runs;
        ] );
      ( "nap",
        [
          Alcotest.test_case "napping changes no simulated figure" `Quick
            test_nap_is_invisible;
          Alcotest.test_case "an idle card naps" `Quick test_idle_card_naps;
          Alcotest.test_case "a budget ends on the same cycle" `Quick
            test_budget_ends_on_the_same_cycle;
          Alcotest.test_case "a host wake ends the nap" `Quick
            test_host_wake_ends_the_nap;
        ] );
    ]
