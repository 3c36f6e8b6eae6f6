(* NIC device-model tests (kserve): an N-queue card steers rx frames
   by flow key and interrupts each queue's core; descriptor-ring
   delivery with no wire faults is exact — no loss, duplication or
   reorder — across seeded interleavings on 1–4 cores; with one-shot
   faults armed through Machine.frame_fault on frames the test picks
   from its seed, what reaches each direction reconciles exactly
   against the device's own fault counters (drop-only delivery is a
   strict subsequence of the injected stream).  The tx path is driven
   the same way: host-posted descriptors, doorbell, drained frames. *)

open Quamachine
open Synthesis
module I = Insn
module Nic = Devices.Nic

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mix seed salt = ((seed * 0x9E3779B1) lxor (salt * 0x85EBCA6B)) land 0xFFFFFF

(* A per-core user thread spinning on a stop cell keeps the machine
   (and so the host devices) running while frames move. *)
let spin_threads k ~cores ~stop_cell =
  for cpu = 0 to cores - 1 do
    let program =
      [
        I.Label "loop";
        I.Move (I.Abs stop_cell, I.Reg I.r8);
        I.Tst (I.Reg I.r8);
        I.B (I.Eq, I.To_label "loop");
        I.Trap 0;
      ]
    in
    let entry, _ = Asm.assemble k.Kernel.machine program in
    let t =
      Thread.create k ~cpu ~quantum_us:50 ~segments:[ (stop_cell, 1) ] ~entry ()
    in
    Thread.start k t
  done

type rx_run = {
  rr_got : int list;  (* payloads, delivery order *)
  rr_stats : Nic.stats;
}

(* The wire fault frame [j] gets, picked from the seed's own mix:
   dropped with odds 1 in [drop], else duplicated 1 in [dup], else
   reordered 1 in [reorder] (0 = never).  A Machine.frame_fault kind,
   or None. *)
let fault_for ~seed ~salt ~drop ~dup ~reorder j =
  let hit odds k = odds > 0 && mix seed (salt + (3 * j) + k) mod odds = 0 in
  if hit drop 0 then Some 0
  else if hit dup 1 then Some 1
  else if hit reorder 2 then Some 2
  else None

let rx_salt = 1000
let tx_salt = 2000

(* how many of the 48 frames [fault_for] gives [kind] *)
let picked ~seed ~salt ~drop ~dup ~reorder kind =
  List.length
    (List.filter
       (fun j -> fault_for ~seed ~salt ~drop ~dup ~reorder j = Some kind)
       (List.init 48 Fun.id))

(* Drive [n] one-word frames through the rx ring: an injector device
   offers frame [j] (payload [j]) at seed-jittered gaps, a consumer
   device drains the ring at its own seed-jittered pace, and spin
   threads on every core keep time moving.  Frame [j]'s fault (see
   [fault_for]) is armed just before it is offered, so it applies to
   that frame.  Returns the consumed payloads in order. *)
let run_rx ?(n = 48) ?(ring_len = 8) ?(drop = 0) ?(dup = 0) ?(reorder = 0)
    ~cores ~seed () =
  let boot = Boot.boot ~cores () in
  let k = boot.Boot.kernel in
  let m = k.Kernel.machine in
  let nic = Nic.install ~poll_us:1.0 m in
  let alloc = k.Kernel.alloc in
  let ring = Kalloc.alloc_zeroed alloc (Nic.desc_words * ring_len) in
  let bufs = Kalloc.alloc_zeroed alloc ring_len in
  for i = 0 to ring_len - 1 do
    let d = ring + (Nic.desc_words * i) in
    Machine.poke m d (bufs + i);
    Machine.poke m (d + 1) 1
  done;
  Nic.host_config_rx nic ~ring ~len:ring_len ~mail:0 ~tail_cell:0;
  Nic.host_enable nic true;
  let stop_cell = Kalloc.alloc_zeroed alloc 1 in
  spin_threads k ~cores ~stop_cell;
  (* injector: one frame per tick, seed-jittered inter-arrival *)
  let injected = ref 0 in
  let inj = ref None in
  let inj_tick m' =
    if !injected < n then begin
      Option.iter
        (fun kind -> Machine.frame_fault m' ~device:"nic" ~dir:0 ~kind)
        (fault_for ~seed ~salt:rx_salt ~drop ~dup ~reorder !injected);
      Nic.inject nic [| !injected |];
      incr injected;
      match !inj with
      | Some d ->
        Machine.device_schedule m' d
          (Machine.cycles m' + 40 + (mix seed (100 + !injected) mod 200))
      | None -> ()
    end
  in
  inj := Some (Machine.add_device m ~name:"inj" ~due:50 ~tick:inj_tick);
  (* consumer: drain everything ready, seed-jittered polling *)
  let got = ref [] in
  let tail = ref 0 in
  let quiet = ref 0 in
  let cons = ref None in
  let cons_tick m' =
    let made_progress = ref false in
    while (Nic.rx_head nic - !tail) land Word.mask > 0 do
      let slot = !tail mod ring_len in
      let d = ring + (Nic.desc_words * slot) in
      check_int "descriptor marked full" 1 (Machine.peek m' (d + 2));
      got := Machine.peek m' (Machine.peek m' d) :: !got;
      Machine.poke m' (d + 2) 0;
      incr tail;
      Nic.host_rx_tail nic !tail;
      made_progress := true
    done;
    (* stop once the wire is quiet and nothing new arrives for a
       while (reordered frames flush on idle ticks) *)
    if !injected >= n && Nic.wire_backlog nic = 0 && not !made_progress then
      incr quiet
    else quiet := 0;
    if !quiet > 40 then Machine.poke m' stop_cell 1
    else
      match !cons with
      | Some d ->
        Machine.device_schedule m' d
          (Machine.cycles m' + 30 + (mix seed (500 + !tail) mod 150))
      | None -> ()
  in
  cons := Some (Machine.add_device m ~name:"cons" ~due:60 ~tick:cons_tick);
  (match Boot.go ~max_insns:4_000_000 boot with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "rx run did not converge");
  { rr_got = List.rev !got; rr_stats = Nic.stats nic }

(* Same shape for tx: a producer device posts descriptors and rings
   the doorbell; the card's emitted frames are collected by a sink.
   The card applies an armed fault to the next descriptor it drains,
   so the producer arms frame [j]'s fault only once every earlier
   descriptor has drained, and posts [j] right after. *)
let run_tx ?(n = 48) ?(ring_len = 8) ?(drop = 0) ?(dup = 0) ?(reorder = 0)
    ~cores ~seed () =
  let boot = Boot.boot ~cores () in
  let k = boot.Boot.kernel in
  let m = k.Kernel.machine in
  let nic = Nic.install ~poll_us:1.0 m in
  let alloc = k.Kernel.alloc in
  let ring = Kalloc.alloc_zeroed alloc (Nic.desc_words * ring_len) in
  let bufs = Kalloc.alloc_zeroed alloc ring_len in
  for i = 0 to ring_len - 1 do
    let d = ring + (Nic.desc_words * i) in
    Machine.poke m d (bufs + i);
    Machine.poke m (d + 1) 1
  done;
  Nic.host_config_tx nic ~ring ~len:ring_len ~mail:0 ~head_cell:0;
  Nic.host_enable nic true;
  let got = ref [] in
  Nic.set_tx_sink nic (Some (fun f -> got := f.(0) :: !got));
  let stop_cell = Kalloc.alloc_zeroed alloc 1 in
  spin_threads k ~cores ~stop_cell;
  let head = ref 0 in
  let quiet = ref 0 in
  let prod = ref None in
  let prod_tick m' =
    let posted = (!head - Nic.tx_tail nic) land Word.mask in
    let fault = fault_for ~seed ~salt:tx_salt ~drop ~dup ~reorder !head in
    (if !head < n && posted < ring_len && (fault = None || posted = 0) then begin
       Option.iter
         (fun kind -> Machine.frame_fault m' ~device:"nic" ~dir:1 ~kind)
         fault;
       let slot = !head mod ring_len in
       let d = ring + (Nic.desc_words * slot) in
       Machine.poke m' (Machine.peek m' d) !head;
       Machine.poke m' (d + 1) 1;
       incr head;
       Nic.host_tx_head nic !head;
       quiet := 0
     end
     else if !head >= n then incr quiet);
    if !quiet > 40 then Machine.poke m' stop_cell 1
    else
      match !prod with
      | Some d ->
        Machine.device_schedule m' d
          (Machine.cycles m' + 35 + (mix seed (900 + !head) mod 180))
      | None -> ()
  in
  prod := Some (Machine.add_device m ~name:"prod" ~due:50 ~tick:prod_tick);
  (match Boot.go ~max_insns:4_000_000 boot with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "tx run did not converge");
  (List.rev !got, Nic.stats nic)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let is_strict_subseq xs ys =
  (* xs is a strictly increasing selection from ys (both int lists) *)
  let rec go xs ys =
    match (xs, ys) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs', y :: ys' -> if x = y then go xs' ys' else go xs ys'
  in
  go xs ys

let seeds = QCheck.Gen.int_bound 9999

let prop_rx_exact =
  QCheck.Test.make ~count:12 ~name:"rx: no faults is exact on 1-4 cores"
    (QCheck.make seeds) (fun seed ->
      let cores = 1 + (seed mod 4) in
      let r = run_rx ~cores ~seed () in
      r.rr_got = List.init 48 (fun i -> i)
      && r.rr_stats.Nic.s_rx_delivered = 48
      && r.rr_stats.Nic.s_rx_dropped = 0
      && r.rr_stats.Nic.s_rx_dupped = 0
      && r.rr_stats.Nic.s_rx_reordered = 0
      && r.rr_stats.Nic.s_rx_overruns = 0)

let prop_rx_drop_subseq =
  QCheck.Test.make ~count:10 ~name:"rx: drop-only delivery is a subsequence"
    (QCheck.make seeds) (fun seed ->
      let cores = 1 + (seed mod 4) in
      let r = run_rx ~cores ~seed ~drop:5 () in
      let all = List.init 48 (fun i -> i) in
      is_strict_subseq r.rr_got all
      && List.length r.rr_got = 48 - r.rr_stats.Nic.s_rx_dropped
      (* the card dropped exactly the frames the test picked *)
      && r.rr_stats.Nic.s_rx_dropped
         = picked ~seed ~salt:rx_salt ~drop:5 ~dup:0 ~reorder:0 0)

let prop_rx_conservation =
  QCheck.Test.make ~count:10
    ~name:"rx: all knobs reconcile against the fault counters"
    (QCheck.make seeds) (fun seed ->
      let cores = 1 + (seed mod 4) in
      let drop, dup, reorder = (9, 7, 6) in
      let r = run_rx ~cores ~seed ~drop ~dup ~reorder () in
      let st = r.rr_stats in
      let picked = picked ~seed ~salt:rx_salt ~drop ~dup ~reorder in
      (* every consumed payload was injected *)
      List.for_all (fun p -> p >= 0 && p < 48) r.rr_got
      (* each at most once plus its duplications *)
      && List.length r.rr_got
         = 48 - st.Nic.s_rx_dropped + st.Nic.s_rx_dupped - st.Nic.s_rx_overruns
           - st.Nic.s_rx_shed
      (* a payload never appears more than twice (dup is 1-shot) *)
      && List.for_all
           (fun p ->
             List.length (List.filter (( = ) p) r.rr_got) <= 2)
           r.rr_got
      (* the counters count exactly the faults the test armed, and
         every seed in [seeds]' range arms at least one *)
      && st.Nic.s_rx_dropped = picked 0
      && st.Nic.s_rx_dupped = picked 1
      && st.Nic.s_rx_reordered = picked 2
      && picked 0 + picked 1 + picked 2 > 0)

let prop_tx_exact =
  QCheck.Test.make ~count:12 ~name:"tx: no faults is exact on 1-4 cores"
    (QCheck.make seeds) (fun seed ->
      let cores = 1 + (seed mod 4) in
      let got, st = run_tx ~cores ~seed () in
      got = List.init 48 (fun i -> i)
      && st.Nic.s_tx_sent = 48
      && st.Nic.s_tx_dropped = 0
      && st.Nic.s_tx_dupped = 0
      && st.Nic.s_tx_reordered = 0)

let prop_tx_conservation =
  QCheck.Test.make ~count:10
    ~name:"tx: all knobs reconcile against the fault counters"
    (QCheck.make seeds) (fun seed ->
      let cores = 1 + (seed mod 4) in
      let drop, dup, reorder = (8, 6, 7) in
      let got, st = run_tx ~cores ~seed ~drop ~dup ~reorder () in
      let picked = picked ~seed ~salt:tx_salt ~drop ~dup ~reorder in
      List.for_all (fun p -> p >= 0 && p < 48) got
      && List.length got = 48 - st.Nic.s_tx_dropped + st.Nic.s_tx_dupped
      (* the counters count exactly the faults the test armed, and
         every seed in [seeds]' range arms at least one *)
      && st.Nic.s_tx_dropped = picked 0
      && st.Nic.s_tx_dupped = picked 1
      && st.Nic.s_tx_reordered = picked 2
      && picked 0 + picked 1 + picked 2 > 0)

(* ------------------------------------------------------------------ *)
(* Directed tests                                                      *)
(* ------------------------------------------------------------------ *)

(* Admission control sheds exactly the frames beyond the limit when
   nobody consumes. *)
let test_admission () =
  let boot = Boot.boot () in
  let k = boot.Boot.kernel in
  let m = k.Kernel.machine in
  let nic = Nic.install m in
  let alloc = k.Kernel.alloc in
  let ring_len = 8 in
  let ring = Kalloc.alloc_zeroed alloc (Nic.desc_words * ring_len) in
  let bufs = Kalloc.alloc_zeroed alloc ring_len in
  for i = 0 to ring_len - 1 do
    let d = ring + (Nic.desc_words * i) in
    Machine.poke m d (bufs + i);
    Machine.poke m (d + 1) 1
  done;
  Nic.host_config_rx nic ~ring ~len:ring_len ~mail:0 ~tail_cell:0;
  Nic.host_enable nic true;
  Nic.host_set_admit nic 3;
  let stop_cell = Kalloc.alloc_zeroed alloc 1 in
  spin_threads k ~cores:1 ~stop_cell;
  let sent = ref 0 in
  let dev = ref None in
  let tick m' =
    if !sent < 10 then begin
      Nic.inject nic [| !sent |];
      incr sent;
      match !dev with
      | Some d -> Machine.device_schedule m' d (Machine.cycles m' + 200)
      | None -> ()
    end
    else Machine.poke m' stop_cell 1
  in
  dev := Some (Machine.add_device m ~name:"inj" ~due:50 ~tick);
  (match Boot.go ~max_insns:2_000_000 boot with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "admission run did not converge");
  let st = Nic.stats nic in
  check_int "admitted up to the limit" 3 st.Nic.s_rx_delivered;
  check_int "the rest shed at the ring" 7 st.Nic.s_rx_shed;
  check_int "never overran" 0 st.Nic.s_rx_overruns

(* A one-shot frame fault (Machine.frame_fault, the hook Fault_inject's
   Frame_fault action fires) applies to the next frame only. *)
let test_one_shot_frame_fault () =
  let boot = Boot.boot () in
  let k = boot.Boot.kernel in
  let m = k.Kernel.machine in
  let nic = Nic.install m in
  let alloc = k.Kernel.alloc in
  let ring_len = 8 in
  let ring = Kalloc.alloc_zeroed alloc (Nic.desc_words * ring_len) in
  let bufs = Kalloc.alloc_zeroed alloc ring_len in
  for i = 0 to ring_len - 1 do
    let d = ring + (Nic.desc_words * i) in
    Machine.poke m d (bufs + i);
    Machine.poke m (d + 1) 1
  done;
  Nic.host_config_rx nic ~ring ~len:ring_len ~mail:0 ~tail_cell:0;
  Nic.host_enable nic true;
  (* arm a drop against the next rx frame, then inject two *)
  Machine.frame_fault m ~device:"nic" ~dir:0 ~kind:0;
  let stop_cell = Kalloc.alloc_zeroed alloc 1 in
  spin_threads k ~cores:1 ~stop_cell;
  let step = ref 0 in
  let dev = ref None in
  let tick m' =
    (match !step with
    | 0 -> Nic.inject nic [| 111 |]
    | 1 -> Nic.inject nic [| 222 |]
    | _ -> Machine.poke m' stop_cell 1);
    incr step;
    match !dev with
    | Some d ->
      if !step <= 2 then
        Machine.device_schedule m' d (Machine.cycles m' + 300)
    | None -> ()
  in
  dev := Some (Machine.add_device m ~name:"inj" ~due:50 ~tick);
  (match Boot.go ~max_insns:2_000_000 boot with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "frame-fault run did not converge");
  let st = Nic.stats nic in
  check_int "forced drop consumed the first frame" 1 st.Nic.s_rx_dropped;
  check_int "the second frame still arrived" 1 st.Nic.s_rx_delivered;
  check_int "delivered payload is the survivor" 222
    (Machine.peek m (Machine.peek m ring));
  (* the same action through a compiled Fault_inject plan *)
  let plan =
    Fault_inject.make_plan ~seed:1
      [
        {
          Fault_inject.ev_after = 1;
          ev_action = Fault_inject.Frame_fault { device = "nic"; dir = 0; kind = 1 };
        };
      ]
  in
  check_bool "plan action describes itself" true
    (String.length
       (Fault_inject.describe_action (List.hd plan.Fault_inject.events).Fault_inject.ev_action)
    > 0)

(* An N-queue card steers each rx frame to queue [key mod N] and
   interrupts that queue's core: with the payload as the flow key,
   even payloads fill queue 0's ring and odd ones queue 1's, and each
   queue's interrupts land on its own core. *)
let test_rx_steering () =
  let cores = 2 in
  let boot = Boot.boot ~cores () in
  let k = boot.Boot.kernel in
  let m = k.Kernel.machine in
  let nic = Nic.install ~queues:cores ~steer:(fun f -> f.(0)) m in
  let alloc = k.Kernel.alloc in
  let ring_len = 8 in
  let rings =
    Array.init cores (fun q ->
        let ring = Kalloc.alloc_zeroed alloc (Nic.desc_words * ring_len) in
        let bufs = Kalloc.alloc_zeroed alloc ring_len in
        for i = 0 to ring_len - 1 do
          let d = ring + (Nic.desc_words * i) in
          Machine.poke m d (bufs + i);
          Machine.poke m (d + 1) 1
        done;
        Nic.host_config_rx ~q nic ~ring ~len:ring_len ~mail:0 ~tail_cell:0;
        ring)
  in
  Nic.host_enable nic true;
  let stop_cell = Kalloc.alloc_zeroed alloc 1 in
  spin_threads k ~cores ~stop_cell;
  (* card interrupts taken, per core *)
  let nic_irqs = Array.make cores 0 in
  Machine.set_hooks m
    (Some
       {
         Machine.h_post = (fun ~source:_ ~level:_ ~vector:_ -> ());
         h_irq =
           (fun ~level:_ ~vector ->
             if vector = Mmio_map.nic_vector then begin
               let c = Machine.current_core m in
               nic_irqs.(c) <- nic_irqs.(c) + 1
             end);
         h_device = (fun _ -> ());
         h_fault = (fun _ -> ());
       });
  let sent = ref 0 in
  let dev = ref None in
  let tick m' =
    if !sent < 10 then begin
      Nic.inject nic [| !sent |];
      incr sent;
      match !dev with
      | Some d -> Machine.device_schedule m' d (Machine.cycles m' + 200)
      | None -> ()
    end
    else Machine.poke m' stop_cell 1
  in
  dev := Some (Machine.add_device m ~name:"inj" ~due:50 ~tick);
  (match Boot.go ~max_insns:2_000_000 boot with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "steering run did not converge");
  for q = 0 to cores - 1 do
    let st = Nic.queue_stats nic q in
    check_int (Printf.sprintf "queue %d got its five frames" q) 5
      st.Nic.s_rx_delivered;
    check_int (Printf.sprintf "queue %d ring head" q) 5 (Nic.rx_head ~q nic);
    let got =
      List.init 5 (fun i ->
          Machine.peek m (Machine.peek m (rings.(q) + (Nic.desc_words * i))))
    in
    check_bool
      (Printf.sprintf "queue %d holds its flow, in order" q)
      true
      (got = List.init 5 (fun i -> (2 * i) + q));
    check_int (Printf.sprintf "queue %d interrupts core %d" q q) q
      (Nic.queue_cpu nic q);
    check_bool
      (Printf.sprintf "core %d took its queue's interrupts" q)
      true
      (st.Nic.s_irqs > 0 && nic_irqs.(q) > 0)
  done;
  Machine.set_hooks m None;
  check_int "the card-wide stats sum the queues" 10
    (Nic.stats nic).Nic.s_rx_delivered

(* A queue with an arm cell interrupts only while the cell is set, and
   clears it when it posts.  Frames landing while it is clear are
   delivered but post nothing, and arming later does not fire a late
   interrupt for them; the first delivery after arming posts exactly
   one, however many frames it carries. *)
let test_arm_cell () =
  let boot = Boot.boot () in
  let k = boot.Boot.kernel in
  let m = k.Kernel.machine in
  let nic = Nic.install m in
  let alloc = k.Kernel.alloc in
  let ring_len = 16 in
  let ring = Kalloc.alloc_zeroed alloc (Nic.desc_words * ring_len) in
  let bufs = Kalloc.alloc_zeroed alloc ring_len in
  for i = 0 to ring_len - 1 do
    let d = ring + (Nic.desc_words * i) in
    Machine.poke m d (bufs + i);
    Machine.poke m (d + 1) 1
  done;
  let arm = Kalloc.alloc_zeroed alloc 1 in
  Nic.host_config_rx ~arm nic ~ring ~len:ring_len ~mail:0 ~tail_cell:0;
  Nic.host_set_coalesce nic 4;
  Nic.host_enable nic true;
  let tick () =
    match Machine.find_device m "nic" with
    | Some d -> d.Machine.dev_tick m
    | None -> Alcotest.fail "no nic device"
  in
  let send n =
    for i = 1 to n do
      Nic.inject nic [| i |]
    done;
    tick ()
  in
  let irqs () = (Nic.stats nic).Nic.s_irqs in
  send 2;
  check_int "disarmed: both frames delivered" 2 (Nic.stats nic).Nic.s_rx_delivered;
  check_int "disarmed: no interrupt" 0 (irqs ());
  Machine.poke m arm 1;
  tick ();
  check_int "arming fires nothing for frames already in" 0 (irqs ());
  check_int "the cell stays armed" 1 (Machine.peek m arm);
  send 3;
  check_int "the first delivery after arming posts one interrupt" 1 (irqs ());
  check_int "posting cleared the cell" 0 (Machine.peek m arm);
  send 3;
  check_int "disarmed again: no second interrupt" 1 (irqs ());
  check_int "every frame delivered" 8 (Nic.stats nic).Nic.s_rx_delivered

(* Completions that land while a queue is disarmed do not count toward
   its next interrupt.  Admission control keeps one frame in the ring
   and sheds the rest of each tick's burst, so the wire backlog stays
   non-empty (no flush) across ticks while one frame a tick completes.
   After re-arming, the interrupt waits for [coalesce] completions
   counted from the arm. *)
let test_disarmed_backlog_does_not_count () =
  let boot = Boot.boot () in
  let k = boot.Boot.kernel in
  let m = k.Kernel.machine in
  let nic = Nic.install m in
  let alloc = k.Kernel.alloc in
  let ring_len = 8 in
  let ring = Kalloc.alloc_zeroed alloc (Nic.desc_words * ring_len) in
  let bufs = Kalloc.alloc_zeroed alloc ring_len in
  for i = 0 to ring_len - 1 do
    let d = ring + (Nic.desc_words * i) in
    Machine.poke m d (bufs + i);
    Machine.poke m (d + 1) 1
  done;
  let arm = Kalloc.alloc_zeroed alloc 1 in
  Nic.host_config_rx ~arm nic ~ring ~len:ring_len ~mail:0 ~tail_cell:0;
  let coalesce = 4 in
  Nic.host_set_coalesce nic coalesce;
  Nic.host_set_admit nic 1;
  Nic.host_enable nic true;
  for i = 1 to 8 * coalesce do
    Nic.inject nic [| i |]
  done;
  let tick () =
    match Machine.find_device m "nic" with
    | Some d -> d.Machine.dev_tick m
    | None -> Alcotest.fail "no nic device"
  in
  let consumed = ref 0 in
  (* consume the one admitted frame, then tick: one more completes *)
  let step () =
    Nic.host_rx_tail nic !consumed;
    tick ();
    consumed := (Nic.stats nic).Nic.s_rx_delivered
  in
  let irqs () = (Nic.stats nic).Nic.s_irqs in
  for _ = 1 to coalesce - 1 do
    step ()
  done;
  check_int "disarmed: one completion a tick" (coalesce - 1) !consumed;
  check_int "disarmed: no interrupt" 0 (irqs ());
  Machine.poke m arm 1;
  step ();
  check_int "the first completion after arming posts nothing" 0 (irqs ());
  for _ = 2 to coalesce - 1 do
    step ()
  done;
  check_int "still short of the batch" 0 (irqs ());
  step ();
  check_int "the batch's last completion posts" 1 (irqs ());
  let st = Nic.stats nic in
  check_bool "the backlog never emptied" true
    (st.Nic.s_rx_delivered + st.Nic.s_rx_shed < 8 * coalesce)

let () =
  Alcotest.run "net"
    [
      ( "nic-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_rx_exact;
            prop_rx_drop_subseq;
            prop_rx_conservation;
            prop_tx_exact;
            prop_tx_conservation;
          ] );
      ( "nic-directed",
        [
          Alcotest.test_case "admission control sheds at the ring" `Quick
            test_admission;
          Alcotest.test_case "forced frame faults fire once" `Quick
            test_one_shot_frame_fault;
          Alcotest.test_case "rx frames steer to their queue and core" `Quick
            test_rx_steering;
          Alcotest.test_case "an arm cell gates the interrupt" `Quick
            test_arm_cell;
          Alcotest.test_case "disarmed completions do not count" `Quick
            test_disarmed_backlog_does_not_count;
        ] );
    ]
