(* Device models for the Quamachine.

   Each device registers MMIO handlers and (when it generates events)
   a machine device entry whose [tick] runs when simulated time
   reaches its deadline.  Interrupts are posted at the levels/vectors
   assigned in [Mmio_map]. *)

(* ------------------------------------------------------------------ *)
(* Real-time clock *)

module Rtc = struct
  let install m =
    Machine.map_mmio_read m ~addr:Mmio_map.rtc_us (fun () ->
        int_of_float (Machine.time_us m))
end

(* ------------------------------------------------------------------ *)
(* CPU control (FP coprocessor availability) *)

module Cpu_control = struct
  let install m =
    Machine.map_mmio_write m ~addr:Mmio_map.fp_control (fun v ->
        Machine.set_fp_enabled m (v <> 0));
    Machine.map_mmio_read m ~addr:Mmio_map.fp_control (fun () ->
        if Machine.fp_enabled m then 1 else 0);
    Machine.map_mmio_write m ~addr:Mmio_map.usp (fun v -> Machine.set_other_sp m v);
    Machine.map_mmio_read m ~addr:Mmio_map.usp (fun () -> Machine.other_sp m);
    Machine.map_mmio_write m ~addr:Mmio_map.irq_ack (fun level ->
        Machine.ack_interrupt m ~level)
end

(* ------------------------------------------------------------------ *)
(* One-shot interval timer *)

module Timer = struct
  type t = {
    mutable armed_at : int; (* cycle deadline, max_int = disarmed *)
    dev : Machine.device;
    machine : Machine.t;
  }

  (* [cpu] pins the posted interrupt to a core (each core's private
     quantum timer); without it the interrupt goes to core 0. *)
  let install ?(name = "timer") ?(addr = Mmio_map.timer_alarm)
      ?(level = Mmio_map.timer_level) ?(vector = Mmio_map.timer_vector) ?cpu m =
    let dev = Machine.add_device m ~name ~due:max_int ~tick:(fun _ -> ()) in
    let t = { armed_at = max_int; dev; machine = m } in
    dev.Machine.dev_tick <-
      (fun m ->
        t.armed_at <- max_int;
        Machine.post_interrupt ~source:name ?cpu m ~level ~vector);
    Machine.map_mmio_write m ~addr (fun us ->
        if us = 0 then begin
          t.armed_at <- max_int;
          Machine.device_idle m dev
        end
        else begin
          let deadline =
            Machine.cycles m + Cost.cycles_of_us (Machine.cost_model m) (float_of_int us)
          in
          t.armed_at <- deadline;
          Machine.device_schedule m dev deadline
        end);
    Machine.map_mmio_read m ~addr (fun () ->
        if t.armed_at = max_int then 0
        else
          let remaining = max 0 (t.armed_at - Machine.cycles m) in
          int_of_float (Cost.us_of_cycles (Machine.cost_model m) remaining));
    t

  (* Host-side arm, used by the kernel to force an early preemption
     (e.g. when an unblocked thread must get the CPU now). *)
  let arm t ~us =
    let m = t.machine in
    (* [armed_at] set while the underlying device is idle means the
       completion was lost (a kfault drop idles the device without
       running the tick): the remembered deadline is stale and must
       not suppress rearming.  Fault-free runs never see this state —
       the tick and the MMIO write keep the two fields in lockstep. *)
    let stale = t.armed_at <> max_int && t.dev.Machine.next_due = max_int in
    let deadline = Machine.cycles m + Cost.cycles_of_us (Machine.cost_model m) us in
    if stale || deadline < t.armed_at then begin
      t.armed_at <- deadline;
      Machine.device_schedule m t.dev deadline
    end
end

(* ------------------------------------------------------------------ *)
(* Serial TTY *)

module Tty = struct
  type t = {
    machine : Machine.t;
    input : char Queue.t; (* characters not yet delivered *)
    output : Buffer.t;
    mutable data_in : int; (* last delivered character *)
    mutable data_taken : bool; (* data_in consumed by an MMIO read *)
    dev : Machine.device;
  }

  (* inter-arrival time of input characters *)
  let char_interval_us = 100.0

  let install m =
    let dev = Machine.add_device m ~name:"tty" ~due:max_int ~tick:(fun _ -> ()) in
    let t =
      {
        machine = m;
        input = Queue.create ();
        output = Buffer.create 256;
        data_in = 0;
        data_taken = true;
        dev;
      }
    in
    dev.Machine.dev_tick <-
      (fun m ->
        if Queue.is_empty t.input then ()
        else if not t.data_taken then
          (* The previous character is still in the holding register:
             overwriting it here would make the pending interrupt's
             handler read the wrong character (and re-deliver it for
             the overwriting one).  Hold this character until the
             register is consumed. *)
          Machine.device_schedule m dev
            (Machine.cycles m
            + Cost.cycles_of_us (Machine.cost_model m) char_interval_us)
        else begin
          t.data_in <- Char.code (Queue.pop t.input);
          t.data_taken <- false;
          Machine.post_interrupt ~source:"tty" m ~level:Mmio_map.tty_level
            ~vector:Mmio_map.tty_vector;
          if not (Queue.is_empty t.input) then
            Machine.device_schedule m dev
              (Machine.cycles m
              + Cost.cycles_of_us (Machine.cost_model m) char_interval_us)
        end);
    Machine.map_mmio_read m ~addr:Mmio_map.tty_data_in (fun () ->
        t.data_taken <- true;
        t.data_in);
    Machine.map_mmio_write m ~addr:Mmio_map.tty_data_out (fun v ->
        Buffer.add_char t.output (Char.chr (v land 0x7F)));
    t

  (* Host-side: queue input characters for delivery. *)
  let feed t s =
    let was_empty = Queue.is_empty t.input in
    String.iter (fun c -> Queue.push c t.input) s;
    if was_empty && not (Queue.is_empty t.input) then
      Machine.device_schedule t.machine t.dev
        (Machine.cycles t.machine
        + Cost.cycles_of_us (Machine.cost_model t.machine) char_interval_us)

  let output t = Buffer.contents t.output
end

(* ------------------------------------------------------------------ *)
(* Disk controller (DMA block device with seek latency) *)

module Disk = struct
  let block_words = 256

  type t = {
    store : int array array; (* blocks *)
    mutable reg_block : int;
    mutable reg_buffer : int;
    mutable status : int; (* 0 idle, 1 busy, 2 done, 3 error *)
    mutable pending : [ `Read of int * int | `Write of int * int ] option;
    dev : Machine.device;
    (* kcrash: persistence model *)
    mutable powered : bool;
    mutable journaling : bool;
    mutable journal : (int * int array) list; (* committed writes, newest first *)
  }

  (* the platter's size, and a command's seek plus per-word transfer *)
  let n_blocks = 1024
  let seek_us = 2000.0
  let transfer_us_per_word = 1.0

  let install m =
    let dev = Machine.add_device m ~name:"disk" ~due:max_int ~tick:(fun _ -> ()) in
    let t =
      {
        store = Array.init n_blocks (fun _ -> Array.make block_words 0);
        reg_block = 0;
        reg_buffer = 0;
        status = 0;
        pending = None;
        dev;
        powered = true;
        journaling = false;
        journal = [];
      }
    in
    dev.Machine.dev_tick <-
      (fun m ->
        if t.powered then begin
          (match t.pending with
          | None -> ()
          | Some (`Read (blk, buf)) ->
            for i = 0 to block_words - 1 do
              Machine.poke m (buf + i) t.store.(blk).(i)
            done;
            t.status <- 2
          | Some (`Write (blk, buf)) ->
            for i = 0 to block_words - 1 do
              t.store.(blk).(i) <- Machine.peek m (buf + i)
            done;
            if t.journaling then
              t.journal <- (blk, Array.copy t.store.(blk)) :: t.journal;
            t.status <- 2);
          t.pending <- None;
          Machine.post_interrupt ~source:"disk" m ~level:Mmio_map.disk_level
            ~vector:Mmio_map.disk_vector
        end);
    Machine.map_mmio_write m ~addr:Mmio_map.disk_block (fun v -> t.reg_block <- v);
    Machine.map_mmio_write m ~addr:Mmio_map.disk_buffer (fun v -> t.reg_buffer <- v);
    Machine.map_mmio_read m ~addr:Mmio_map.disk_status (fun () -> t.status);
    Machine.map_mmio_write m ~addr:Mmio_map.disk_command (fun cmd ->
        if not t.powered then ()
        else if t.reg_block < 0 || t.reg_block >= Array.length t.store then
          t.status <- 3
        else begin
          t.status <- 1;
          t.pending <-
            (match cmd with
            | 1 -> Some (`Read (t.reg_block, t.reg_buffer))
            | 2 -> Some (`Write (t.reg_block, t.reg_buffer))
            | _ ->
              t.status <- 3;
              None);
          if t.pending <> None then begin
            let latency =
              seek_us +. (transfer_us_per_word *. float_of_int block_words)
            in
            Machine.device_schedule m t.dev
              (Machine.cycles m + Cost.cycles_of_us (Machine.cost_model m) latency)
          end
        end);
    (* kcrash: a power cut freezes the platter at this instant.  An
       in-flight read is simply lost; an in-flight write either
       vanishes whole (torn_words < 0) or lands its first [torn_words]
       words — the prefix-torn sector model.  No completion interrupt
       is ever posted and the controller goes dead until power_on. *)
    Machine.register_power_hook m ~device:"disk" (fun torn_words ->
        (match t.pending with
        | Some (`Write (blk, buf)) when torn_words >= 0 ->
          let n = min torn_words block_words in
          for i = 0 to n - 1 do
            t.store.(blk).(i) <- Machine.peek m (buf + i)
          done;
          if t.journaling && n > 0 then
            t.journal <- (blk, Array.copy t.store.(blk)) :: t.journal
        | _ -> ());
        t.pending <- None;
        t.powered <- false;
        Machine.device_idle m dev);
    t

  (* Host-side access for populating disk images in tests/examples. *)
  let write_block t blk data =
    Array.blit data 0 t.store.(blk) 0 (min block_words (Array.length data))

  let read_block t blk = Array.copy t.store.(blk)

  (* ---- kcrash: power and persistence --------------------------- *)

  let power_on t =
    t.powered <- true;
    t.status <- 0

  let powered t = t.powered

  (* Commit journal: every write that reached the platter, in commit
     order, as (block, post-write image).  Crash states are exactly
     the prefixes of this list applied to a base image (the elevator
     admits no other orders — the server keeps one request in
     flight). *)
  let set_journaling t on =
    t.journaling <- on;
    if on then t.journal <- []

  let journal t = List.rev t.journal

  (* Whole-platter snapshots for reboot-and-recover exploration. *)
  let image t = Array.map Array.copy t.store

  let load_image t img =
    let n = min (Array.length img) (Array.length t.store) in
    for b = 0 to n - 1 do
      Array.blit img.(b) 0 t.store.(b) 0 (min block_words (Array.length img.(b)))
    done
end

(* ------------------------------------------------------------------ *)
(* A/D converter: a sampled analog source (44,100 interrupts/s, §5.4) *)

module Ad = struct
  type t = {
    machine : Machine.t;
    mutable sample : int;
    mutable rate_hz : int; (* 0 = off *)
    mutable seq : int; (* synthetic waveform state *)
    mutable delivered : int;
    dev : Machine.device;
  }

  (* Synthetic 16-bit waveform: a deterministic LCG so that tests can
     check data integrity through queues end to end. *)
  let next_sample t =
    t.seq <- (t.seq * 1_103_515_245) + 12_345;
    (t.seq lsr 8) land 0xFFFF

  let install m =
    let dev = Machine.add_device m ~name:"ad" ~due:max_int ~tick:(fun _ -> ()) in
    let t = { machine = m; sample = 0; rate_hz = 0; seq = 1; delivered = 0; dev } in
    dev.Machine.dev_tick <-
      (fun m ->
        if t.rate_hz <> 0 then begin
          t.sample <- next_sample t;
          t.delivered <- t.delivered + 1;
          Machine.post_interrupt ~source:"ad" m ~level:Mmio_map.ad_level
            ~vector:Mmio_map.ad_vector;
          let period_us = 1_000_000.0 /. float_of_int t.rate_hz in
          Machine.device_schedule m dev
            (Machine.cycles m + Cost.cycles_of_us (Machine.cost_model m) period_us)
        end);
    Machine.map_mmio_read m ~addr:Mmio_map.ad_data (fun () -> t.sample);
    t

  let delivered t = t.delivered

  (* Rate control, host-side: the converter has no control register. *)
  let set_rate t rate =
    t.rate_hz <- rate;
    if rate = 0 then Machine.device_idle t.machine t.dev
    else
      let period_us = 1_000_000.0 /. float_of_int rate in
      Machine.device_schedule t.machine t.dev
        (Machine.cycles t.machine
        + Cost.cycles_of_us (Machine.cost_model t.machine) period_us)
end

(* ------------------------------------------------------------------ *)
(* D/A converter: sound output sink *)

module Da = struct
  type t = { samples : int Queue.t }

  let install m =
    let t = { samples = Queue.create () } in
    Machine.map_mmio_write m ~addr:Mmio_map.da_data (fun v -> Queue.push v t.samples);
    t

  let drain t =
    let out = List.of_seq (Queue.to_seq t.samples) in
    Queue.clear t.samples;
    out
end

(* ------------------------------------------------------------------ *)
(* Network card (kserve).

   N queues, each an rx/tx pair of descriptor rings in guest memory
   with 4-word descriptors [buf; len; status; tag].  Head/tail indices
   are free-running (occupancy = head - tail); the card DMAs arriving
   frames into posted rx buffers and drains posted tx buffers to a
   host sink.  A frame arriving on the wire is steered to queue
   [steer f mod N] (receive-side scaling with a host-chosen flow key);
   a one-queue card is simply N = 1.

   The card has no register window.  Kernel-build code configures it
   from the host ([host_config_rx]/[host_config_tx], [host_enable],
   ...), and at run time it is driven through plain data cells: after
   every rx delivery the card pokes the queue's fill index into that
   queue's configured data cell (Intel-style head writeback), and on
   each service tick it polls the consumer/doorbell indices from
   configured data cells, so user-mode pump threads drive it with
   plain loads and stores.

   Interrupts: each queue has its own coalescing counter and posts its
   own interrupt, at Mmio_map.nic_level with the card's vector, to the
   queue's core (queue i -> core i mod cores) — a coalescing factor of
   n ([host_set_coalesce]) fires one interrupt per n of the queue's rx
   deliveries, and a partial batch is flushed once the queue's wire
   backlog is empty.  Tx completions show in the tail writeback but
   raise no interrupt: a pump sleeps only on an empty rx ring.  The delivery
   burst per tick and queue scales with the coalescing factor, so
   coalesce=1 really is one interrupt (and one tick) per frame.

   Naps: the doorbells are plain memory, so the card polls every
   [poll_us] while enabled.  While every core sleeps nobody can ring
   them, and an idle tick (no backlog, no posted tx descriptor, no
   batch pending, no held frame) skips ahead on its poll grid to the
   machine's next event (Machine.next_event).  A kick or a core
   waking (Machine.on_wake) ends the nap at the next grid tick, so
   every tick that does something lands on the cycle it always did.

   Faults: one-shot drops, duplicates and reorders, queued per
   direction by [Machine.frame_fault] (called directly, or by a
   Fault_inject plan's [Frame_fault] event); each acts on the next
   frame on the card's wire, before rx steering and after tx
   draining.  With none queued the data path is exact: no loss,
   duplication, or reordering, whatever the interleaving. *)

module Nic = struct
  let desc_words = 4
  let frame_words_max = 4

  type frame = int array

  (* per-direction wire faults: the one-shot faults forced by
     Machine.frame_fault, the frame a reorder holds back, and the
     counts of each kind applied *)
  type faults = {
    mutable ch_forced : int list; (* pending one-shot kinds, FIFO *)
    mutable ch_held : frame option; (* frame held back by a reorder *)
    mutable ch_dropped : int;
    mutable ch_dupped : int;
    mutable ch_reordered : int;
  }

  let faults_make () =
    {
      ch_forced = [];
      ch_held = None;
      ch_dropped = 0;
      ch_dupped = 0;
      ch_reordered = 0;
    }

  (* one queue: its ring pair and mailbox cells, its wire backlog, its
     coalescing counter and interrupt target, and its counters *)
  type queue = {
    q_cpu : int; (* core its interrupt is posted to *)
    (* rx ring *)
    mutable rx_ring : int;
    mutable rx_len : int;
    mutable rx_head : int; (* device fill index, free-running *)
    mutable rx_tail : int; (* consumer index (kernel-owned) *)
    mutable rx_mail : int; (* head-writeback cell; 0 = off *)
    mutable rx_tail_cell : int; (* polled consumer-index cell; 0 = off *)
    mutable rx_arm : int; (* polled interrupt-arm cell; 0 = off *)
    (* tx ring *)
    mutable tx_ring : int;
    mutable tx_len : int;
    mutable tx_head : int; (* producer doorbell (kernel-owned) *)
    mutable tx_tail : int; (* device consume index *)
    mutable tx_mail : int; (* tail-writeback cell; 0 = off *)
    mutable tx_head_cell : int; (* polled doorbell cell; 0 = off *)
    (* wire-in backlog: frames steered here but not yet DMA'd *)
    rx_q : frame Queue.t;
    mutable pending_events : int; (* completions since the last interrupt *)
    (* counters *)
    mutable rx_injected : int;
    mutable rx_delivered : int;
    mutable rx_shed : int;
    mutable rx_overruns : int;
    mutable tx_sent : int;
    mutable irqs_posted : int;
    mutable rx_seq : int; (* delivery tag *)
  }

  type t = {
    machine : Machine.t;
    dev : Machine.device;
    mutable enabled : bool;
    poll : int; (* service-tick period, cycles *)
    (* A nap: while every core sleeps, idle ticks are skipped.  The
       skipped ticks lie on the grid [nap_from + k * poll]; [nap_from]
       is the first of them (-1 = no nap) and [nap_until] the deadline
       the nap set in their place. *)
    mutable nap_from : int;
    mutable nap_until : int;
    queues : queue array;
    steer : frame -> int; (* flow key; queue = key mod N *)
    mutable tx_sink : (frame -> unit) option; (* who sees sent frames *)
    mutable coalesce : int; (* completions per interrupt; >= 1 *)
    (* admission control: max admitted rx occupancy per queue; 0 = unlimited *)
    mutable admit : int;
    (* wire faults, per direction *)
    rx_faults : faults;
    tx_faults : faults;
  }

  (* Run one frame through a direction's wire: returns the frames
     that actually move, in order.  The oldest forced fault, if any,
     applies to it; a reorder holds the frame back until the next one
     passes (the tick flushes strays). *)
  let apply_faults ch f =
    let kind =
      match ch.ch_forced with
      | k :: rest ->
        ch.ch_forced <- rest;
        Some k
      | [] -> None
    in
    let out =
      match kind with
      | Some 0 ->
        ch.ch_dropped <- ch.ch_dropped + 1;
        []
      | Some 1 ->
        ch.ch_dupped <- ch.ch_dupped + 1;
        [ f; f ]
      | Some 2 -> (
        ch.ch_reordered <- ch.ch_reordered + 1;
        match ch.ch_held with
        | None ->
          ch.ch_held <- Some f;
          []
        | Some held ->
          (* already holding one: emit the new frame first *)
          ch.ch_held <- Some held;
          [ f ])
      | _ -> [ f ]
    in
    (* a held frame rides out behind the next frame that passes *)
    match (out, ch.ch_held, kind) with
    | _ :: _, Some held, k when k <> Some 2 ->
      ch.ch_held <- None;
      out @ [ held ]
    | _ -> out

  let flush_held ch =
    match ch.ch_held with
    | Some f ->
      ch.ch_held <- None;
      [ f ]
    | None -> []

  let occupancy head tail = (head - tail) land Word.mask

  let num_queues t = Array.length t.queues

  let queue t q =
    if q < 0 || q >= num_queues t then invalid_arg "Nic: no such queue";
    t.queues.(q)

  (* the queue a wire frame is steered to *)
  let steer t f =
    let n = num_queues t in
    if Array.length f = 0 then t.queues.(0)
    else t.queues.(((t.steer f mod n) + n) mod n)

  (* End a nap: go back to the first skipped tick after the global
     clock, the one a card that never napped would take next.  A nap
     whose deadline someone else moved (kfault, a watchdog re-kick) is
     over already. *)
  let end_nap t =
    if t.nap_from >= 0 then begin
      if t.dev.Machine.next_due = t.nap_until then begin
        let now = Machine.global_cycles t.machine in
        let next =
          if now < t.nap_from then t.nap_from
          else t.nap_from + (((now - t.nap_from) / t.poll + 1) * t.poll)
        in
        if next < t.nap_until then Machine.device_schedule t.machine t.dev next
      end;
      t.nap_from <- -1
    end

  (* schedule the next service tick; [kick] only ever shortens, and
     ends a nap first *)
  let kick t =
    if t.enabled then begin
      end_nap t;
      let due = Machine.cycles t.machine + t.poll in
      if t.dev.Machine.next_due > due then
        Machine.device_schedule t.machine t.dev due
    end

  (* the kernel-side indices, honouring the polled mailbox cells *)
  let rx_tail_now t q =
    if q.rx_tail_cell <> 0 then Machine.peek t.machine q.rx_tail_cell
    else q.rx_tail

  let tx_head_now t q =
    if q.tx_head_cell <> 0 then Machine.peek t.machine q.tx_head_cell
    else q.tx_head

  (* A queue with an arm cell interrupts only while the cell is
     nonzero (its consumer is asleep); one without is always armed. *)
  let armed t q = q.rx_arm = 0 || Machine.peek t.machine q.rx_arm <> 0

  (* only rx completions count toward the queue's interrupt: a tx
     completion is reported through the tail writeback alone, since
     nobody sleeps waiting for one.  An rx completion on a disarmed
     queue is dropped, not saved for the next arm: its consumer is
     awake and finds the frame by polling. *)
  let count_rx_event t q =
    if armed t q then q.pending_events <- q.pending_events + 1

  (* Posting disarms (NAPI-style): the woken consumer polls until its
     ring is empty and re-arms before it sleeps again. *)
  let maybe_irq t q ~flush =
    if q.pending_events >= max 1 t.coalesce || (flush && q.pending_events > 0)
    then begin
      q.pending_events <- 0;
      if armed t q then begin
        if q.rx_arm <> 0 then Machine.poke t.machine q.rx_arm 0;
        q.irqs_posted <- q.irqs_posted + 1;
        Machine.post_interrupt ~source:"nic" ~cpu:q.q_cpu t.machine
          ~level:Mmio_map.nic_level ~vector:Mmio_map.nic_vector
      end
    end

  (* DMA one frame into a queue's rx ring; an unconfigured queue drops
     it *)
  let deliver_rx t q f =
    if q.rx_ring <> 0 && q.rx_len <> 0 then begin
      let tail = rx_tail_now t q in
      let occ = occupancy q.rx_head tail in
      if t.admit > 0 && occ >= t.admit then
        q.rx_shed <- q.rx_shed + 1 (* shed at the ring: admission control *)
      else if occ >= q.rx_len then
        (* ring overrun: the frame is gone, like real hardware *)
        q.rx_overruns <- q.rx_overruns + 1
      else begin
        let m = t.machine in
        let slot = q.rx_head mod q.rx_len in
        let desc = q.rx_ring + (desc_words * slot) in
        let buf = Machine.peek m desc in
        let cap = max 1 (min frame_words_max (Machine.peek m (desc + 1))) in
        let n = min cap (Array.length f) in
        for i = 0 to n - 1 do
          Machine.poke m (buf + i) f.(i)
        done;
        Machine.poke m (desc + 1) n;
        Machine.poke m (desc + 2) 1;
        Machine.poke m (desc + 3) q.rx_seq;
        q.rx_seq <- q.rx_seq + 1;
        q.rx_head <- (q.rx_head + 1) land Word.mask;
        if q.rx_mail <> 0 then Machine.poke m q.rx_mail q.rx_head;
        q.rx_delivered <- q.rx_delivered + 1;
        count_rx_event t q
      end
    end

  (* with no sink set, a sent frame leaves on the wire unobserved *)
  let emit_tx t f = match t.tx_sink with Some sink -> sink f | None -> ()

  (* drain one posted tx descriptor; false = nothing posted *)
  let drain_tx t q =
    if q.tx_ring = 0 || q.tx_len = 0 then false
    else
      let head = tx_head_now t q in
      if occupancy head q.tx_tail = 0 then false
      else begin
        let m = t.machine in
        let slot = q.tx_tail mod q.tx_len in
        let desc = q.tx_ring + (desc_words * slot) in
        let buf = Machine.peek m desc in
        let len = max 0 (min frame_words_max (Machine.peek m (desc + 1))) in
        let f = Array.init len (fun i -> Machine.peek m (buf + i)) in
        Machine.poke m (desc + 2) 0;
        q.tx_tail <- (q.tx_tail + 1) land Word.mask;
        if q.tx_mail <> 0 then Machine.poke m q.tx_mail q.tx_tail;
        q.tx_sent <- q.tx_sent + 1;
        List.iter (emit_tx t) (apply_faults t.tx_faults f);
        true
      end

  let tx_pending t q = occupancy (tx_head_now t q) q.tx_tail > 0

  (* Would the next tick find nothing to do, as long as nobody else
     touches the card or its rings?  No wire backlog, no posted tx
     descriptor, no interrupt count waiting for a batch, no frame held
     back by a reorder. *)
  let rec idle_from t i =
    i >= Array.length t.queues
    ||
    let q = t.queues.(i) in
    Queue.is_empty q.rx_q && q.pending_events = 0 && (not (tx_pending t q))
    && idle_from t (i + 1)

  let idle t = t.rx_faults.ch_held = None && t.tx_faults.ch_held = None && idle_from t 0

  (* While every core sleeps, only device ticks change the machine, so
     an idle card's ticks up to the next event are no-ops: skip to the
     first tick of the grid at or after the machine's next event (the
     earliest other deadline, or the running [Machine.run]'s budget).
     Every tick that does something still lands on the same cycle. *)
  let nap t =
    let from = t.dev.Machine.next_due in
    let horizon = Machine.next_event t.machine ~except:t.dev in
    if horizon > from && horizon < max_int && t.poll > 0 then begin
      let until = from + ((horizon - from + t.poll - 1) / t.poll * t.poll) in
      Machine.device_schedule t.machine t.dev until;
      t.nap_from <- from;
      t.nap_until <- until
    end

  (* One tick over every queue, allocation-free: it runs every
     [poll] cycles while the card is enabled, apart from the idle
     ticks a nap skips. *)
  let service t =
    if t.enabled then begin
      let burst = max 1 t.coalesce in
      let qs = t.queues in
      (* rx: each queue's wire backlog -> its ring *)
      let backlog = ref false in
      for i = 0 to Array.length qs - 1 do
        let q = qs.(i) in
        let budget = ref burst in
        while !budget > 0 && not (Queue.is_empty q.rx_q) do
          deliver_rx t q (Queue.pop q.rx_q);
          decr budget
        done;
        if not (Queue.is_empty q.rx_q) then backlog := true
      done;
      (* a reorder-held frame with nothing behind it rides out now *)
      (if not !backlog then
         match flush_held t.rx_faults with
         | [ f ] -> deliver_rx t (steer t f) f
         | _ -> ());
      (* tx: each queue's ring -> the sink *)
      let tx_busy = ref false in
      for i = 0 to Array.length qs - 1 do
        let q = qs.(i) in
        let budget = ref burst in
        while !budget > 0 && drain_tx t q do
          decr budget
        done;
        if tx_pending t q then tx_busy := true
      done;
      (if not !tx_busy then
         match flush_held t.tx_faults with [ f ] -> emit_tx t f | _ -> ());
      (* a partial batch is flushed once the queue's backlog is empty *)
      for i = 0 to Array.length qs - 1 do
        let q = qs.(i) in
        maybe_irq t q ~flush:(Queue.is_empty q.rx_q)
      done;
      (* keep polling while enabled: the doorbell cells are plain
         memory, so no write to them wakes us.  Only while every core
         sleeps can nobody ring them. *)
      kick t;
      if Machine.all_stopped t.machine && idle t then nap t
    end

  let make_queue q_cpu =
    {
      q_cpu;
      rx_ring = 0;
      rx_len = 0;
      rx_head = 0;
      rx_tail = 0;
      rx_mail = 0;
      rx_tail_cell = 0;
      rx_arm = 0;
      tx_ring = 0;
      tx_len = 0;
      tx_head = 0;
      tx_tail = 0;
      tx_mail = 0;
      tx_head_cell = 0;
      rx_q = Queue.create ();
      pending_events = 0;
      rx_injected = 0;
      rx_delivered = 0;
      rx_shed = 0;
      rx_overruns = 0;
      tx_sent = 0;
      irqs_posted = 0;
      rx_seq = 0;
    }

  let install ?(poll_us = 1.0) ?(queues = 1) ?(steer = fun _ -> 0) m =
    if queues < 1 then invalid_arg "Nic.install: queues";
    let dev = Machine.add_device m ~name:"nic" ~due:max_int ~tick:(fun _ -> ()) in
    let cores = Machine.num_cores m in
    let t =
      {
        machine = m;
        dev;
        enabled = false;
        poll = Cost.cycles_of_us (Machine.cost_model m) poll_us;
        nap_from = -1;
        nap_until = max_int;
        queues = Array.init queues (fun i -> make_queue (i mod cores));
        steer;
        tx_sink = None;
        coalesce = 1;
        admit = 0;
        rx_faults = faults_make ();
        tx_faults = faults_make ();
      }
    in
    dev.Machine.dev_tick <- (fun _ -> service t);
    (* an awake core may ring a doorbell: back on the grid first *)
    Machine.on_wake m (fun () -> end_nap t);
    (* Machine.frame_fault: a one-shot fault against the next frame *)
    Machine.register_frame_hook m ~device:"nic" (fun ~dir ~kind ->
        let ch = if dir = 0 then t.rx_faults else t.tx_faults in
        if kind >= 0 && kind <= 2 then
          ch.ch_forced <- ch.ch_forced @ [ kind ]);
    t

  (* ---- host side --------------------------------------------------- *)

  (* Offer a frame on the wire.  Always re-kicks the service tick, so
     a dropped completion only delays delivery until the next
     injection. *)
  let inject t f =
    let q = steer t f in
    q.rx_injected <- q.rx_injected + 1;
    List.iter (fun f' -> Queue.push f' (steer t f').rx_q) (apply_faults t.rx_faults f);
    kick t

  let set_tx_sink t sink = t.tx_sink <- sink

  (* The card's control plane: host-side configuration for tests and
     for kernel-build code that runs before any thread exists (the
     same precedent as Disk.write_block / Ad.set_rate).  At run time
     the queues' polled data cells are the only interface. *)
  let host_config_rx ?(q = 0) ?(arm = 0) t ~ring ~len ~mail ~tail_cell =
    let q = queue t q in
    q.rx_ring <- ring;
    q.rx_len <- len;
    q.rx_mail <- mail;
    q.rx_tail_cell <- tail_cell;
    q.rx_arm <- arm

  let host_config_tx ?(q = 0) t ~ring ~len ~mail ~head_cell =
    let q = queue t q in
    q.tx_ring <- ring;
    q.tx_len <- len;
    q.tx_mail <- mail;
    q.tx_head_cell <- head_cell

  let host_enable t on =
    t.enabled <- on;
    if on then kick t else Machine.device_idle t.machine t.dev

  let host_set_coalesce t n = t.coalesce <- max 1 n
  let host_set_admit t n = t.admit <- max 0 n

  let host_rx_tail ?(q = 0) t v =
    let q = queue t q in
    q.rx_tail <- v;
    if q.rx_tail_cell <> 0 then Machine.poke t.machine q.rx_tail_cell v;
    kick t

  let host_tx_head ?(q = 0) t v =
    let q = queue t q in
    q.tx_head <- v;
    if q.tx_head_cell <> 0 then Machine.poke t.machine q.tx_head_cell v;
    kick t

  let rx_head ?(q = 0) t = (queue t q).rx_head
  let tx_tail ?(q = 0) t = (queue t q).tx_tail
  let queue_cpu t q = (queue t q).q_cpu

  type stats = {
    s_rx_injected : int;
    s_rx_delivered : int;
    s_rx_shed : int;
    s_rx_overruns : int;
    s_tx_sent : int;
    s_irqs : int;
    s_rx_dropped : int;
    s_rx_dupped : int;
    s_rx_reordered : int;
    s_tx_dropped : int;
    s_tx_dupped : int;
    s_tx_reordered : int;
  }

  (* the ring-level counters of the given queues; the wire's fault
     counters belong to the whole card *)
  let sum_stats t qs ~wire =
    let sum f = List.fold_left (fun a q -> a + f q) 0 qs in
    let ch c f = if wire then f c else 0 in
    {
      s_rx_injected = sum (fun q -> q.rx_injected);
      s_rx_delivered = sum (fun q -> q.rx_delivered);
      s_rx_shed = sum (fun q -> q.rx_shed);
      s_rx_overruns = sum (fun q -> q.rx_overruns);
      s_tx_sent = sum (fun q -> q.tx_sent);
      s_irqs = sum (fun q -> q.irqs_posted);
      s_rx_dropped = ch t.rx_faults (fun c -> c.ch_dropped);
      s_rx_dupped = ch t.rx_faults (fun c -> c.ch_dupped);
      s_rx_reordered = ch t.rx_faults (fun c -> c.ch_reordered);
      s_tx_dropped = ch t.tx_faults (fun c -> c.ch_dropped);
      s_tx_dupped = ch t.tx_faults (fun c -> c.ch_dupped);
      s_tx_reordered = ch t.tx_faults (fun c -> c.ch_reordered);
    }

  let stats t = sum_stats t (Array.to_list t.queues) ~wire:true
  let queue_stats t q = sum_stats t [ queue t q ] ~wire:false

  let wire_backlog t =
    Array.fold_left (fun a q -> a + Queue.length q.rx_q) 0 t.queues
end
