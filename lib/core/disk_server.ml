(* The default file system server pipeline (§5.1):

     raw disk device server --> disk scheduler --> cache manager
                                  (request queue)   (buffer queue)
                                                        |
                                  synthesized open-file readers

   The raw disk server is interrupt-driven: it blocks after kicking a
   transfer and the completion interrupt wakes it.  The disk scheduler
   holds the request queue and issues requests in elevator order.  The
   cache manager keeps an LRU cache of block buffers in kernel memory;
   cache hits never touch the device.

   Requests are descriptors in kernel memory:
     [0] = block number   [1] = buffer address (cache slot)
     [2] = direction (1 read, 2 write)
     [3] = status (0 pending, 1 done, 2 failed)
   Completion wakes the requesting thread through the request's wait
   queue.

   Recovery (kfault): a host-side watchdog device arms whenever a
   transfer is in flight.  If the completion interrupt has not arrived
   within the timeout the request is re-issued, with the allowance
   doubling each try; after [ds_max_tries] the request is failed
   (status 2) so waiters wake and see the error instead of sleeping
   forever.  In fault-free runs the watchdog never fires and is idled
   on every completion, so it costs nothing and keeps no machine
   alive. *)

open Quamachine
module I = Insn

type request = {
  r_desc : int; (* descriptor address *)
  r_block : int;
  r_waitq : Kernel.waitq;
  r_epoch : int; (* barrier epoch: the elevator never reorders across epochs *)
  r_write : bool;
}

type t = {
  ds_kernel : Kernel.t;
  (* scheduler state *)
  mutable ds_queue : request list; (* pending, kept in elevator order *)
  mutable ds_active : request option;
  mutable ds_arm_position : int; (* current head position *)
  mutable ds_direction : int; (* +1 sweeping up, -1 sweeping down *)
  mutable ds_issued : int list; (* service order, newest first (tests) *)
  (* cache manager *)
  ds_cache : (int, int) Hashtbl.t; (* block -> buffer address *)
  mutable ds_lru : int list; (* block numbers, most recent first *)
  ds_cache_capacity : int;
  ds_dirty : (int, unit) Hashtbl.t;
  mutable ds_hits : int;
  mutable ds_misses : int;
  (* write barriers: requests carry the epoch current at submission;
     a barrier request sits alone in its own epoch and a plain
     [barrier] call just fences by bumping the counter *)
  mutable ds_epoch : int;
  (* in-flight write-backs: descriptor -> (block, buffer).  The dirty
     bit stays set until the completion reports status 1, so a crash
     or a failed write-back never silently drops the block. *)
  ds_wb : (int, int * int) Hashtbl.t;
  (* in-flight cache-fill reads: block -> request, so a caller whose
     sync read timed out can re-await the same transfer instead of
     double-issuing or hitting a not-yet-filled cache slot *)
  ds_inflight : (int, request) Hashtbl.t;
  (* recovery: bounded retry with backoff on lost completions *)
  ds_timeout_cycles : int;
  ds_max_tries : int;
  mutable ds_tries : int; (* issues of the active request, 1-based *)
  mutable ds_active_since : int; (* cycle the active request was issued *)
  mutable ds_watchdog : Machine.device option;
  mutable ds_last_recovery_cycles : int; (* fault -> completion, for bench *)
  (* kspan: request descriptor -> open span id (host-side; empty
     unless a span layer is attached) *)
  ds_spans : (int, int) Hashtbl.t;
}

let block_words = Devices.Disk.block_words

(* ---------------------------------------------------------------- *)
(* Disk scheduler: elevator (SCAN) order *)

let elevator_insert t req =
  (* keep two sorted runs per epoch: the current sweep, then the
     reverse sweep.  Epochs are the major key — SCAN never moves a
     request across a barrier. *)
  let pos = t.ds_arm_position and dir = t.ds_direction in
  let key r =
    let b = r.r_block in
    let sweep =
      if dir > 0 then if b >= pos then (0, b) else (1, -b)
      else if b <= pos then (0, -b)
      else (1, b)
    in
    (r.r_epoch, sweep)
  in
  t.ds_queue <-
    List.sort (fun a b -> compare (key a) (key b)) (req :: t.ds_queue);
  Machine.charge t.ds_kernel.Kernel.machine (10 + (4 * List.length t.ds_queue))

(* Watchdog arming: the allowance doubles with each try. *)
let watchdog_arm t =
  match t.ds_watchdog with
  | None -> ()
  | Some d ->
    let m = t.ds_kernel.Kernel.machine in
    let allowance = t.ds_timeout_cycles lsl (t.ds_tries - 1) in
    Machine.device_schedule m d (Machine.cycles m + allowance)

let watchdog_idle t =
  match t.ds_watchdog with
  | None -> ()
  | Some d -> Machine.device_idle t.ds_kernel.Kernel.machine d

let issue t req =
  t.ds_active <- Some req;
  t.ds_issued <- req.r_block :: t.ds_issued;
  t.ds_arm_position <- req.r_block;
  t.ds_tries <- 1;
  t.ds_active_since <- Machine.cycles t.ds_kernel.Kernel.machine;
  watchdog_arm t;
  (* cycles spent queued in the elevator end here *)
  match Hashtbl.find_opt t.ds_spans req.r_desc with
  | Some id ->
    Kernel.span t.ds_kernel (fun sp ->
        Kspan.hop sp id ~stage:"elevator" ~phase:Kspan.Queue_wait)
  | None -> ()

(* The MMIO registers are only reachable through machine loads/stores;
   drive them with a tiny supervisor fragment. *)
let issue_via_machine t req =
  let m = t.ds_kernel.Kernel.machine in
  let dir = Machine.peek m (req.r_desc + 2) in
  let buf = Machine.peek m (req.r_desc + 1) in
  let frag =
    [
      I.Move (I.Imm req.r_block, I.Abs Mmio_map.disk_block);
      I.Move (I.Imm buf, I.Abs Mmio_map.disk_buffer);
      I.Move (I.Imm dir, I.Abs Mmio_map.disk_command);
    ]
  in
  (* executed inline by the kernel (supervisor context) *)
  List.iter
    (fun insn ->
      match insn with
      | I.Move (I.Imm v, I.Abs a) ->
        Machine.charge t.ds_kernel.Kernel.machine 2;
        (* use the MMIO path so the device reacts *)
        let saved = Machine.in_supervisor m in
        Machine.set_supervisor m true;
        Machine.write_mem m a v;
        Machine.set_supervisor m saved
      | _ -> assert false)
    frag

(* Take the next request in SCAN order.  The head of [ds_queue] is
   sorted for the *current* sweep; when it lies behind the arm we have
   exhausted that sweep, so the direction flips and the remaining
   queue is re-sorted under the new key.  (The pre-fix code never
   flipped [ds_direction] — a self-assignment — so a request arriving
   above the arm during a down sweep jumped the queue ahead of the
   sweep's remaining blocks: starvation under a stream of high-block
   arrivals.  Found by the kfault disk-elevator audit.) *)
let start_next t =
  match (t.ds_active, t.ds_queue) with
  | None, req :: rest ->
    let pos = t.ds_arm_position and dir = t.ds_direction in
    let b = req.r_block in
    if (dir > 0 && b < pos) || (dir < 0 && b > pos) then begin
      t.ds_direction <- -dir;
      (* the reverse run was sorted for the old sweep; re-key it —
         but only within the head's epoch.  Later epochs keep their
         position behind the barrier whatever the sweep does. *)
      let ndir = t.ds_direction in
      let key r =
        let rb = r.r_block in
        if ndir > 0 then if rb >= b then (0, rb) else (1, -rb)
        else if rb <= b then (0, -rb)
        else (1, rb)
      in
      let same, later = List.partition (fun r -> r.r_epoch = req.r_epoch) rest in
      t.ds_queue <- List.sort (fun x y -> compare (key x) (key y)) same @ later
    end
    else t.ds_queue <- rest;
    issue t req;
    issue_via_machine t req
  | _ -> ()

(* Submit a request; returns the descriptor so a thread can block on
   its wait queue (or the host can poll its status word).  A
   [~barrier:true] request gets a private epoch: it is serviced
   strictly after everything already queued and strictly before
   anything submitted later. *)
let submit t ?(barrier = false) ?waitq ~block ~buffer ~write () =
  let k = t.ds_kernel in
  let desc = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let m = k.Kernel.machine in
  Machine.poke m desc block;
  Machine.poke m (desc + 1) buffer;
  Machine.poke m (desc + 2) (if write then 2 else 1);
  Machine.poke m (desc + 3) 0;
  Machine.charge_refs m 4;
  let epoch =
    if barrier then begin
      Metrics.bump k.Kernel.metrics "disk.barriers";
      let e = t.ds_epoch + 1 in
      t.ds_epoch <- e + 1;
      e
    end
    else t.ds_epoch
  in
  let wq = match waitq with Some w -> w | None -> Kernel.waitq ~name:"disk/req" in
  let req = { r_desc = desc; r_block = block; r_waitq = wq; r_epoch = epoch; r_write = write } in
  Kernel.span k (fun sp ->
      Hashtbl.replace t.ds_spans desc
        (Kspan.open_span sp ~pipeline:"disk"
           ~detail:(Fmt.str "block=%d/%s" block (if write then "w" else "r"))));
  elevator_insert t req;
  start_next t;
  req

(* A write barrier with no transfer attached: everything submitted
   before the fence is serviced before anything submitted after it.
   Pure queue bookkeeping — no I/O, a few cycles. *)
let barrier t =
  t.ds_epoch <- t.ds_epoch + 1;
  Metrics.bump t.ds_kernel.Kernel.metrics "disk.barriers";
  Machine.charge t.ds_kernel.Kernel.machine 4

(* ---------------------------------------------------------------- *)
(* Write-back bookkeeping shared by the completion interrupt and the
   watchdog's permanent-failure path.  The dirty bit was kept set at
   eviction time; only a status-1 completion may clear it. *)

let writeback_done t req =
  let k = t.ds_kernel in
  match Hashtbl.find_opt t.ds_wb req.r_desc with
  | None -> ()
  | Some (block, buf) ->
    Hashtbl.remove t.ds_wb req.r_desc;
    (match Hashtbl.find_opt t.ds_cache block with
    | Some cbuf when cbuf = buf ->
      (* a flush of a still-resident block: the platter now matches
         the cache, so the block is clean *)
      Hashtbl.remove t.ds_dirty block
    | Some _ ->
      (* re-read into a fresh buffer while the write-back flew; that
         copy's own dirty state stands — just drop the old buffer *)
      Kalloc.free k.Kernel.alloc buf
    | None ->
      Hashtbl.remove t.ds_dirty block;
      Kalloc.free k.Kernel.alloc buf)

let writeback_failed t req =
  let k = t.ds_kernel in
  let m = k.Kernel.machine in
  match Hashtbl.find_opt t.ds_wb req.r_desc with
  | None -> ()
  | Some (block, buf) ->
    Hashtbl.remove t.ds_wb req.r_desc;
    (* the block never reached the platter: re-mark it dirty and make
       sure the data survives in the cache for another try *)
    Hashtbl.replace t.ds_dirty block ();
    Metrics.bump k.Kernel.metrics "disk.writeback_failed";
    Kernel.log_fault k ~tid:0
      ~reason:(Fmt.str "disk_writeback_failed block=%d" block);
    (match Hashtbl.find_opt t.ds_cache block with
    | None ->
      Hashtbl.replace t.ds_cache block buf;
      t.ds_lru <- t.ds_lru @ [ block ] (* coldest: next eviction retries *)
    | Some cbuf when cbuf = buf -> ()
    | Some cbuf ->
      (* a stale re-read shadows the unwritten data: restore it *)
      for i = 0 to block_words - 1 do
        Machine.poke m (cbuf + i) (Machine.peek m (buf + i))
      done;
      Machine.charge_refs m (2 * block_words);
      Kalloc.free k.Kernel.alloc buf)

(* A cache-fill read that failed permanently must not leave a garbage
   buffer behind as a future "hit". *)
let inflight_read_failed t req =
  match Hashtbl.find_opt t.ds_inflight req.r_block with
  | Some r when r == req ->
    Hashtbl.remove t.ds_inflight req.r_block;
    (match Hashtbl.find_opt t.ds_cache req.r_block with
    | Some buf ->
      Hashtbl.remove t.ds_cache req.r_block;
      t.ds_lru <- List.filter (fun b -> b <> req.r_block) t.ds_lru;
      Kalloc.free t.ds_kernel.Kernel.alloc buf
    | None -> ())
  | _ -> ()

let inflight_read_done t req =
  match Hashtbl.find_opt t.ds_inflight req.r_block with
  | Some r when r == req -> Hashtbl.remove t.ds_inflight req.r_block
  | _ -> ()

(* ---------------------------------------------------------------- *)
(* Completion interrupt *)

(* Read the device's status register through the MMIO path (the hooks
   only fire on machine loads, not host peeks). *)
let read_disk_status m =
  let saved = Machine.in_supervisor m in
  Machine.set_supervisor m true;
  let st = Machine.read_mem m Mmio_map.disk_status in
  Machine.set_supervisor m saved;
  st

let install_irq t =
  let k = t.ds_kernel in
  let m = k.Kernel.machine in
  let complete_id =
    Machine.register_hcall m (fun m ->
        let finished = ref None in
        (match t.ds_active with
        | Some req ->
          (* Completion-exactly-once: believe the interrupt only if
             the device actually reports the transfer done (status 2).
             The pre-fix handler completed [ds_active] on *any* disk
             interrupt, so a spurious one marked an in-flight request
             done with a stale buffer — and re-arming the device for
             the next request silently dropped the transfer still in
             flight.  Found by the kfault disk subject (spurious disk
             irqs are in its fault mix). *)
          if read_disk_status m = 2 then begin
            Machine.poke m (req.r_desc + 3) 1;
            t.ds_active <- None;
            watchdog_idle t;
            if t.ds_tries > 1 then
              (* a retried request finally completed: recovery latency
                 is fault (first issue) to completion *)
              t.ds_last_recovery_cycles <-
                Machine.cycles m - t.ds_active_since;
            (* device service (issue -> completion irq) ends here;
               the handler's own cycles become the interrupt phase *)
            (match Hashtbl.find_opt t.ds_spans req.r_desc with
            | Some id ->
              Hashtbl.remove t.ds_spans req.r_desc;
              Kernel.span k (fun sp ->
                  Kspan.hop sp id ~stage:"transfer" ~phase:Kspan.Service);
              finished := Some id
            | None -> ());
            (* settle the cache books before anyone can observe them *)
            if req.r_write then writeback_done t req
            else inflight_read_done t req;
            (* wake everyone sleeping on this transfer: shared wait
               queues (e.g. a file system mount) re-check on resume *)
            Thread.unblock_all k req.r_waitq;
            Kalloc.free k.Kernel.alloc req.r_desc;
            start_next t
          end
          else begin
            Metrics.bump k.Kernel.metrics "disk.spurious_irqs"
          end
        | None ->
          (* no transfer of ours in flight (e.g. a late completion of
             a request the watchdog already failed): just try to keep
             the pipeline moving *)
          start_next t);
        Machine.charge m 25;
        match !finished with
        | Some id ->
          Kernel.span k (fun sp ->
              Kspan.hop sp id ~stage:"irq" ~phase:Kspan.Interrupt;
              Kspan.close sp id)
        | None -> ())
  in
  let irq, _ =
    Ksynth.install k ~name:"disk/irq" [ I.Hcall complete_id; I.Rte ]
  in
  Kernel.set_vector_all k Mmio_map.disk_vector irq

(* ---------------------------------------------------------------- *)
(* Cache manager *)

(* Is a write-back of exactly this (block, buffer) pair already in
   flight?  Guards against submitting a second transfer from the same
   buffer — both completions would free it. *)
let wb_inflight t block buf =
  Hashtbl.fold
    (fun _ (b, bf) acc -> acc || (b = block && bf = buf))
    t.ds_wb false

(* The buffer of an in-flight write-back of [block], if any. *)
let wb_buffer t block =
  Hashtbl.fold
    (fun _ (b, bf) acc -> if b = block then Some bf else acc)
    t.ds_wb None

let evict_if_needed t =
  if Hashtbl.length t.ds_cache > t.ds_cache_capacity then begin
    (* never evict a slot whose fill is still in flight: the DMA would
       land in a freed buffer *)
    match
      List.find_opt
        (fun b -> not (Hashtbl.mem t.ds_inflight b))
        (List.rev t.ds_lru)
    with
    | None -> ()
    | Some victim ->
      t.ds_lru <- List.filter (fun b -> b <> victim) t.ds_lru;
      (match Hashtbl.find_opt t.ds_cache victim with
      | Some buf ->
        (* Write back dirty blocks before reuse.  The dirty bit stays
           set until the completion reports status 1 — clearing it
           here (as the pre-fix code did) meant a crash or a failed
           write-back silently dropped the block.  The buffer is
           freed by the completion path, not here. *)
        if Hashtbl.mem t.ds_dirty victim then begin
          (* A flush may have already put this buffer on the wire
             (found by the crash-model qcheck property: flush then
             evict submitted two transfers from one buffer and both
             completions freed it).  The in-flight completion clears
             the dirty bit and frees the buffer once the slot is
             gone — just drop the slot. *)
          if not (wb_inflight t victim buf) then begin
            let req = submit t ~block:victim ~buffer:buf ~write:true () in
            Hashtbl.replace t.ds_wb req.r_desc (victim, buf)
          end
        end
        else Kalloc.free t.ds_kernel.Kernel.alloc buf
      | None -> ());
      Hashtbl.remove t.ds_cache victim
  end

let touch t block =
  t.ds_lru <- block :: List.filter (fun b -> b <> block) t.ds_lru;
  Machine.charge t.ds_kernel.Kernel.machine 8

(* Get the cache buffer for [block], scheduling a read on a miss.
   Returns (buffer, ready_request option): [None] means a cache hit.
   A calling thread blocks on the request's wait queue on a miss. *)
let get_block t ?waitq block =
  let k = t.ds_kernel in
  match Hashtbl.find_opt t.ds_cache block with
  | Some buf -> (
    match Hashtbl.find_opt t.ds_inflight block with
    | Some req ->
      (* the fill is still on its way (e.g. an earlier sync read timed
         out): hand back the same transfer to re-await — no
         double-issue, no premature "hit" *)
      touch t block;
      (buf, Some req)
    | None ->
      t.ds_hits <- t.ds_hits + 1;
      touch t block;
      (buf, None))
  | None -> (
    match wb_buffer t block with
    | Some buf ->
      (* An evicted block whose write-back is still in flight: the
         data is still in memory, so resurrect that buffer as the
         cache slot instead of racing a device read against the
         in-flight write (the read could be serviced first and hand
         back pre-write-back platter contents). *)
      t.ds_hits <- t.ds_hits + 1;
      Hashtbl.replace t.ds_cache block buf;
      touch t block;
      evict_if_needed t;
      (buf, None)
    | None ->
      t.ds_misses <- t.ds_misses + 1;
      let buf = Kalloc.alloc k.Kernel.alloc block_words in
      Hashtbl.replace t.ds_cache block buf;
      touch t block;
      evict_if_needed t;
      let req = submit t ?waitq ~block ~buffer:buf ~write:false () in
      Hashtbl.replace t.ds_inflight block req;
      (buf, Some req))

let mark_dirty t block = Hashtbl.replace t.ds_dirty block ()

(* Submit write-backs for every dirty resident block (async; the dirty
   bits clear as each completion lands).  With [barrier] the flushed
   group is fenced off from everything submitted afterwards. *)
let barrier_fence = barrier

let flush t ?(barrier = false) () =
  let dirty = Hashtbl.fold (fun b () acc -> b :: acc) t.ds_dirty [] in
  let submitted =
    List.fold_left
      (fun n block ->
        match Hashtbl.find_opt t.ds_cache block with
        | Some buf when not (Hashtbl.mem t.ds_inflight block) ->
          if
            (* this buffer already on the wire? (the DMA copies at
               completion, so it carries the current contents) *)
            wb_inflight t block buf
          then n
          else begin
            let req = submit t ~block ~buffer:buf ~write:true () in
            Hashtbl.replace t.ds_wb req.r_desc (block, buf);
            n + 1
          end
        | _ -> n)
      0 (List.sort compare dirty)
  in
  if barrier && submitted > 0 then
    (barrier_fence t : unit);
  submitted

(* Nothing queued, nothing active, no write-back in flight. *)
let quiescent t =
  t.ds_active = None && t.ds_queue = [] && Hashtbl.length t.ds_wb = 0

(* Host-side: step the machine until the pipeline drains. *)
let drain t ~max_insns =
  let m = t.ds_kernel.Kernel.machine in
  let rec go n =
    if quiescent t then true
    else if n <= 0 then false
    else begin
      Machine.step m;
      go (n - 1)
    end
  in
  go max_insns

(* Host-side synchronous read: drives the machine until the request
   completes (for servers running outside a thread, and for tests).
   On [max_insns] exhaustion the request stays registered in
   [ds_inflight], so a later call re-awaits the same transfer — no
   double-issue, no half-filled cache slot mistaken for a hit. *)
let read_block_sync t block ~max_insns =
  let k = t.ds_kernel in
  let m = k.Kernel.machine in
  match get_block t block with
  | buf, None -> Some buf
  | buf, Some req ->
    (* completion (success or permanent failure) unregisters the
       in-flight entry; a failed fill also drops the cache slot *)
    let rec go n =
      if not (Hashtbl.mem t.ds_inflight block) then
        if Hashtbl.mem t.ds_cache block then Some buf else None
      else if n <= 0 then begin
        Metrics.bump k.Kernel.metrics "disk.sync_timeouts";
        None
      end
      else begin
        Machine.step m;
        go (n - 1)
      end
    in
    ignore req;
    go max_insns

(* ---------------------------------------------------------------- *)
(* Watchdog: bounded retry with backoff *)

(* Runs only when a transfer has been in flight longer than its
   allowance (never in fault-free runs).  Either re-issue the request
   — recovering from a lost or stalled completion — or, out of tries,
   fail it so waiters wake with status 2 instead of sleeping forever. *)
let watchdog_tick t m =
  let k = t.ds_kernel in
  match t.ds_active with
  | None -> ()
  | Some req ->
    if Machine.peek m (req.r_desc + 3) = 0 then begin
      Metrics.bump k.Kernel.metrics "disk.timeouts";
      Kernel.trace k (Ktrace.Fault "disk_timeout");
      if t.ds_tries < t.ds_max_tries then begin
        t.ds_tries <- t.ds_tries + 1;
        Metrics.bump k.Kernel.metrics "disk.retries";
        issue_via_machine t req;
        watchdog_arm t
      end
      else begin
        Metrics.bump k.Kernel.metrics "disk.failed";
        Kernel.log_fault k ~tid:0
          ~reason:(Fmt.str "disk_failed block=%d" req.r_block);
        (match Hashtbl.find_opt t.ds_spans req.r_desc with
        | Some id ->
          Hashtbl.remove t.ds_spans req.r_desc;
          Kernel.span k (fun sp ->
              Kspan.fail sp id
                ~reason:(Fmt.str "disk_failed block=%d" req.r_block))
        | None -> ());
        Machine.poke m (req.r_desc + 3) 2;
        t.ds_active <- None;
        (* a failed write-back re-dirties its block; a failed
           cache-fill read must not leave a garbage "hit" behind *)
        if req.r_write then writeback_failed t req
        else inflight_read_failed t req;
        Thread.unblock_all k req.r_waitq;
        Kalloc.free k.Kernel.alloc req.r_desc;
        start_next t
      end
    end

let stats t = (t.ds_hits, t.ds_misses)
let service_order t = List.rev t.ds_issued
let last_recovery_cycles t = t.ds_last_recovery_cycles
let active_tries t = t.ds_tries

(* ---------------------------------------------------------------- *)

let install k ?(cache_capacity = 16) ?(timeout_us = 8_000.0) ?(max_tries = 4)
    () =
  let m = k.Kernel.machine in
  let t =
    {
      ds_kernel = k;
      ds_queue = [];
      ds_active = None;
      ds_arm_position = 0;
      ds_direction = 1;
      ds_issued = [];
      ds_cache = Hashtbl.create 64;
      ds_lru = [];
      ds_cache_capacity = cache_capacity;
      ds_dirty = Hashtbl.create 16;
      ds_hits = 0;
      ds_misses = 0;
      ds_epoch = 0;
      ds_wb = Hashtbl.create 8;
      ds_inflight = Hashtbl.create 8;
      ds_timeout_cycles = Cost.cycles_of_us (Machine.cost_model m) timeout_us;
      ds_max_tries = max_tries;
      ds_tries = 1;
      ds_active_since = 0;
      ds_watchdog = None;
      ds_last_recovery_cycles = 0;
      ds_spans = Hashtbl.create 8;
    }
  in
  t.ds_watchdog <-
    Some
      (Machine.add_device m ~name:"disk/watchdog" ~due:max_int
         ~tick:(fun m -> watchdog_tick t m));
  install_irq t;
  t
