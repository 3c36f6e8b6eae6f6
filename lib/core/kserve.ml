(* kserve: a synthesized network serving stack.

   The server is one synthesized serve pump per core (the paper's
   Collapsing Layers and Code Isolation): each pump owns one queue of
   the NIC, lifts request frames off that queue's rx ring, and takes
   one jump per request through a (slot, op) table: into the read,
   write or close entry of the routine the accept path synthesized
   with Ksynth at open time (so warm accepts are cache hits), or into
   the pump's own accept or op_err path.  Each of those jumps straight
   back to the pump, which lays the response on its queue's tx ring
   before it reads the next frame.  The card steers a frame by its id field —
   the conn for an open, the slot otherwise — and accept gives a
   connection a slot congruent to its conn modulo the queue count, so
   a slot's whole life runs through one pump.  A pump drains its rx
   ring in batches while it has work; one whose ring is empty arms its
   queue's interrupt and sleeps in its own synthesized wait handler,
   which takes the wake itself — the card interrupts a queue only
   while its pump sleeps.  Spans are minted when the request word is
   read and closed when the response is stored, so every request's
   latency lands in the "kspan.serve.total_cycles" histogram.

   Overload handling is a scheduling policy (§3): a host-side
   controller samples the card's arrivals and the pumps' responses
   (the sum of their tx doorbell cells, also [n_responses]) each epoch
   as windowed rates, retunes the quantum of each pump that shares its
   core against its rx-ring occupancy, and — past a high watermark —
   arms the NIC's admission limit so excess offered load is shed at
   the rx rings instead of queueing without bound. *)

open Quamachine
module I = Insn

(* ------------------------------------------------------------------ *)
(* The wire protocol: one word per frame.                              *)
(* ------------------------------------------------------------------ *)

let id_shift = 18
let op_shift = 15
let arg_mask = 0x7FFF
let op_open = 1
let op_read = 2
let op_write = 3
let op_close = 4
let op_err = 7

(* id 16383 is reserved: with op_err and arg_mask it would make the
   all-ones word, which the wire format keeps out of use. *)
let max_conn_id = 16382

let pack ~id ~op ~arg =
  if id < 0 || id > max_conn_id then invalid_arg "Kserve.pack: bad id";
  (id lsl id_shift) lor ((op land 7) lsl op_shift) lor (arg land arg_mask)

let msg_id w = (w lsr id_shift) land 0x3FFF
let msg_op w = (w lsr op_shift) land 7
let msg_arg w = w land arg_mask

(* Span side-table keys: in-flight opens are keyed by connection in a
   namespace disjoint from slot keys. *)
let open_span_key conn = (1 lsl 20) lor conn

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  cfg_slots : int;  (* power of two; connection table size *)
  cfg_files : int;  (* power of two; files served *)
  cfg_ring_len : int;  (* power of two; NIC rx/tx ring entries *)
  cfg_poll_us : float;  (* NIC service-tick period *)
  cfg_worker_quantum_max_us : int;  (* the longest; a lone pump's every tick *)
  cfg_admit_hi : int;  (* rx-ring occupancy that arms shedding *)
  cfg_admit_lo : int;  (* rx-ring occupancy that disarms it *)
  cfg_admit_limit : int;  (* rx occupancy admitted while shedding *)
}

let default_config =
  {
    cfg_slots = 64;
    cfg_files = 8;
    cfg_ring_len = 64;
    cfg_poll_us = 2.0;
    cfg_worker_quantum_max_us = 400;
    cfg_admit_hi = 96;
    cfg_admit_lo = 32;
    cfg_admit_limit = 16;
  }

(* Words in each served file. *)
let file_words = 64

(* A NIC queue's rx completions per interrupt. *)
let coalesce = 4

(* A pump's first quantum, and the base the controller retunes from
   while the pump shares its core. *)
let worker_quantum_us = 100

(* The overload controller's sampling period. *)
let ctl_epoch_us = 200.0

(* ------------------------------------------------------------------ *)
(* The per-connection service template (§2.2)                          *)
(* ------------------------------------------------------------------ *)

(* Synthesized at accept time with the file's buffer base, capacity
   and size cell, the connection's position cell, the response
   constants and the address of its pump's [space] label folded in (a
   slot's queue, and so its pump, never changes).  It has one entry
   per op — [read], [write], [close] — and no op decode: the pump
   jumps to the entry with the request in r1, and the entry jumps back
   to [space] with the response in r1; r4..r8 are scratch.  Reads are
   a circular stream over the file body; writes append and wrap (a
   ring file).

   A file's size cell and body are the only state two pumps can both
   write, so with more than one pump the write path holds the file's
   [lock] cell (a Cas spin lock) around its append.  With one pump
   the invariant is 0 and the lock folds away: the one-core routine
   has no Cas in it. *)
let service_template ~slot ~(file : Fs.file) ~pos_cell ~close_hc ~lock ~space =
  let respc op = pack ~id:slot ~op ~arg:0 in
  let back = I.Jmp (I.To_addr space) in
  Template.make ~name:"serve/conn" (fun () ->
      let acquire, release =
        if lock = 0 then ([], [])
        else
          ( [
              I.Label "wr_lock";
              I.Move (I.Imm 0, I.Reg I.r4);
              I.Move (I.Imm 1, I.Reg I.r5);
              I.Cas (I.r4, I.r5, I.Abs lock);
              I.B (I.Ne, I.To_label "wr_lock");
            ],
            [ I.Move (I.Imm 0, I.Abs lock) ] )
      in
      [
        (* read: value = body[pos], pos advances and wraps at size *)
        I.Label "read";
        I.Move (I.Abs file.Fs.f_size_cell, I.Reg I.r6);
        I.Cmp (I.Imm 0, I.Reg I.r6);
        I.B (I.Eq, I.To_label "rd_empty");
        I.Move (I.Abs pos_cell, I.Reg I.r5);
        I.Cmp (I.Reg I.r6, I.Reg I.r5);
        I.B (I.Cs, I.To_label "rd_ok"); (* pos < size *)
        I.Move (I.Imm 0, I.Reg I.r5);
        I.Label "rd_ok";
        I.Move (I.Reg I.r5, I.Reg I.r7);
        I.Alu (I.Add, I.Imm file.Fs.f_buf, I.r7);
        I.Move (I.Ind I.r7, I.Reg I.r7);
        I.Alu (I.Add, I.Imm 1, I.r5);
        I.Move (I.Reg I.r5, I.Abs pos_cell);
        I.Alu (I.And, I.Imm arg_mask, I.r7);
        I.Move (I.Imm (respc op_read), I.Reg I.r1);
        I.Alu (I.Or, I.Reg I.r7, I.r1);
        back;
        I.Label "rd_empty";
        I.Move (I.Imm (respc op_read), I.Reg I.r1);
        back;
        (* write: body[size] = arg, size advances and wraps at cap *)
        I.Label "write";
      ]
      @ acquire
      @ [
          I.Move (I.Reg I.r1, I.Reg I.r7);
          I.Alu (I.And, I.Imm arg_mask, I.r7);
          I.Move (I.Abs file.Fs.f_size_cell, I.Reg I.r5);
          I.Cmp (I.Imm file.Fs.f_cap, I.Reg I.r5);
          I.B (I.Cs, I.To_label "wr_ok"); (* size < cap *)
          I.Move (I.Imm 0, I.Reg I.r5);
          I.Label "wr_ok";
          I.Move (I.Reg I.r5, I.Reg I.r6);
          I.Alu (I.Add, I.Imm file.Fs.f_buf, I.r6);
          I.Move (I.Reg I.r7, I.Ind I.r6);
          I.Alu (I.Add, I.Imm 1, I.r5);
          I.Move (I.Reg I.r5, I.Abs file.Fs.f_size_cell);
        ]
      @ release
      @ [
          I.Move (I.Imm (respc op_write), I.Reg I.r1);
          I.Alu (I.Or, I.Reg I.r7, I.r1);
          back;
          (* close: tell the host, acknowledge *)
          I.Label "close";
          I.Hcall close_hc;
          I.Move (I.Imm (respc op_close), I.Reg I.r1);
          back;
        ])

(* The dispatch table has one entry per (slot, op): the request word
   shifted right by [op_shift] is its index, slot * 8 + op. *)
let ops_per_slot = 1 lsl (id_shift - op_shift)

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

type slot_state = { sl_conn : int; sl_file : int; sl_handle : Ksynth.handle }

type stats = {
  n_accepts : int;
  n_closes : int;
  n_refused : int;  (* opens refused for want of a slot *)
  n_dup_opens : int;
  n_hits : int;  (* accepts served from the synthesis cache *)
  n_misses : int;
  n_retunes : int;  (* controller quantum adjustments *)
  n_responses : int;  (* responses laid on the tx rings *)
  n_shed : int;  (* frames shed at the rx rings while overloaded *)
}

(* One pump per NIC queue, pinned to the queue's core.  Its control
   cells are [p_cells]: rx mail (head writeback), rx tail, tx mail
   (tail writeback), tx head (doorbell), done, and the queue's
   interrupt-arm cell. *)
type pump = {
  p_queue : int;
  p_cells : int;
  mutable p_wait : int;  (* its wait handler, entered by trap 15 *)
  mutable p_tick : int;  (* its quantum-timer handler *)
  mutable p_entry : int;
  mutable p_space : int;  (* where every dispatched op jumps back to *)
  mutable p_accept : int;  (* its open path *)
  mutable p_err : int;  (* its op_err answer *)
  mutable p_tte : Kernel.tte option;
}

let pump_cells = 6
let rx_mail_of p = p.p_cells
let rx_tail_of p = p.p_cells + 1
let tx_mail_of p = p.p_cells + 2
let tx_head_of p = p.p_cells + 3
let done_of p = p.p_cells + 4
let arm_of p = p.p_cells + 5

(* the pump's sleep: a trap into its own wait handler *)
let wait_trap = 15

type t = {
  sv_boot : Boot.t;
  sv_k : Kernel.t;
  sv_cfg : config;
  sv_nic : Devices.Nic.t;
  sv_files : Fs.file array;
  sv_locks : int;  (* per-file write lock cells; 0 with one pump *)
  sv_tbl : int;  (* (slot, op) dispatch table (code addresses in data) *)
  sv_pos_base : int;  (* per-slot stream position cells *)
  sv_stop_cell : int;
  sv_pumps : pump array;
  sv_slots : slot_state option array;
  sv_free : int list array;  (* never-used slots, per queue *)
  sv_retired : int list array array;  (* freed slots, per queue and last-served file *)
  sv_warm : bool array;  (* slot * files + file: has the slot served the file? *)
  sv_conn_of : (int, int) Hashtbl.t;
  sv_spans : (int, int Queue.t) Hashtbl.t;  (* span ids in flight *)
  sv_segments : (int * int) list;
  mutable sv_accept_hc : int;
  mutable sv_close_hc : int;
  mutable sv_alone_hc : int;
  mutable sv_shedding : bool;
  mutable sv_accepts : int;
  mutable sv_closes : int;
  mutable sv_refused : int;
  mutable sv_dup_opens : int;
  mutable sv_hits : int;
  mutable sv_misses : int;
  mutable sv_retunes : int;
}

let pow2 n = n > 0 && n land (n - 1) = 0

(* the queue (and so the pump) a conn's or a slot's frames go to *)
let queue_of t id = id mod Array.length t.sv_pumps

let pump_of t slot = t.sv_pumps.(queue_of t slot)

(* point a slot's read, write and close entries at [read], [write]
   and [close] *)
let set_data_ops t ~slot ~read ~write ~close =
  let m = t.sv_k.Kernel.machine in
  let at op = t.sv_tbl + (slot * ops_per_slot) + op in
  Machine.poke m (at op_read) read;
  Machine.poke m (at op_write) write;
  Machine.poke m (at op_close) close

(* span bookkeeping (host side, no simulated cycles) *)
let span_push t key sid =
  let q =
    match Hashtbl.find_opt t.sv_spans key with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.replace t.sv_spans key q;
      q
  in
  Queue.push sid q

let span_pop t key =
  match Hashtbl.find_opt t.sv_spans key with
  | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
  | _ -> None

(* move one pending-open span from the conn key to the slot key *)
let span_rekey t ~conn ~slot =
  match span_pop t (open_span_key conn) with
  | Some sid -> span_push t slot sid
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Accept and close (the hcall side of the server)                     *)
(* ------------------------------------------------------------------ *)

(* Accept: resolve the file through the vfs name space, synthesize (or
   cache-hit) the per-connection service routine, point the slot's
   read, write and close entries of the dispatch table at it, and
   answer with the assigned slot.  The slot comes
   from the conn's queue (slot = conn mod queues), so the slot's data,
   close and recycling all pass through the pump that accepted it.
   The response's arg echoes the connection id so the client can
   match it. *)
let do_accept t ~conn ~farg =
  let k = t.sv_k in
  let conn = conn land 0x3FFF in
  let echo = conn land arg_mask in
  match Hashtbl.find_opt t.sv_conn_of conn with
  | Some slot ->
    t.sv_dup_opens <- t.sv_dup_opens + 1;
    span_rekey t ~conn ~slot;
    pack ~id:slot ~op:op_open ~arg:echo
  | None -> (
    let fidx = farg land (Array.length t.sv_files - 1) in
    let q = queue_of t conn in
    let retired = t.sv_retired.(q) in
    (* slot recycling is file-affine: a slot that last served this
       file yields byte-identical invariants, so the instantiate below
       is a cache hit (the paper's recycled-cells discipline).  Failing
       that, a slot retired from another file that served this one
       before still has its page for this file warm in the cache. *)
    let warm s = t.sv_warm.((s * Array.length t.sv_files) + fidx) in
    (* the first retired slot [ok] accepts, taken off its list *)
    let take_retired ok =
      let rec go f =
        if f = Array.length retired then None
        else
          match List.find_opt ok retired.(f) with
          | Some s ->
            retired.(f) <- List.filter (( <> ) s) retired.(f);
            Some s
          | None -> go (f + 1)
      in
      go 0
    in
    let take_slot () =
      match retired.(fidx) with
      | slot :: rest ->
        retired.(fidx) <- rest;
        Some slot
      | [] -> (
        match take_retired warm with
        | Some _ as slot -> slot
        | None -> (
          match t.sv_free.(q) with
          | slot :: rest ->
            t.sv_free.(q) <- rest;
            Some slot
          | [] -> take_retired (fun _ -> true) (* steal from another file *)))
    in
    match take_slot () with
    | None ->
      t.sv_refused <- t.sv_refused + 1;
      Kernel.span k (fun sp ->
          match span_pop t (open_span_key conn) with
          | Some sid -> Kspan.fail sp sid ~reason:"refused"
          | None -> ());
      pack ~id:0 ~op:op_err ~arg:echo
    | Some slot ->
      let file = t.sv_files.(fidx) in
      (* name-space resolution: the accept path goes through the vfs *)
      (match Vfs.lookup t.sv_boot.Boot.vfs file.Fs.f_name with
      | Some _ -> ()
      | None -> invalid_arg "Kserve: served file left the name space");
      let pos_cell = t.sv_pos_base + slot in
      let before = (Ksynth.stats k).Ksynth.st_hits in
      let h =
        Ksynth.instantiate k ~name:"serve/conn" ~kind:"serve"
          ~template:
            (service_template ~slot ~file ~pos_cell ~close_hc:t.sv_close_hc
               ~lock:(if t.sv_locks = 0 then 0 else t.sv_locks + fidx)
               ~space:(pump_of t slot).p_space)
      in
      if (Ksynth.stats k).Ksynth.st_hits > before then
        t.sv_hits <- t.sv_hits + 1
      else t.sv_misses <- t.sv_misses + 1;
      t.sv_warm.((slot * Array.length t.sv_files) + fidx) <- true;
      Machine.poke k.Kernel.machine pos_cell 0;
      set_data_ops t ~slot ~read:(Ksynth.sym h "read") ~write:(Ksynth.sym h "write")
        ~close:(Ksynth.sym h "close");
      t.sv_slots.(slot) <- Some { sl_conn = conn; sl_file = fidx; sl_handle = h };
      Hashtbl.replace t.sv_conn_of conn slot;
      t.sv_accepts <- t.sv_accepts + 1;
      span_rekey t ~conn ~slot;
      pack ~id:slot ~op:op_open ~arg:echo)

(* Close: release the handle (the page stays warm in the cache for
   the next accept), repoint the slot's read, write and close entries
   at its pump's op_err path, recycle the slot on its queue. *)
let do_close t ~slot =
  if slot >= 0 && slot < Array.length t.sv_slots then
    match t.sv_slots.(slot) with
    | None -> ()
    | Some s ->
      Hashtbl.remove t.sv_conn_of s.sl_conn;
      Ksynth.release t.sv_k s.sl_handle;
      let err = (pump_of t slot).p_err in
      set_data_ops t ~slot ~read:err ~write:err ~close:err;
      t.sv_slots.(slot) <- None;
      let retired = t.sv_retired.(queue_of t slot) in
      retired.(s.sl_file) <- slot :: retired.(s.sl_file);
      t.sv_closes <- t.sv_closes + 1

let host_accept t ~conn ~file = do_accept t ~conn ~farg:file
let host_close t ~slot = do_close t ~slot

(* ------------------------------------------------------------------ *)
(* The serve pump                                                      *)
(* ------------------------------------------------------------------ *)

(* One loop from wire to wire (user mode — the NIC's mailbox cells
   stand in for the supervisor-only MMIO window), one instance per
   queue with the queue's rings and cells folded in.  The pump keeps
   its rx tail in r3, its tx head in r12 and its tx credit (free tx
   descriptors it knows of) in r13; it reads r3 and r12 from their
   cells once at entry, and nothing it jumps to touches r2, r3, r12 or
   r13.  It works in
   batches: read the stop cell and snapshot the head-writeback cell
   into r2, then serve frames until the tail reaches the snapshot.

   Per frame: take the request word, retire the descriptor and publish
   the new tail; then one bounds check and one jump through the
   (slot, op) table at the word shifted right by [op_shift] (slot * 8
   + op).  A live slot's read, write and close entries are the
   routine accept synthesized for it; every slot's open entry is the
   pump's [accept] (an open's id is a conn, not a slot), and every
   other entry its [err] path, which answers op_err keeping the id
   bits.  An index past the table takes the same two paths by op.
   Whatever ran (r1 and r4..r8 are its scratch) jumps back to [space]
   with the response in r1.  There, a zero credit is refilled from the
   card's tail-writeback cell, yielding while the ring is still full;
   then the pump stores the response and rings the doorbell cell.
   A close's ack is on the tx ring before the next frame is read, so a
   recycled slot's open response can never overtake it.  While the tx
   ring is full the pump yields without reading more, so the rx ring
   fills and the card sheds — backpressure reaches the wire.  On stop
   it raises its done flag and exits.

   The queue interrupts only while the pump sleeps.  An empty rx ring
   traps into the page's wait handler (supervisor mode): it masks
   interrupts, arms the queue's interrupt, re-reads the stop cell and
   the mailbox against the tail, and only if there is still nothing to
   do pauses the core's quantum timer and stops the core.  A frame
   that lands before the arm is seen by the re-check; one that lands
   after it posts the queue's interrupt (disarming the queue), so
   Stop_wait falls through — as it does for a shutdown wake.  Every
   return disarms the queue and acknowledges the card's level on this
   core before the Rte, so the wake costs no interrupt entry and a
   busy pump is never interrupted.  A pump that shares its core with
   another ready thread yields instead, still armed, so a sleeping
   pump with its quantum paused never starves that thread and a frame
   still reaches a core the neighbour stops.

   The pump's quantum timer lands in the page's tick stub, not in its
   switch-out (§4.4: a thread alone on its core needs no quantum).  The
   stub asks the host whether the pump is alone on its core's ring; if
   so it re-arms the timer with the longest quantum and returns, so a
   lone pump never switches to itself.  Otherwise it jumps through the
   core's switch-out cell into the normal switch, so a ring of two or
   more still round-robins, and a thread made ready with no timer arm
   waits at most one longest quantum.  The stub saves r9, the host
   call's result register, around the call, and touches no other
   register: the tick can land anywhere in the loop.

   Span probes: "open" mints a request's span with the request word at
   r11 (an open is keyed by conn until accept gives it a slot);
   "close" closes it with the response word in r1. *)
let pump_template t ~ring_len ~pump ~rx_ring ~tx_ring ~cpu =
  let entries = Array.length t.sv_slots * ops_per_slot in
  let yield = Ksynth.lookup t.sv_k "syscall/yield" in
  let timer = Mmio_map.timer_alarm_for cpu in
  Template.make ~name:"serve/pump" (fun () ->
      [
        I.Move (I.Abs (rx_tail_of pump), I.Reg I.r3);
        I.Move (I.Abs (tx_head_of pump), I.Reg I.r12);
        I.Move (I.Imm 0, I.Reg I.r13); (* the first response refills *)
        I.Label "loop";
        I.Move (I.Abs t.sv_stop_cell, I.Reg I.r8);
        I.Tst (I.Reg I.r8);
        I.B (I.Ne, I.To_label "stop");
        I.Move (I.Abs (rx_mail_of pump), I.Reg I.r2); (* this batch's end *)
        I.Cmp (I.Reg I.r2, I.Reg I.r3);
        I.B (I.Ne, I.To_label "have");
        I.Trap wait_trap; (* ring empty: sleep until the queue's interrupt *)
        I.B (I.Always, I.To_label "loop");
        I.Label "have";
        I.Move (I.Reg I.r3, I.Reg I.r10);
        I.Alu (I.And, I.Imm (ring_len - 1), I.r10);
        I.Alu (I.Lsl, I.Imm 2, I.r10); (* * desc_words *)
        I.Alu (I.Add, I.Imm rx_ring, I.r10);
        I.Move (I.Ind I.r10, I.Reg I.r11); (* descriptor buffer *)
        I.Probe "open";
        I.Move (I.Ind I.r11, I.Reg I.r1); (* the request word *)
        I.Move (I.Imm 0, I.Idx (I.r10, 2)); (* descriptor consumed *)
        I.Alu (I.Add, I.Imm 1, I.r3);
        I.Move (I.Reg I.r3, I.Abs (rx_tail_of pump));
        I.Move (I.Reg I.r1, I.Reg I.r8);
        I.Alu (I.Lsr, I.Imm op_shift, I.r8); (* slot * 8 + op *)
        I.Cmp (I.Imm entries, I.Reg I.r8);
        I.B (I.Cc, I.To_label "wide"); (* past the table *)
        I.Alu (I.Add, I.Imm t.sv_tbl, I.r8);
        I.Jmp (I.To_mem (I.Ind I.r8)); (* the op's entry: back at space *)
        I.Label "space";
        I.Tst (I.Reg I.r13);
        I.B (I.Ne, I.To_label "ok");
        I.Label "refill";
        I.Move (I.Abs (tx_mail_of pump), I.Reg I.r13);
        I.Alu (I.Sub, I.Reg I.r12, I.r13);
        I.Alu (I.Add, I.Imm ring_len, I.r13); (* ring_len - occupancy *)
        I.B (I.Ne, I.To_label "ok");
        I.Trap 5; (* ring full: yield until the card drains *)
        I.B (I.Always, I.To_label "refill");
        I.Label "ok";
        I.Move (I.Reg I.r12, I.Reg I.r10);
        I.Alu (I.And, I.Imm (ring_len - 1), I.r10);
        I.Alu (I.Lsl, I.Imm 2, I.r10);
        I.Alu (I.Add, I.Imm tx_ring, I.r10);
        I.Move (I.Ind I.r10, I.Reg I.r11);
        I.Move (I.Reg I.r1, I.Ind I.r11); (* the response word *)
        I.Probe "close";
        I.Alu (I.Add, I.Imm 1, I.r12);
        I.Move (I.Reg I.r12, I.Abs (tx_head_of pump)); (* doorbell *)
        I.Alu (I.Sub, I.Imm 1, I.r13);
        I.Cmp (I.Reg I.r2, I.Reg I.r3);
        I.B (I.Ne, I.To_label "have"); (* the batch goes on *)
        I.B (I.Always, I.To_label "loop");
        (* an id past the table: an open by a high conn, or a bad slot *)
        I.Label "wide";
        I.Alu (I.And, I.Imm 7, I.r8);
        I.Cmp (I.Imm op_open, I.Reg I.r8);
        I.B (I.Ne, I.To_label "err");
        I.Label "accept";
        I.Hcall t.sv_accept_hc;
        I.B (I.Always, I.To_label "space");
        (* op_err, keeping the id bits *)
        I.Label "err";
        I.Alu (I.And, I.Imm (0x3FFF lsl id_shift), I.r1);
        I.Alu (I.Or, I.Imm (op_err lsl op_shift), I.r1);
        I.B (I.Always, I.To_label "space");
        I.Label "stop";
        I.Move (I.Imm 1, I.Abs (done_of pump));
        I.Trap 0;
        (* the wait handler: trap 15 from "loop", supervisor mode *)
        I.Label "wait";
        I.Set_ipl 7;
        I.Move (I.Imm 1, I.Abs (arm_of pump));
        I.Move (I.Abs t.sv_stop_cell, I.Reg I.r8);
        I.Tst (I.Reg I.r8);
        I.B (I.Ne, I.To_label "woke");
        I.Move (I.Abs (rx_mail_of pump), I.Reg I.r8);
        I.Cmp (I.Reg I.r3, I.Reg I.r8);
        I.B (I.Ne, I.To_label "woke");
        I.Hcall t.sv_alone_hc;
        I.Tst (I.Reg I.r9);
        I.B (I.Eq, I.To_label "share");
        I.Move (I.Abs timer, I.Reg I.r9); (* quantum left, us *)
        I.Move (I.Imm 0, I.Abs timer); (* paused while asleep *)
        I.Stop_wait;
        I.Tst (I.Reg I.r9);
        I.B (I.Ne, I.To_label "resume");
        I.Move (I.Imm 1, I.Reg I.r9);
        I.Label "resume";
        I.Move (I.Reg I.r9, I.Abs timer);
        I.Label "woke";
        I.Move (I.Imm 0, I.Abs (arm_of pump));
        I.Move (I.Imm Mmio_map.nic_level, I.Abs Mmio_map.irq_ack);
        I.Rte;
        I.Label "share";
        I.Jmp (I.To_addr yield); (* the trap frame is yield's *)
        (* the tick stub: the pump's timer vector, supervisor mode *)
        I.Label "tick";
        I.Push (I.Reg I.r9);
        I.Hcall t.sv_alone_hc;
        I.Tst (I.Reg I.r9);
        I.B (I.Eq, I.To_label "switch");
        I.Pop I.r9;
        I.Move (I.Imm t.sv_cfg.cfg_worker_quantum_max_us, I.Abs timer);
        I.Rte;
        I.Label "switch";
        I.Pop I.r9;
        I.Jmp (I.To_mem (I.Abs (Layout.cur_sw_out_cell_for cpu)));
      ])

let pump_probes t =
  [
    ( "open",
      Kernel.Span
        (fun sp m ->
          let w = Machine.peek m (Machine.get_reg m I.r11) in
          let key =
            if msg_op w = op_open then open_span_key (msg_id w) else msg_id w
          in
          let sid = Kspan.open_span sp ~pipeline:"serve" ~detail:"req" in
          span_push t key sid) );
    ( "close",
      Kernel.Span
        (fun sp m ->
          let w = Machine.get_reg m I.r1 in
          match span_pop t (msg_id w) with
          | Some sid -> Kspan.close sp sid
          | None -> ()) );
  ]

(* ------------------------------------------------------------------ *)
(* The overload controller (§3: scheduling policy, not a mechanism)    *)
(* ------------------------------------------------------------------ *)

(* Is [tte] the only thread ready on its core? *)
let alone tte = Ready_queue.in_queue tte && Ready_queue.next_exn tte == tte

let rx_ring_occupancy t p =
  let head = Devices.Nic.rx_head ~q:p.p_queue t.sv_nic in
  let tail = Machine.peek t.sv_k.Kernel.machine (rx_tail_of p) in
  (head - tail) land Word.mask

(* Responses laid on the tx rings: the sum of the pumps' tx doorbell
   cells, which only the pumps write. *)
let responses t =
  let m = t.sv_k.Kernel.machine in
  Array.fold_left (fun n p -> n + Machine.peek m (tx_head_of p)) 0 t.sv_pumps

let install_controller t =
  let k = t.sv_k in
  let m = k.Kernel.machine in
  let cfg = t.sv_cfg in
  let epoch = Cost.cycles_of_us (Machine.cost_model m) ctl_epoch_us in
  let backlog_g = Metrics.gauge k.Kernel.metrics "serve.backlog" in
  let dev = ref None in
  (* arrivals are the card's rx deliveries, services the responses the
     pumps laid; both in events per kilocycle over the epoch *)
  let delivered () = (Devices.Nic.stats t.sv_nic).Devices.Nic.s_rx_delivered in
  let rate name count = Metrics.rate k.Kernel.metrics name ~count ~cycles:(Machine.cycles m) in
  let arrival = rate "serve.arrival_rate" (delivered ()) in
  let service = rate "serve.service_rate" (responses t) in
  let tick m' =
    let cycles = Machine.cycles m' in
    Metrics.sample arrival ~count:(delivered ()) ~cycles;
    Metrics.sample service ~count:(responses t) ~cycles;
    let pressures = Array.map (rx_ring_occupancy t) t.sv_pumps in
    let pressure = Array.fold_left max 0 pressures in
    Metrics.set_gauge backlog_g (float_of_int (Array.fold_left ( + ) 0 pressures));
    (* admission control: shed at the NIC rings once any ring passes
       the high watermark, readmit when all are below the low one *)
    if (not t.sv_shedding) && pressure >= cfg.cfg_admit_hi then begin
      Devices.Nic.host_set_admit t.sv_nic cfg.cfg_admit_limit;
      t.sv_shedding <- true;
      Metrics.bump k.Kernel.metrics "serve.shed_on"
    end
    else if t.sv_shedding && pressure <= cfg.cfg_admit_lo then begin
      Devices.Nic.host_set_admit t.sv_nic 0;
      t.sv_shedding <- false
    end;
    (* quantum retune: a longer pump quantum as its rx ring fills
       (fewer context switches, more service throughput).  A pump alone
       on its core never switches in again — its timer stub re-arms the
       longest quantum — so only a pump that shares its core is
       retuned. *)
    let span = cfg.cfg_worker_quantum_max_us - worker_quantum_us in
    Array.iteri
      (fun i p ->
        let frac =
          min 1.0 (float_of_int pressures.(i) /. float_of_int cfg.cfg_admit_hi)
        in
        let q = worker_quantum_us + int_of_float (frac *. float_of_int span) in
        match p.p_tte with
        | Some tte
          when tte.Kernel.state <> Kernel.Zombie
               && tte.Kernel.quantum_us <> q
               && not (alone tte) ->
          Ctx.set_quantum k tte q;
          Kernel.trace k (Ktrace.Retune (tte.Kernel.tid, q));
          t.sv_retunes <- t.sv_retunes + 1
        | _ -> ())
      t.sv_pumps;
    match !dev with
    | Some d -> Machine.device_schedule m' d (Machine.cycles m' + epoch)
    | None -> ()
  in
  let d =
    Machine.add_device m ~name:"serve-ctl" ~due:(Machine.cycles m + epoch) ~tick
  in
  dev := Some d

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let spawn_pump t p =
  let k = t.sv_k in
  let cpu = if Array.length t.sv_pumps = 1 then None else Some p.p_queue in
  let tte =
    Thread.create k ?cpu ~quantum_us:worker_quantum_us
      ~segments:t.sv_segments ~entry:p.p_entry ()
  in
  Kernel.set_vector k tte (I.Vector.trap wait_trap) p.p_wait;
  Kernel.set_vector k tte Mmio_map.timer_vector p.p_tick;
  Thread.start k tte;
  p.p_tte <- Some tte

let create ?(config = default_config) boot =
  let cfg = config in
  if not (pow2 cfg.cfg_slots && cfg.cfg_slots <= 4096) then
    invalid_arg "Kserve: slots must be 2^k <= 4096";
  if not (pow2 cfg.cfg_files) then invalid_arg "Kserve: files must be 2^k";
  if not (pow2 cfg.cfg_ring_len) then invalid_arg "Kserve: ring_len must be 2^k";
  let k = boot.Boot.kernel in
  let m = k.Kernel.machine in
  let alloc = k.Kernel.alloc in
  let nq = Machine.num_cores m in
  if nq > cfg.cfg_slots then invalid_arg "Kserve: fewer slots than cores";
  let nic =
    Devices.Nic.install ~poll_us:cfg.cfg_poll_us ~queues:nq
      ~steer:(fun f -> msg_id f.(0))
      m
  in
  (* the served files, registered in the vfs name space *)
  let files =
    Array.init cfg.cfg_files (fun i ->
        let content =
          Array.init file_words (fun j ->
              ((i * 31) + (j * 7) + 1) land arg_mask)
        in
        Fs.create_file boot.Boot.vfs
          ~name:(Printf.sprintf "/srv/%d" i)
          ~capacity:file_words ~content ())
  in
  (* with more than one pump, a file's appends are serialized by its
     lock cell *)
  let locks = if nq = 1 then 0 else Kalloc.alloc_zeroed alloc cfg.cfg_files in
  let stop_cell = Kalloc.alloc_zeroed alloc 1 in
  (* per queue: control cells, descriptor rings, single-word frame
     buffers *)
  let ring_len = cfg.cfg_ring_len in
  let ring_words = Devices.Nic.desc_words * ring_len in
  let queue_mem =
    Array.init nq (fun _ ->
        let cells = Kalloc.alloc_zeroed alloc pump_cells in
        let rx_ring = Kalloc.alloc_zeroed alloc ring_words in
        let tx_ring = Kalloc.alloc_zeroed alloc ring_words in
        let rx_bufs = Kalloc.alloc_zeroed alloc ring_len in
        let tx_bufs = Kalloc.alloc_zeroed alloc ring_len in
        for i = 0 to ring_len - 1 do
          let rd = rx_ring + (Devices.Nic.desc_words * i) in
          Machine.poke m rd (rx_bufs + i);
          Machine.poke m (rd + 1) 1;
          let td = tx_ring + (Devices.Nic.desc_words * i) in
          Machine.poke m td (tx_bufs + i);
          Machine.poke m (td + 1) 1
        done;
        (cells, rx_ring, tx_ring, rx_bufs, tx_bufs))
  in
  (* dispatch table (filled once the pumps exist) and per-slot
     position cells *)
  let tbl_words = cfg.cfg_slots * ops_per_slot in
  let tbl = Kalloc.alloc_zeroed alloc tbl_words in
  let pos_base = Kalloc.alloc_zeroed alloc cfg.cfg_slots in
  (* segments: everything a pump touches *)
  let segments =
    [
      (stop_cell, 1);
      (tbl, tbl_words);
      (pos_base, cfg.cfg_slots);
    ]
    @ (if locks = 0 then [] else [ (locks, cfg.cfg_files) ])
    @ List.concat_map
        (fun (cells, rx_ring, tx_ring, rx_bufs, tx_bufs) ->
          [
            (cells, pump_cells);
            (rx_ring, ring_words);
            (tx_ring, ring_words);
            (rx_bufs, ring_len);
            (tx_bufs, ring_len);
          ])
        (Array.to_list queue_mem)
    @ (Array.to_list files
      |> List.concat_map (fun f ->
             [ (f.Fs.f_buf, f.Fs.f_cap); (f.Fs.f_size_cell, 1) ]))
  in
  let t =
    {
      sv_boot = boot;
      sv_k = k;
      sv_cfg = cfg;
      sv_nic = nic;
      sv_files = files;
      sv_locks = locks;
      sv_tbl = tbl;
      sv_pos_base = pos_base;
      sv_stop_cell = stop_cell;
      sv_pumps =
        Array.mapi
          (fun q (cells, _, _, _, _) ->
            {
              p_queue = q;
              p_cells = cells;
              p_wait = 0;
              p_tick = 0;
              p_entry = 0;
              p_space = 0;
              p_accept = 0;
              p_err = 0;
              p_tte = None;
            })
          queue_mem;
      sv_slots = Array.make cfg.cfg_slots None;
      sv_free =
        Array.init nq (fun q ->
            List.filter (fun s -> s mod nq = q) (List.init cfg.cfg_slots Fun.id));
      sv_retired = Array.init nq (fun _ -> Array.make cfg.cfg_files []);
      sv_warm = Array.make (cfg.cfg_slots * cfg.cfg_files) false;
      sv_conn_of = Hashtbl.create 64;
      sv_spans = Hashtbl.create 64;
      sv_segments = segments;
      sv_accept_hc = 0;
      sv_close_hc = 0;
      sv_alone_hc = 0;
      sv_shedding = false;
      sv_accepts = 0;
      sv_closes = 0;
      sv_refused = 0;
      sv_dup_opens = 0;
      sv_hits = 0;
      sv_misses = 0;
      sv_retunes = 0;
    }
  in
  (* host service routines *)
  t.sv_accept_hc <-
    Machine.register_hcall m (fun m' ->
        Machine.charge m' 40;
        let req_w = Machine.get_reg m' I.r1 in
        let resp = do_accept t ~conn:(msg_id req_w) ~farg:(msg_arg req_w) in
        Machine.set_reg m' I.r1 resp);
  t.sv_close_hc <-
    Machine.register_hcall m (fun m' ->
        Machine.charge m' 20;
        do_close t ~slot:(msg_id (Machine.get_reg m' I.r1)));
  (* r9 := 1 when the calling pump is the only thread ready on its core *)
  t.sv_alone_hc <-
    Machine.register_hcall m (fun m' ->
        Machine.set_reg m' I.r9 (if alone (Kernel.current_exn k) then 1 else 0));
  (* the card, and one pump per queue synthesized from one template; a
     restart respawns the pump threads on the same code, so a rearmed
     run reuses all code and state *)
  Array.iter
    (fun p ->
      let q = p.p_queue in
      let cpu = Devices.Nic.queue_cpu nic q in
      let _, rx_ring, tx_ring, _, _ = queue_mem.(q) in
      Devices.Nic.host_config_rx ~q ~arm:(arm_of p) nic ~ring:rx_ring ~len:ring_len
        ~mail:(rx_mail_of p) ~tail_cell:(rx_tail_of p);
      Devices.Nic.host_config_tx ~q nic ~ring:tx_ring ~len:ring_len ~mail:(tx_mail_of p)
        ~head_cell:(tx_head_of p);
      let timer = Mmio_map.timer_alarm_for cpu in
      let h =
        Ksynth.instantiate ~name:"serve/pump" ~probes:(pump_probes t) k
          ~template:(pump_template t ~ring_len ~pump:p ~rx_ring ~tx_ring ~cpu)
      in
      p.p_entry <- Ksynth.entry h;
      p.p_wait <- Ksynth.sym h "wait";
      p.p_tick <- Ksynth.sym h "tick";
      p.p_space <- Ksynth.sym h "space";
      p.p_accept <- Ksynth.sym h "accept";
      p.p_err <- Ksynth.sym h "err";
      let quantum =
        Cost.cycles_of_us (Machine.cost_model m) (float_of_int cfg.cfg_worker_quantum_max_us)
      in
      (* the tick stub's timer store re-arms the longest quantum, and
         the straight line after it, up to the Rte, runs before the
         pump's next instruction: a quantum no longer than that line is
         due again by the Rte, so the pump never runs (a livelock) *)
      let rec after_store a =
        match Machine.read_code m a with
        | I.Move (_, I.Abs c) when c = timer -> a + 1
        | _ -> after_store (a + 1)
      in
      if quantum <= Monitor.static_cycles m ~from:(after_store p.p_tick) then
        invalid_arg "Kserve: worker_quantum_max_us is due again before the tick stub returns")
    t.sv_pumps;
  (* a slot's open entry is its pump's accept for good; the rest answer
     op_err until an accept points read, write and close at a routine *)
  for s = 0 to cfg.cfg_slots - 1 do
    let p = pump_of t s in
    for op = 0 to ops_per_slot - 1 do
      Machine.poke m (tbl + (s * ops_per_slot) + op)
        (if op = op_open then p.p_accept else p.p_err)
    done
  done;
  Devices.Nic.host_set_coalesce nic coalesce;
  Devices.Nic.host_enable nic true;
  install_controller t;
  Array.iter (spawn_pump t) t.sv_pumps;
  t

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

(* Raise the stop flag, then post a wake to every pump's core: a pump
   asleep in its wait handler re-reads the flag and exits. *)
let shutdown t =
  let m = t.sv_k.Kernel.machine in
  Machine.poke m t.sv_stop_cell 1;
  Array.iter
    (fun p ->
      Machine.post_interrupt ~source:"serve" m
        ~cpu:(Devices.Nic.queue_cpu t.sv_nic p.p_queue)
        ~level:Mmio_map.nic_level ~vector:Mmio_map.nic_vector)
    t.sv_pumps

let drained t =
  let m = t.sv_k.Kernel.machine in
  Array.for_all (fun p -> Machine.peek m (done_of p) <> 0) t.sv_pumps

(* Rearm after a drained run: clear the flags and respawn the pump
   threads on their entry points.  Rings, dispatch table, and the
   synthesis cache all carry over — a warm restart's
   accepts are cache hits and the code footprint stays flat. *)
let restart t =
  let m = t.sv_k.Kernel.machine in
  Machine.poke m t.sv_stop_cell 0;
  Array.iter
    (fun p ->
      Machine.poke m (done_of p) 0;
      spawn_pump t p)
    t.sv_pumps

let stats t =
  let ns = Devices.Nic.stats t.sv_nic in
  {
    n_accepts = t.sv_accepts;
    n_closes = t.sv_closes;
    n_refused = t.sv_refused;
    n_dup_opens = t.sv_dup_opens;
    n_hits = t.sv_hits;
    n_misses = t.sv_misses;
    n_retunes = t.sv_retunes;
    n_responses = responses t;
    n_shed = ns.Devices.Nic.s_rx_shed;
  }

let nic t = t.sv_nic
let kernel t = t.sv_k
let config t = t.sv_cfg
let file t i = t.sv_files.(i)

let open_slots t =
  let unused l = List.length l in
  Array.length t.sv_slots
  - Array.fold_left (fun a l -> a + unused l) 0 t.sv_free
  - Array.fold_left
      (fun a per_file -> Array.fold_left (fun a l -> a + unused l) a per_file)
      0 t.sv_retired
