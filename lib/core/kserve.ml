(* kserve: a synthesized network serving stack.

   The server is one thread running one synthesized serve pump over
   the NIC (the paper's Collapsing Layers): it lifts a request frame
   off the card's rx ring, dispatches it through a per-slot table of
   routines the accept path synthesized with Ksynth at open time (so
   warm accepts are cache hits), and lays the response on the card's
   tx ring before it reads the next frame.  Spans are minted when the
   request word is read and closed when the response is stored, so
   every request's latency lands in the "kspan.serve.total_cycles"
   histogram.

   Overload handling is a scheduling policy (§3): a host-side
   controller samples the rx/tx gauges each epoch, retunes the pump's
   quantum against the rx-ring occupancy, and — past a high watermark
   — arms the NIC's admission limit so excess offered load is shed at
   the rx ring instead of queueing without bound. *)

open Quamachine
module I = Insn
module SG = Stream_graph

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
  cfg_file_words : int;
  cfg_ring_len : int;  (* power of two; NIC rx/tx ring entries *)
  cfg_coalesce : int;  (* NIC completions per interrupt *)
  cfg_poll_us : float;  (* NIC service-tick period *)
  cfg_worker_quantum_us : int;  (* the pump's base; the controller retunes *)
  cfg_worker_quantum_max_us : int;
  cfg_ctl_epoch_us : float;  (* overload-controller sampling period *)
  cfg_admit_hi : int;  (* rx-ring occupancy that arms shedding *)
  cfg_admit_lo : int;  (* rx-ring occupancy that disarms it *)
  cfg_admit_limit : int;  (* rx occupancy admitted while shedding *)
}

let default_config =
  {
    cfg_slots = 64;
    cfg_files = 8;
    cfg_file_words = 64;
    cfg_ring_len = 64;
    cfg_coalesce = 4;
    cfg_poll_us = 2.0;
    cfg_worker_quantum_us = 100;
    cfg_worker_quantum_max_us = 400;
    cfg_ctl_epoch_us = 200.0;
    cfg_admit_hi = 96;
    cfg_admit_lo = 32;
    cfg_admit_limit = 16;
  }

(* ------------------------------------------------------------------ *)
(* The per-connection service template (§2.2)                          *)
(* ------------------------------------------------------------------ *)

(* Synthesized at accept time with the file's buffer base, capacity
   and size cell, the connection's position cell, and the response
   constants folded in.  Called with the request in r1, returns the
   response in r1; r4..r8 are scratch (the pump preserves nothing
   across the call).  Reads are a circular stream over the file body;
   writes append and wrap (a ring file). *)
let service_template =
  Template.make ~name:"serve/conn"
    ~params:
      [
        "respc_read";
        "respc_write";
        "respc_close";
        "respc_err";
        "buf";
        "cap";
        "size_cell";
        "pos_cell";
        "close_hc";
      ]
    (fun p ->
      [
        I.Move (I.Reg I.r1, I.Reg I.r8);
        I.Move (I.Reg I.r1, I.Reg I.r4);
        I.Alu (I.Lsr, I.Imm op_shift, I.r4);
        I.Alu (I.And, I.Imm 7, I.r4);
        I.Cmp (I.Imm op_read, I.Reg I.r4);
        I.B (I.Eq, I.To_label "read");
        I.Cmp (I.Imm op_write, I.Reg I.r4);
        I.B (I.Eq, I.To_label "write");
        I.Cmp (I.Imm op_close, I.Reg I.r4);
        I.B (I.Eq, I.To_label "close");
        I.Move (I.Imm (p "respc_err"), I.Reg I.r1);
        I.Rts;
        (* read: value = body[pos], pos advances and wraps at size *)
        I.Label "read";
        I.Move (I.Abs (p "size_cell"), I.Reg I.r6);
        I.Cmp (I.Imm 0, I.Reg I.r6);
        I.B (I.Eq, I.To_label "rd_empty");
        I.Move (I.Abs (p "pos_cell"), I.Reg I.r5);
        I.Cmp (I.Reg I.r6, I.Reg I.r5);
        I.B (I.Cs, I.To_label "rd_ok"); (* pos < size *)
        I.Move (I.Imm 0, I.Reg I.r5);
        I.Label "rd_ok";
        I.Move (I.Reg I.r5, I.Reg I.r7);
        I.Alu (I.Add, I.Imm (p "buf"), I.r7);
        I.Move (I.Ind I.r7, I.Reg I.r7);
        I.Alu (I.Add, I.Imm 1, I.r5);
        I.Move (I.Reg I.r5, I.Abs (p "pos_cell"));
        I.Alu (I.And, I.Imm arg_mask, I.r7);
        I.Move (I.Imm (p "respc_read"), I.Reg I.r1);
        I.Alu (I.Or, I.Reg I.r7, I.r1);
        I.Rts;
        I.Label "rd_empty";
        I.Move (I.Imm (p "respc_read"), I.Reg I.r1);
        I.Rts;
        (* write: body[size] = arg, size advances and wraps at cap *)
        I.Label "write";
        I.Move (I.Reg I.r8, I.Reg I.r7);
        I.Alu (I.And, I.Imm arg_mask, I.r7);
        I.Move (I.Abs (p "size_cell"), I.Reg I.r5);
        I.Cmp (I.Imm (p "cap"), I.Reg I.r5);
        I.B (I.Cs, I.To_label "wr_ok"); (* size < cap *)
        I.Move (I.Imm 0, I.Reg I.r5);
        I.Label "wr_ok";
        I.Move (I.Reg I.r5, I.Reg I.r6);
        I.Alu (I.Add, I.Imm (p "buf"), I.r6);
        I.Move (I.Reg I.r7, I.Ind I.r6);
        I.Alu (I.Add, I.Imm 1, I.r5);
        I.Move (I.Reg I.r5, I.Abs (p "size_cell"));
        I.Move (I.Imm (p "respc_write"), I.Reg I.r1);
        I.Alu (I.Or, I.Reg I.r7, I.r1);
        I.Rts;
        (* close: tell the host, acknowledge *)
        I.Label "close";
        I.Hcall (p "close_hc");
        I.Move (I.Imm (p "respc_close"), I.Reg I.r1);
        I.Rts;
      ])

(* The shared routine free dispatch slots point at: answer anything
   with op_err, echoing the slot bits. *)
let stub_insns =
  [
    I.Alu (I.And, I.Imm 0xFFFC_0000, I.r1);
    I.Alu (I.Or, I.Imm (op_err lsl op_shift), I.r1);
    I.Rts;
  ]

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
  n_responses : int;  (* responses laid on the tx ring *)
  n_shed : int;  (* frames shed at the rx ring while overloaded *)
}

type t = {
  sv_boot : Boot.t;
  sv_k : Kernel.t;
  sv_cfg : config;
  sv_nic : Devices.Nic.t;
  sv_files : Fs.file array;
  sv_tbl : int;  (* per-slot dispatch table (code addresses in data) *)
  sv_stub : int;
  sv_pos_base : int;  (* per-slot stream position cells *)
  sv_stop_cell : int;
  sv_done_cell : int;
  sv_rx_tail_cell : int;
  sv_rx_gauge : SG.gauge;
  sv_tx_gauge : SG.gauge;
  sv_slots : slot_state option array;
  mutable sv_free : int list;  (* never-used slots *)
  sv_retired : int list array;  (* freed slots, per last-served file *)
  sv_conn_of : (int, int) Hashtbl.t;
  sv_spans : (int, int Queue.t) Hashtbl.t;  (* span ids in flight *)
  sv_segments : (int * int) list;
  mutable sv_pump_entry : int;
  mutable sv_pump : Kernel.tte option;
  mutable sv_accept_hc : int;
  mutable sv_close_hc : int;
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
   cache-hit) the per-connection service routine, wire it into the
   dispatch table, and answer with the assigned slot.  The response's
   arg echoes the connection id so the client can match it. *)
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
    (* slot recycling is file-affine: a slot that last served this
       file yields byte-identical invariants, so the instantiate below
       is a cache hit (the paper's recycled-cells discipline) *)
    let take_slot () =
      match t.sv_retired.(fidx) with
      | slot :: rest ->
        t.sv_retired.(fidx) <- rest;
        Some slot
      | [] -> (
        match t.sv_free with
        | slot :: rest ->
          t.sv_free <- rest;
          Some slot
        | [] ->
          (* steal a retired slot from another file *)
          let stolen = ref None in
          Array.iteri
            (fun f -> function
              | slot :: rest when !stolen = None ->
                t.sv_retired.(f) <- rest;
                stolen := Some slot
              | _ -> ())
            t.sv_retired;
          !stolen)
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
          ~template:service_template
          ~invariants:
            [
              ("respc_read", pack ~id:slot ~op:op_read ~arg:0);
              ("respc_write", pack ~id:slot ~op:op_write ~arg:0);
              ("respc_close", pack ~id:slot ~op:op_close ~arg:0);
              ("respc_err", pack ~id:slot ~op:op_err ~arg:0);
              ("buf", file.Fs.f_buf);
              ("cap", file.Fs.f_cap);
              ("size_cell", file.Fs.f_size_cell);
              ("pos_cell", pos_cell);
              ("close_hc", t.sv_close_hc);
            ]
      in
      if (Ksynth.stats k).Ksynth.st_hits > before then
        t.sv_hits <- t.sv_hits + 1
      else t.sv_misses <- t.sv_misses + 1;
      let m = k.Kernel.machine in
      Machine.poke m pos_cell 0;
      Machine.poke m (t.sv_tbl + slot) (Ksynth.entry h);
      t.sv_slots.(slot) <- Some { sl_conn = conn; sl_file = fidx; sl_handle = h };
      Hashtbl.replace t.sv_conn_of conn slot;
      t.sv_accepts <- t.sv_accepts + 1;
      span_rekey t ~conn ~slot;
      pack ~id:slot ~op:op_open ~arg:echo)

(* Close: release the handle (the page stays warm in the cache for
   the next accept), repoint the dispatch slot at the stub, recycle
   the slot. *)
let do_close t ~slot =
  if slot >= 0 && slot < Array.length t.sv_slots then
    match t.sv_slots.(slot) with
    | None -> ()
    | Some s ->
      Hashtbl.remove t.sv_conn_of s.sl_conn;
      Ksynth.release t.sv_k s.sl_handle;
      Machine.poke t.sv_k.Kernel.machine (t.sv_tbl + slot) t.sv_stub;
      t.sv_slots.(slot) <- None;
      t.sv_retired.(s.sl_file) <- slot :: t.sv_retired.(s.sl_file);
      t.sv_closes <- t.sv_closes + 1

let host_accept t ~conn ~file = do_accept t ~conn ~farg:file
let host_close t ~slot = do_close t ~slot

(* ------------------------------------------------------------------ *)
(* The serve pump                                                      *)
(* ------------------------------------------------------------------ *)

(* One loop from wire to wire (user mode — the NIC's mailbox cells
   stand in for the supervisor-only MMIO window).  Poll the
   head-writeback cell against our tail cell; take the request word,
   retire the descriptor and publish the new tail; dispatch — opens go
   to the accept hcall, everything else jumps through the dispatch
   table entry the accept path synthesized for that slot; wait for
   tx-ring space against the card's tail-writeback cell, store the
   response and ring the doorbell cell.  A close's ack is on the tx
   ring before the next frame is read, so a recycled slot's open
   response can never overtake it.  While the tx ring is full the pump
   yields without reading more, so the rx ring fills and the card
   sheds — backpressure reaches the wire.  On stop it raises the done
   flag and exits.

   Span probes: "open" mints a request's span with the request word at
   r11 (an open is keyed by conn until accept gives it a slot);
   "close" closes it with the response word in r1. *)
let pump_program t ~rx_ring ~tx_ring ~ring_len ~rx_mail ~tx_mail ~tx_head_cell =
  let nslots = Array.length t.sv_slots in
  [
    I.Label "loop";
    I.Move (I.Abs t.sv_stop_cell, I.Reg I.r8);
    I.Tst (I.Reg I.r8);
    I.B (I.Ne, I.To_label "stop");
    I.Move (I.Abs rx_mail, I.Reg I.r8);
    I.Move (I.Abs t.sv_rx_tail_cell, I.Reg I.r9);
    I.Cmp (I.Reg I.r8, I.Reg I.r9);
    I.B (I.Ne, I.To_label "have");
    I.Trap 5; (* ring empty: yield *)
    I.B (I.Always, I.To_label "loop");
    I.Label "have";
    I.Move (I.Reg I.r9, I.Reg I.r10);
    I.Alu (I.And, I.Imm (ring_len - 1), I.r10);
    I.Alu (I.Lsl, I.Imm 2, I.r10); (* * desc_words *)
    I.Alu (I.Add, I.Imm rx_ring, I.r10);
    I.Move (I.Ind I.r10, I.Reg I.r11); (* descriptor buffer *)
    I.Probe "open";
    I.Move (I.Ind I.r11, I.Reg I.r1); (* the request word *)
    I.Move (I.Imm 0, I.Idx (I.r10, 2)); (* descriptor consumed *)
    I.Alu (I.Add, I.Imm 1, I.r9);
    I.Move (I.Reg I.r9, I.Abs t.sv_rx_tail_cell);
    I.Move (I.Reg I.r1, I.Reg I.r8);
    I.Alu (I.Lsr, I.Imm op_shift, I.r8);
    I.Alu (I.And, I.Imm 7, I.r8);
    I.Cmp (I.Imm op_open, I.Reg I.r8);
    I.B (I.Eq, I.To_label "accept");
    I.Move (I.Reg I.r1, I.Reg I.r8);
    I.Alu (I.Lsr, I.Imm id_shift, I.r8);
    I.Cmp (I.Imm nslots, I.Reg I.r8);
    I.B (I.Cc, I.To_label "badslot"); (* slot >= nslots *)
    I.Alu (I.Add, I.Imm t.sv_tbl, I.r8);
    I.Jsr (I.To_mem (I.Ind I.r8)); (* the synthesized service *)
    I.Label "space";
    I.Move (I.Abs tx_head_cell, I.Reg I.r8);
    I.Move (I.Abs tx_mail, I.Reg I.r9);
    I.Move (I.Reg I.r8, I.Reg I.r10);
    I.Alu (I.Sub, I.Reg I.r9, I.r10); (* occupancy *)
    I.Cmp (I.Imm ring_len, I.Reg I.r10);
    I.B (I.Cs, I.To_label "ok"); (* occupancy < ring_len *)
    I.Trap 5; (* ring full: yield until the card drains *)
    I.B (I.Always, I.To_label "space");
    I.Label "ok";
    I.Move (I.Reg I.r8, I.Reg I.r10);
    I.Alu (I.And, I.Imm (ring_len - 1), I.r10);
    I.Alu (I.Lsl, I.Imm 2, I.r10);
    I.Alu (I.Add, I.Imm tx_ring, I.r10);
    I.Move (I.Ind I.r10, I.Reg I.r11);
    I.Move (I.Reg I.r1, I.Ind I.r11); (* the response word *)
    I.Probe "close";
    I.Alu (I.Add, I.Imm 1, I.r8);
    I.Move (I.Reg I.r8, I.Abs tx_head_cell); (* doorbell *)
  ]
  @ SG.gauge_tick t.sv_rx_gauge
  @ SG.gauge_tick t.sv_tx_gauge
  @ [
      I.B (I.Always, I.To_label "loop");
      I.Label "accept";
      I.Hcall t.sv_accept_hc;
      I.B (I.Always, I.To_label "space");
      I.Label "badslot";
      I.Jsr (I.To_addr t.sv_stub);
      I.B (I.Always, I.To_label "space");
      I.Label "stop";
      I.Move (I.Imm 1, I.Abs t.sv_done_cell);
      I.Trap 0;
    ]

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

let rx_ring_occupancy t =
  let head = Devices.Nic.rx_head t.sv_nic in
  let tail = Machine.peek t.sv_k.Kernel.machine t.sv_rx_tail_cell in
  (head - tail) land Word.mask

let shedding t = t.sv_shedding

let install_controller t =
  let k = t.sv_k in
  let m = k.Kernel.machine in
  let cfg = t.sv_cfg in
  let epoch = Cost.cycles_of_us (Machine.cost_model m) cfg.cfg_ctl_epoch_us in
  let arrival_g = Metrics.gauge k.Kernel.metrics "serve.arrival_rate" in
  let service_g = Metrics.gauge k.Kernel.metrics "serve.service_rate" in
  let backlog_g = Metrics.gauge k.Kernel.metrics "serve.backlog" in
  let dev = ref None in
  let tick m' =
    let arrival = SG.gauge_sample k t.sv_rx_gauge in
    let service = SG.gauge_sample k t.sv_tx_gauge in
    let pressure = rx_ring_occupancy t in
    Metrics.set_gauge arrival_g arrival;
    Metrics.set_gauge service_g service;
    Metrics.set_gauge backlog_g (float_of_int pressure);
    (* admission control: shed at the NIC ring past the high
       watermark, readmit below the low one *)
    if (not t.sv_shedding) && pressure >= cfg.cfg_admit_hi then begin
      Devices.Nic.host_set_admit t.sv_nic cfg.cfg_admit_limit;
      t.sv_shedding <- true;
      Metrics.bump k.Kernel.metrics "serve.shed_on"
    end
    else if t.sv_shedding && pressure <= cfg.cfg_admit_lo then begin
      Devices.Nic.host_set_admit t.sv_nic 0;
      t.sv_shedding <- false
    end;
    (* quantum retune: a longer pump quantum as the rx ring fills
       (fewer context switches, more service throughput) *)
    let span = cfg.cfg_worker_quantum_max_us - cfg.cfg_worker_quantum_us in
    let frac =
      min 1.0 (float_of_int pressure /. float_of_int cfg.cfg_admit_hi)
    in
    let q = cfg.cfg_worker_quantum_us + int_of_float (frac *. float_of_int span) in
    (match t.sv_pump with
    | Some tte when tte.Kernel.state <> Kernel.Zombie && tte.Kernel.quantum_us <> q ->
      Ctx.set_quantum k tte q;
      Kernel.trace k (Ktrace.Retune (tte.Kernel.tid, q));
      t.sv_retunes <- t.sv_retunes + 1
    | _ -> ());
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

let spawn_pump t =
  let k = t.sv_k in
  let cpu = if Machine.num_cores k.Kernel.machine = 1 then None else Some 0 in
  let tte =
    Thread.create k ?cpu ~quantum_us:t.sv_cfg.cfg_worker_quantum_us
      ~segments:t.sv_segments ~entry:t.sv_pump_entry ()
  in
  Thread.start k tte;
  t.sv_pump <- Some tte

let create ?(config = default_config) boot =
  let cfg = config in
  if not (pow2 cfg.cfg_slots && cfg.cfg_slots <= 4096) then
    invalid_arg "Kserve: slots must be 2^k <= 4096";
  if not (pow2 cfg.cfg_files) then invalid_arg "Kserve: files must be 2^k";
  if not (pow2 cfg.cfg_ring_len) then invalid_arg "Kserve: ring_len must be 2^k";
  let k = boot.Boot.kernel in
  let m = k.Kernel.machine in
  let alloc = k.Kernel.alloc in
  let nic = Devices.Nic.install ~poll_us:cfg.cfg_poll_us m in
  (* the served files, registered in the vfs name space *)
  let files =
    Array.init cfg.cfg_files (fun i ->
        let content =
          Array.init cfg.cfg_file_words (fun j ->
              ((i * 31) + (j * 7) + 1) land arg_mask)
        in
        Fs.create_file boot.Boot.vfs
          ~name:(Printf.sprintf "/srv/%d" i)
          ~capacity:cfg.cfg_file_words ~content ())
  in
  (* control cells: stop, done, rx mail, rx tail, tx mail, tx head *)
  let cells = Kalloc.alloc_zeroed alloc 6 in
  let stop_cell = cells and done_cell = cells + 1 in
  let rx_mail = cells + 2 and rx_tail_cell = cells + 3 in
  let tx_mail = cells + 4 and tx_head_cell = cells + 5 in
  (* descriptor rings and single-word frame buffers *)
  let ring_len = cfg.cfg_ring_len in
  let rx_ring = Kalloc.alloc_zeroed alloc (Devices.Nic.desc_words * ring_len) in
  let tx_ring = Kalloc.alloc_zeroed alloc (Devices.Nic.desc_words * ring_len) in
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
  (* dispatch table and per-slot position cells *)
  let tbl = Kalloc.alloc_zeroed alloc cfg.cfg_slots in
  let pos_base = Kalloc.alloc_zeroed alloc cfg.cfg_slots in
  let stub, _ = Ksynth.install k ~name:"serve/badslot" stub_insns in
  for s = 0 to cfg.cfg_slots - 1 do
    Machine.poke m (tbl + s) stub
  done;
  let rx_gauge = SG.gauge k ~name:"serve.rx" in
  let tx_gauge = SG.gauge k ~name:"serve.tx" in
  (* segments: everything the pump touches *)
  let segments =
    [
        (cells, 6);
        (rx_ring, Devices.Nic.desc_words * ring_len);
        (tx_ring, Devices.Nic.desc_words * ring_len);
        (rx_bufs, ring_len);
        (tx_bufs, ring_len);
        (tbl, cfg.cfg_slots);
        (pos_base, cfg.cfg_slots);
        (rx_gauge.SG.g_cell, 1);
        (tx_gauge.SG.g_cell, 1);
      ]
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
      sv_tbl = tbl;
      sv_stub = stub;
      sv_pos_base = pos_base;
      sv_stop_cell = stop_cell;
      sv_done_cell = done_cell;
      sv_rx_tail_cell = rx_tail_cell;
      sv_rx_gauge = rx_gauge;
      sv_tx_gauge = tx_gauge;
      sv_slots = Array.make cfg.cfg_slots None;
      sv_free = List.init cfg.cfg_slots (fun s -> s);
      sv_retired = Array.make cfg.cfg_files [];
      sv_conn_of = Hashtbl.create 64;
      sv_spans = Hashtbl.create 64;
      sv_segments = segments;
      sv_pump_entry = 0;
      sv_pump = None;
      sv_accept_hc = 0;
      sv_close_hc = 0;
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
  (* the card *)
  Devices.Nic.host_config_rx nic ~ring:rx_ring ~len:ring_len ~mail:rx_mail
    ~tail_cell:rx_tail_cell;
  Devices.Nic.host_config_tx nic ~ring:tx_ring ~len:ring_len ~mail:tx_mail
    ~head_cell:tx_head_cell;
  Devices.Nic.host_set_coalesce nic cfg.cfg_coalesce;
  Devices.Nic.host_enable nic true;
  (* the pump, synthesized once; a restart respawns its thread on the
     same entry, so a rearmed run reuses all code and state *)
  t.sv_pump_entry <-
    fst
      (Ksynth.install ~probes:(pump_probes t) k ~name:"serve/pump"
         (pump_program t ~rx_ring ~tx_ring ~ring_len ~rx_mail ~tx_mail ~tx_head_cell));
  install_controller t;
  spawn_pump t;
  t

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let shutdown t = Machine.poke t.sv_k.Kernel.machine t.sv_stop_cell 1
let drained t = Machine.peek t.sv_k.Kernel.machine t.sv_done_cell <> 0

(* Rearm after a drained run: clear the flags and respawn the pump
   thread on its entry point.  Rings, dispatch table, and the
   synthesis cache all carry over — a warm restart's
   accepts are cache hits and the code footprint stays flat. *)
let restart t =
  let m = t.sv_k.Kernel.machine in
  Machine.poke m t.sv_stop_cell 0;
  Machine.poke m t.sv_done_cell 0;
  spawn_pump t

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
    n_responses = SG.gauge_count t.sv_k t.sv_tx_gauge;
    n_shed = ns.Devices.Nic.s_rx_shed;
  }

let nic t = t.sv_nic
let kernel t = t.sv_k
let config t = t.sv_cfg
let open_slots t =
  Array.length t.sv_slots - List.length t.sv_free
  - Array.fold_left (fun acc l -> acc + List.length l) 0 t.sv_retired
