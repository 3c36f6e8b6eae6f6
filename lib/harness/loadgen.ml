(* The kserve load generator: tens of thousands of simulated clients
   replaying open/read/write/close request streams against the NIC.

   Session starts are open-loop — exponential inter-arrival times
   (Poisson) with bursts — while each session is closed-loop:
   one request in flight, the next sent a think time after the
   previous response.  All randomness comes from a private seeded
   xorshift*, so a (seed, config) pair names one exact offered load.

   The generator is a machine device scheduled at the next event's
   cycle deadline; responses arrive through the NIC's tx sink.  Every
   send/receive is double-entry bookkeeping: a response that matches
   no in-flight request counts as a duplicate, a session that ends
   with a request outstanding counts as lost — the exactly-once
   ledger the fault-injection subject asserts over. *)

open Quamachine
open Synthesis

(* ------------------------------------------------------------------ *)
(* Deterministic randomness                                            *)
(* ------------------------------------------------------------------ *)

type rng = { mutable s : int }

let rng_make seed = { s = (if seed = 0 then 0x9E3779B1 else seed) }

let rng_next r =
  let x = r.s in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  let x = x land max_int in
  r.s <- (if x = 0 then 0x9E3779B1 else x);
  x

let rng_int r n = if n <= 1 then 0 else rng_next r mod n

(* uniform in (0, 1] — never 0, so log is safe *)
let rng_unit r = float_of_int (1 + rng_int r 0x3FFF_FFFF) /. float_of_int 0x4000_0000

let rng_exp r ~mean = -.mean *. log (rng_unit r)

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  lg_clients : int;  (* sessions to run *)
  lg_reqs_per_session : int;  (* data requests between open and close *)
  lg_rate_per_ms : float;  (* mean session arrivals per simulated ms *)
  lg_think_us : float;  (* mean gap between response and next request *)
  lg_write_1_in : int;  (* writes are 1-in-n of data requests; 0 = off *)
  lg_conn_ids : int;  (* connection-id pool (concurrency ceiling) *)
  lg_timeout_us : float;  (* resend after this long in flight; 0 = off *)
  lg_retries : int;  (* resends before the session is abandoned *)
  lg_seed : int;
}

let default_config =
  {
    lg_clients = 200;
    lg_reqs_per_session = 4;
    lg_rate_per_ms = 40.0;
    lg_think_us = 30.0;
    lg_write_1_in = 4;
    lg_conn_ids = 16000;
    lg_timeout_us = 0.0;
    lg_retries = 3;
    lg_seed = 0x10ad;
  }

(* Every [burst_every]th arrival instant starts [burst_size] sessions
   more than the others' one. *)
let burst_every = 8
let burst_size = 4

(* ------------------------------------------------------------------ *)
(* Sessions and the event heap                                         *)
(* ------------------------------------------------------------------ *)

type phase = Opening | Running | Closing | Finished | Refused | Abandoned

type session = {
  ss_conn : int;
  ss_file : int;
  mutable ss_slot : int;  (* -1 until the open response lands *)
  mutable ss_phase : phase;
  mutable ss_remaining : int;  (* data requests still to send *)
  mutable ss_pending : bool;  (* a request is in flight *)
  mutable ss_sent_cycle : int;
  mutable ss_seq : int;  (* send/receive serial, invalidates timeouts *)
  mutable ss_last : int;  (* last request word, for resends *)
  mutable ss_tries : int;
}

type ev = Arrive | Next of session | Timeout of session * int

(* binary min-heap on (due-cycle, event) *)
type heap = { mutable h : (int * ev) array; mutable n : int }

let heap_make () = { h = Array.make 64 (0, Arrive); n = 0 }

let heap_push hp due ev =
  if hp.n = Array.length hp.h then begin
    let bigger = Array.make (2 * hp.n) (0, Arrive) in
    Array.blit hp.h 0 bigger 0 hp.n;
    hp.h <- bigger
  end;
  let i = ref hp.n in
  hp.n <- hp.n + 1;
  hp.h.(!i) <- (due, ev);
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if fst hp.h.(p) > fst hp.h.(!i) then begin
      let tmp = hp.h.(p) in
      hp.h.(p) <- hp.h.(!i);
      hp.h.(!i) <- tmp;
      i := p
    end
    else continue := false
  done

let heap_peek hp = if hp.n = 0 then None else Some (fst hp.h.(0))

let heap_pop_due hp ~now =
  if hp.n = 0 || fst hp.h.(0) > now then None
  else begin
    let top = hp.h.(0) in
    hp.n <- hp.n - 1;
    hp.h.(0) <- hp.h.(hp.n);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < hp.n && fst hp.h.(l) < fst hp.h.(!smallest) then smallest := l;
      if r < hp.n && fst hp.h.(r) < fst hp.h.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = hp.h.(!smallest) in
        hp.h.(!smallest) <- hp.h.(!i);
        hp.h.(!i) <- tmp;
        i := !smallest
      end
      else continue := false
    done;
    Some (snd top)
  end

(* ------------------------------------------------------------------ *)
(* The generator                                                       *)
(* ------------------------------------------------------------------ *)

type t = {
  lg_cfg : config;
  lg_srv : Kserve.t;
  lg_m : Machine.t;
  lg_rng : rng;
  lg_heap : heap;
  lg_by_conn : (int, session) Hashtbl.t;  (* awaiting the open response *)
  lg_by_slot : (int, session) Hashtbl.t;
  lg_files : int Queue.t;  (* each planned session's file, arrival order *)
  mutable lg_free_conns : int list;
  lg_latency : Histogram.t;  (* request round trips, cycles *)
  mutable lg_dev : Machine.device option;
  mutable lg_arrivals_left : int;
  mutable lg_sent : int;
  mutable lg_received : int;
  mutable lg_completed : int;
  mutable lg_refused : int;
  mutable lg_duplicates : int;  (* responses matching nothing in flight *)
  mutable lg_errors : int;  (* op_err responses to in-flight requests *)
  mutable lg_resent : int;  (* requests resent after a timeout *)
  mutable lg_abandoned : int;  (* sessions given up after max retries *)
  lg_started_cycle : int;
  mutable lg_on_complete : (unit -> unit) option;
}

let us_cycles t us =
  max 1 (Cost.cycles_of_us (Machine.cost_model t.lg_m) (max 0.0 us))

let now t = Machine.cycles t.lg_m

(* Arm the device for the earliest pending event.  Device deadlines
   are one-shot (the machine idles the device before [tick] runs), so
   between ticks [next_due] is the earliest event armed so far and a
   new event can only pull it in; with no events left it stays idle. *)
let reschedule t =
  match (t.lg_dev, heap_peek t.lg_heap) with
  | Some d, Some due ->
    let due = max due (now t + 1) in
    if d.Machine.next_due > due then Machine.device_schedule t.lg_m d due
  | _ -> ()

let inject t w =
  t.lg_sent <- t.lg_sent + 1;
  Devices.Nic.inject (Kserve.nic t.lg_srv) [| w |]

let think_gap t =
  us_cycles t (rng_exp t.lg_rng ~mean:t.lg_cfg.lg_think_us)

(* a session finished (or was refused): recycle its conn id and fire
   the completion callback after the last one *)
let finish t ss phase =
  ss.ss_phase <- phase;
  if ss.ss_slot >= 0 then Hashtbl.remove t.lg_by_slot ss.ss_slot;
  Hashtbl.remove t.lg_by_conn ss.ss_conn;
  t.lg_free_conns <- ss.ss_conn :: t.lg_free_conns;
  (match phase with
  | Refused -> t.lg_refused <- t.lg_refused + 1
  | Abandoned -> t.lg_abandoned <- t.lg_abandoned + 1
  | _ -> t.lg_completed <- t.lg_completed + 1);
  if
    t.lg_arrivals_left = 0
    && Hashtbl.length t.lg_by_conn = 0
    && Hashtbl.length t.lg_by_slot = 0
  then begin
    match t.lg_on_complete with
    | Some f ->
      t.lg_on_complete <- None;
      f ()
    | None -> ()
  end

let ss_seq_of ss = ss.ss_seq

(* put the in-flight request on the wire and arm its timeout *)
let transmit t ss w =
  ss.ss_pending <- true;
  ss.ss_last <- w;
  if t.lg_cfg.lg_timeout_us > 0.0 then
    heap_push t.lg_heap
      (now t + us_cycles t t.lg_cfg.lg_timeout_us)
      (Timeout (ss, ss_seq_of ss));
  inject t w

(* a new request: its round trip is timed from this first send *)
let send_req t ss w =
  ss.ss_sent_cycle <- now t;
  transmit t ss w

let send_next t ss =
  let cfg = t.lg_cfg in
  if ss.ss_remaining > 0 then begin
    ss.ss_remaining <- ss.ss_remaining - 1;
    let write =
      cfg.lg_write_1_in > 0 && rng_int t.lg_rng cfg.lg_write_1_in = 0
    in
    let w =
      if write then
        Kserve.pack ~id:ss.ss_slot ~op:Kserve.op_write
          ~arg:(rng_int t.lg_rng 0x8000)
      else Kserve.pack ~id:ss.ss_slot ~op:Kserve.op_read ~arg:0
    in
    ss.ss_seq <- ss.ss_seq + 1;
    ss.ss_tries <- 0;
    send_req t ss w
  end
  else begin
    ss.ss_phase <- Closing;
    ss.ss_seq <- ss.ss_seq + 1;
    ss.ss_tries <- 0;
    send_req t ss (Kserve.pack ~id:ss.ss_slot ~op:Kserve.op_close ~arg:0)
  end

let start_session t =
  match t.lg_free_conns with
  | [] ->
    (* conn-id pool exhausted: back off and retry *)
    heap_push t.lg_heap (now t + us_cycles t t.lg_cfg.lg_think_us) Arrive
  | conn :: rest ->
    t.lg_free_conns <- rest;
    t.lg_arrivals_left <- t.lg_arrivals_left - 1;
    let ss =
      {
        ss_conn = conn;
        ss_file = Queue.pop t.lg_files;
        ss_slot = -1;
        ss_phase = Opening;
        ss_remaining = t.lg_cfg.lg_reqs_per_session;
        ss_pending = false;
        ss_sent_cycle = now t;
        ss_seq = 0;
        ss_last = 0;
        ss_tries = 0;
      }
    in
    Hashtbl.replace t.lg_by_conn conn ss;
    send_req t ss (Kserve.pack ~id:conn ~op:Kserve.op_open ~arg:ss.ss_file)

(* A request outlived its timeout: the usual cause is an admission
   shed (the server never saw it), so resend; after lg_retries the
   session is abandoned.  A resend keeps the first send's cycle, so a
   straggler's latency counts every timeout it waited out (no
   coordinated omission). *)
let handle_timeout t ss seq =
  if ss.ss_pending && ss.ss_seq = seq then begin
    if ss.ss_tries < t.lg_cfg.lg_retries then begin
      ss.ss_tries <- ss.ss_tries + 1;
      t.lg_resent <- t.lg_resent + 1;
      transmit t ss ss.ss_last
    end
    else begin
      ss.ss_pending <- false;
      finish t ss Abandoned
    end
  end

let handle_event t = function
  | Arrive -> start_session t
  | Next ss -> if ss.ss_phase = Running then send_next t ss
  | Timeout (ss, seq) -> handle_timeout t ss seq

let tick t =
  let rec drain () =
    match heap_pop_due t.lg_heap ~now:(now t) with
    | Some ev ->
      handle_event t ev;
      drain ()
    | None -> ()
  in
  drain ();
  reschedule t

(* a response landed on the wire (NIC tx sink) *)
let on_frame t frame =
  if Array.length frame > 0 then begin
    let w = frame.(0) in
    let op = Kserve.msg_op w in
    let id = Kserve.msg_id w in
    let data_resp ss =
      if not ss.ss_pending then t.lg_duplicates <- t.lg_duplicates + 1
      else begin
        ss.ss_pending <- false;
        ss.ss_seq <- ss.ss_seq + 1;
        t.lg_received <- t.lg_received + 1;
        Histogram.record t.lg_latency (now t - ss.ss_sent_cycle);
        if op = Kserve.op_err then t.lg_errors <- t.lg_errors + 1;
        if op = Kserve.op_close && ss.ss_phase = Closing then finish t ss Finished
        else begin
          ss.ss_phase <- Running;
          heap_push t.lg_heap (now t + think_gap t) (Next ss);
          reschedule t
        end
      end
    in
    if op = Kserve.op_open then begin
      (* matched by the echoed connection id *)
      match Hashtbl.find_opt t.lg_by_conn (Kserve.msg_arg w) with
      | Some ss when ss.ss_phase = Opening && ss.ss_pending ->
        ss.ss_pending <- false;
        ss.ss_seq <- ss.ss_seq + 1;
        ss.ss_slot <- id;
        ss.ss_phase <- Running;
        Hashtbl.replace t.lg_by_slot id ss;
        t.lg_received <- t.lg_received + 1;
        Histogram.record t.lg_latency (now t - ss.ss_sent_cycle);
        heap_push t.lg_heap (now t + think_gap t) (Next ss);
        reschedule t
      | _ -> t.lg_duplicates <- t.lg_duplicates + 1
    end
    else if op = Kserve.op_err && id = 0 then begin
      (* an open refused by admission/slot exhaustion *)
      match Hashtbl.find_opt t.lg_by_conn (Kserve.msg_arg w) with
      | Some ss when ss.ss_phase = Opening && ss.ss_pending ->
        ss.ss_pending <- false;
        ss.ss_seq <- ss.ss_seq + 1;
        t.lg_received <- t.lg_received + 1;
        finish t ss Refused
      | _ -> t.lg_duplicates <- t.lg_duplicates + 1
    end
    else begin
      match Hashtbl.find_opt t.lg_by_slot id with
      | Some ss -> data_resp ss
      | None -> t.lg_duplicates <- t.lg_duplicates + 1
    end
  end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ?(config = default_config) ?on_complete srv =
  let k = Kserve.kernel srv in
  let m = k.Kernel.machine in
  let t =
    {
      lg_cfg = config;
      lg_srv = srv;
      lg_m = m;
      lg_rng = rng_make config.lg_seed;
      lg_heap = heap_make ();
      lg_by_conn = Hashtbl.create 256;
      lg_by_slot = Hashtbl.create 256;
      lg_files = Queue.create ();
      lg_free_conns =
        List.init (min config.lg_conn_ids Kserve.max_conn_id) (fun i -> i + 1);
      lg_latency = Histogram.create ();
      lg_dev = None;
      lg_arrivals_left = config.lg_clients;
      lg_sent = 0;
      lg_received = 0;
      lg_completed = 0;
      lg_refused = 0;
      lg_duplicates = 0;
      lg_errors = 0;
      lg_resent = 0;
      lg_abandoned = 0;
      lg_started_cycle = Machine.cycles m;
      lg_on_complete = on_complete;
    }
  in
  (* lay out the arrival process up front: exponential gaps, with a
     burst of simultaneous arrivals every burst_every-th one.  Each
     session's file is planned here too, so the files a run offers do
     not shift with response timing (a restart offers the same ones). *)
  let nfiles = (Kserve.config srv).Kserve.cfg_files in
  let gap_us = 1000.0 /. (max 0.001 config.lg_rate_per_ms) in
  let at = ref (Machine.cycles m + 1) in
  let planned = ref 0 in
  let arrival = ref 0 in
  while !planned < config.lg_clients do
    arrival := !arrival + 1;
    let burst = if !arrival mod burst_every = 0 then 1 + burst_size else 1 in
    let n = min burst (config.lg_clients - !planned) in
    for _ = 1 to n do
      heap_push t.lg_heap !at Arrive;
      Queue.push (rng_int t.lg_rng nfiles) t.lg_files
    done;
    planned := !planned + n;
    at := !at + us_cycles t (rng_exp t.lg_rng ~mean:gap_us)
  done;
  Devices.Nic.set_tx_sink (Kserve.nic srv) (Some (fun f -> on_frame t f));
  let d =
    Machine.add_device m ~name:"loadgen"
      ~due:(Machine.cycles m + 1)
      ~tick:(fun _ -> tick t)
  in
  t.lg_dev <- Some d;
  t

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let finished t =
  t.lg_arrivals_left = 0
  && Hashtbl.length t.lg_by_conn = 0
  && Hashtbl.length t.lg_by_slot = 0

let latency t = t.lg_latency
let sent t = t.lg_sent
let received t = t.lg_received
let completed t = t.lg_completed
let refused t = t.lg_refused
let duplicates t = t.lg_duplicates
let errors t = t.lg_errors
let resent t = t.lg_resent
let abandoned t = t.lg_abandoned

(* requests sent whose responses have not arrived *)
let in_flight t =
  Hashtbl.fold (fun _ ss acc -> if ss.ss_pending then acc + 1 else acc)
    t.lg_by_conn 0
  + Hashtbl.fold (fun _ ss acc -> if ss.ss_pending then acc + 1 else acc)
      t.lg_by_slot 0

let elapsed_cycles t = now t - t.lg_started_cycle
