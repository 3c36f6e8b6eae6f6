(* Cycle-attributed kernel tracing (§6.1's measurement facility grown
   into a first-class subsystem).

   Three cooperating pieces:

   - a bounded ring buffer of typed events, each stamped with the
     machine cycle counter at emission;
   - host-side machine hooks (interrupt post/accept, device ticks,
     faults) that cost no simulated cycles at all;
   - probes on synthesized code (context switches, queue put/get):
     host closures the machine runs just before a probed instruction
     executes ([Kernel.probe_action]'s [Trace]).  They execute nothing
     in the simulated machine either, so traced and untraced kernels
     run identical code in identical cycles, collecting or not.

   Cycle attribution rides on the machine's pc→owner map: every
   registered routine becomes an owner, every elapsed cycle lands on
   exactly one owner, and the per-owner totals sum to the machine
   total over the traced window. *)

open Quamachine

type kind =
  | Switch_out of int (* tid leaving the CPU *)
  | Switch_in of int (* tid entering the CPU *)
  | Queue_put of string * bool (* queue name, success (false = full) *)
  | Queue_get of string * bool (* queue name, success (false = empty) *)
  | Block of string * int (* wait-queue name, tid *)
  | Unblock of string * int
  | Synthesized of string * int (* routine name, instruction count *)
  | Patched of int (* code address rewritten in place *)
  | Rebalance of int (* scheduler epoch number *)
  | Irq_posted of string * int (* device source, level *)
  | Irq_enter of int * int (* level, vector *)
  | Device_tick of string
  | Fault of string
  | Span_open of int * string (* span id, pipeline name *)
  | Span_hop of int * string (* span id, "stage/phase" *)
  | Span_close of int * string (* span id, pipeline name *)
  | Retune of int * int (* tid, new quantum (us) *)

type event = { ev_cycles : int; ev_kind : kind }

type t = {
  machine : Machine.t;
  metrics : Metrics.t;
  enabled : bool;
  ring : event option array; (* empty when disabled: [emit] never writes it *)
  mutable pos : int;
  mutable count : int; (* total emitted, including dropped *)
  (* The flight-recorder black box: a small ring that records every
     event reaching [emit] even while collection is disabled.  It is
     pure host-side state — writing it charges no simulated cycles —
     so it can stay on for the life of the kernel and still leave
     disabled runs cycle-identical. *)
  bb_ring : event option array;
  mutable bb_pos : int;
  mutable bb_count : int;
  mutable owners : (string * int) list; (* name, owner id; newest first *)
  mutable next_owner : int;
  mutable base_cycles : int; (* machine cycles when tracing was installed *)
}

(* flight-recorder events kept *)
let blackbox_capacity = 256

let create ?(capacity = 65536) ?(enabled = true) machine =
  if capacity <= 0 then invalid_arg "Ktrace.create: capacity";
  {
    machine;
    metrics = Metrics.create ();
    enabled;
    ring = (if enabled then Array.make capacity None else [||]);
    pos = 0;
    count = 0;
    bb_ring = Array.make blackbox_capacity None;
    bb_pos = 0;
    bb_count = 0;
    owners = [];
    next_owner = Machine.owner_first;
    base_cycles = Machine.cycles machine;
  }

let metrics t = t.metrics

let kind_name = function
  | Switch_out _ -> "switch_out"
  | Switch_in _ -> "switch_in"
  | Queue_put _ -> "queue_put"
  | Queue_get _ -> "queue_get"
  | Block _ -> "block"
  | Unblock _ -> "unblock"
  | Synthesized _ -> "synthesized"
  | Patched _ -> "patched"
  | Rebalance _ -> "rebalance"
  | Irq_posted _ -> "irq_posted"
  | Irq_enter _ -> "irq_enter"
  | Device_tick _ -> "device_tick"
  | Fault _ -> "fault"
  | Span_open _ -> "span_open"
  | Span_hop _ -> "span_hop"
  | Span_close _ -> "span_close"
  | Retune _ -> "retune"

let emit t kind =
  let e = { ev_cycles = Machine.cycles t.machine; ev_kind = kind } in
  t.bb_ring.(t.bb_pos) <- Some e;
  t.bb_pos <- (t.bb_pos + 1) mod Array.length t.bb_ring;
  t.bb_count <- t.bb_count + 1;
  if t.enabled then begin
    t.ring.(t.pos) <- Some e;
    t.pos <- (t.pos + 1) mod Array.length t.ring;
    t.count <- t.count + 1;
    Metrics.bump t.metrics ("ktrace.events." ^ kind_name kind)
  end

(* Oldest first. *)
let ring_events ring pos count =
  let cap = Array.length ring in
  let n = min count cap in
  let out = ref [] in
  for i = n - 1 downto 0 do
    match ring.((pos - n + i + (2 * cap)) mod cap) with
    | Some e -> out := e :: !out
    | None -> ()
  done;
  !out

let events t = ring_events t.ring t.pos t.count
let blackbox_events t = ring_events t.bb_ring t.bb_pos t.bb_count
let event_count t = t.count
let dropped t = max 0 (t.count - Array.length t.ring)

(* ------------------------------------------------------------------ *)
(* Owners: pc-range → name, riding on the machine attribution map *)

let register_owner t ~name ~entry ~len =
  let id = t.next_owner in
  t.next_owner <- id + 1;
  t.owners <- (name, id) :: t.owners;
  Machine.set_owner_range t.machine ~entry ~len ~owner:id;
  id

let owner_name t id =
  if id = Machine.owner_unowned then "(user/unowned)"
  else if id = Machine.owner_host then "(host services)"
  else if id = Machine.owner_idle then "(idle)"
  else if id = Machine.owner_irq then "(irq delivery)"
  else
    match List.find_opt (fun (_, i) -> i = id) t.owners with
    | Some (n, _) -> n
    | None -> Fmt.str "(owner %d)" id

(* Per-owner cycle totals, every owner that accumulated anything,
   biggest first.  Call sites should [Machine.attribution_flush]
   first; [owner_cycles] does it for them. *)
let owner_cycles t =
  Machine.attribution_flush t.machine;
  let out = ref [] in
  for id = 0 to Machine.max_owner t.machine do
    let cy = Machine.owner_cycles t.machine id in
    if cy > 0 then out := (owner_name t id, cy) :: !out
  done;
  List.sort (fun (_, a) (_, b) -> compare b a) !out

let attributed_total t =
  Machine.attribution_flush t.machine;
  let total = ref 0 in
  for id = 0 to Machine.max_owner t.machine do
    total := !total + Machine.owner_cycles t.machine id
  done;
  !total

let traced_cycles t = Machine.cycles t.machine - t.base_cycles

(* Group registered-owner totals by quaject: the first '/'-separated
   component of the routine name ("sw_out/t2" → "sw_out", "open/fd3"
   → "open").  Reserved owners keep their parenthesized names, so the
   groups still partition the traced window exactly. *)
let quaject_of_name name =
  if String.length name > 0 && name.[0] = '(' then name
  else match String.index_opt name '/' with
    | Some i -> String.sub name 0 i
    | None -> name

let quaject_cycles t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (name, cy) ->
      let q = quaject_of_name name in
      Hashtbl.replace tbl q (cy + Option.value ~default:0 (Hashtbl.find_opt tbl q)))
    (owner_cycles t);
  Hashtbl.fold (fun q cy acc -> (q, cy) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* Per-thread CPU time from the switch events: cycles between each
   Switch_in(tid) and the next Switch_out(tid).  Approximate when the
   ring has dropped events. *)
let thread_cycles t =
  let tbl = Hashtbl.create 8 in
  let running = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match e.ev_kind with
      | Switch_in tid -> Hashtbl.replace running tid e.ev_cycles
      | Switch_out tid -> (
        match Hashtbl.find_opt running tid with
        | Some t0 ->
          Hashtbl.remove running tid;
          Hashtbl.replace tbl tid
            (e.ev_cycles - t0 + Option.value ~default:0 (Hashtbl.find_opt tbl tid))
        | None -> ())
      | _ -> ())
    (events t);
  (* threads still on CPU at the end of the trace *)
  let now = Machine.cycles t.machine in
  Hashtbl.iter
    (fun tid t0 ->
      Hashtbl.replace tbl tid
        (now - t0 + Option.value ~default:0 (Hashtbl.find_opt tbl tid)))
    running;
  Hashtbl.fold (fun tid cy acc -> (tid, cy) :: acc) tbl [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Installation *)

(* Install everything that doesn't need the kernel: the machine hooks
   (free observability, no simulated cycles) plus the cycle-attribution
   window starting now.  [Kernel.attach_tracing] calls this, then
   registers the already-synthesized routines as owners and arms the
   probes. *)
let install t =
  let fault_name = function
    | Machine.Bus_error _ -> "bus_error"
    | Machine.Div_zero -> "div_zero"
    | Machine.Privilege -> "privilege"
    | Machine.Illegal -> "illegal"
    | Machine.Fp_unavailable -> "fp_unavailable"
  in
  Machine.set_hooks t.machine
    (Some
       {
         Machine.h_post = (fun ~source ~level ~vector:_ -> emit t (Irq_posted (source, level)));
         h_irq = (fun ~level ~vector -> emit t (Irq_enter (level, vector)));
         h_device = (fun name -> emit t (Device_tick name));
         h_fault = (fun f -> emit t (Fault (fault_name f)));
       });
  Machine.attribution_enable t.machine true;
  t.base_cycles <- Machine.cycles t.machine

(* ------------------------------------------------------------------ *)
(* Text summary *)

let pp_kind ppf = function
  | Switch_out tid -> Fmt.pf ppf "switch_out tid=%d" tid
  | Switch_in tid -> Fmt.pf ppf "switch_in tid=%d" tid
  | Queue_put (q, ok) -> Fmt.pf ppf "queue_put %s ok=%b" q ok
  | Queue_get (q, ok) -> Fmt.pf ppf "queue_get %s ok=%b" q ok
  | Block (wq, tid) -> Fmt.pf ppf "block %s tid=%d" wq tid
  | Unblock (wq, tid) -> Fmt.pf ppf "unblock %s tid=%d" wq tid
  | Synthesized (name, n) -> Fmt.pf ppf "synthesized %s insns=%d" name n
  | Patched addr -> Fmt.pf ppf "patched @%d" addr
  | Rebalance n -> Fmt.pf ppf "rebalance epoch=%d" n
  | Irq_posted (src, level) -> Fmt.pf ppf "irq_posted %s L%d" src level
  | Irq_enter (level, vector) -> Fmt.pf ppf "irq_enter L%d vec=%d" level vector
  | Device_tick name -> Fmt.pf ppf "device_tick %s" name
  | Fault name -> Fmt.pf ppf "fault %s" name
  | Span_open (id, p) -> Fmt.pf ppf "span_open #%d %s" id p
  | Span_hop (id, stage) -> Fmt.pf ppf "span_hop #%d %s" id stage
  | Span_close (id, p) -> Fmt.pf ppf "span_close #%d %s" id p
  | Retune (tid, q) -> Fmt.pf ppf "retune tid=%d quantum=%dus" tid q

let pp_event ppf e = Fmt.pf ppf "%10d  %a" e.ev_cycles pp_kind e.ev_kind

let pp_summary ppf t =
  Fmt.pf ppf "ktrace: %d events (%d dropped), %d cycles traced@."
    t.count (dropped t) (traced_cycles t);
  let counts =
    List.filter
      (fun (n, _) ->
        String.length n > 14 && String.sub n 0 14 = "ktrace.events.")
      (Metrics.counters t.metrics)
  in
  List.iter
    (fun (n, v) ->
      Fmt.pf ppf "  %-28s %8d@." (String.sub n 14 (String.length n - 14)) v)
    counts;
  Fmt.pf ppf "cycles by quaject:@.";
  let total = max 1 (attributed_total t) in
  List.iter
    (fun (q, cy) ->
      Fmt.pf ppf "  %-28s %10d cycles  %5.1f%%@." q cy
        (100.0 *. float_of_int cy /. float_of_int total))
    (quaject_cycles t);
  (match thread_cycles t with
  | [] -> ()
  | per_thread ->
    Fmt.pf ppf "cpu time by thread (from switch events):@.";
    List.iter
      (fun (tid, cy) -> Fmt.pf ppf "  thread %-21d %10d cycles@." tid cy)
      per_thread);
  let sched = Metrics.epoch_history t.metrics in
  if sched <> [] then
    Fmt.pf ppf "scheduler: %d rebalance epochs recorded@." (List.length sched)

(* ------------------------------------------------------------------ *)
(* Chrome trace export (chrome://tracing / Perfetto JSON) *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let ts_of_cycles t cy = Cost.us_of_cycles (Machine.cost_model t.machine) cy

let chrome_event t b e =
  let ts = ts_of_cycles t e.ev_cycles in
  let common ~name ~cat ~ph ~tid ~args =
    Buffer.add_string b
      (Fmt.str
         "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":0,\"tid\":%d%s}"
         (json_escape name) cat ph ts tid args)
  in
  let instant ?(tid = 0) ?(args = "") name cat =
    let args = if args = "" then "" else Fmt.str ",\"args\":{%s}" args in
    common ~name ~cat ~ph:"i" ~tid ~args:(args ^ ",\"s\":\"g\"")
  in
  match e.ev_kind with
  | Switch_in tid -> common ~name:(Fmt.str "thread %d" tid) ~cat:"thread" ~ph:"B" ~tid ~args:""
  | Switch_out tid -> common ~name:(Fmt.str "thread %d" tid) ~cat:"thread" ~ph:"E" ~tid ~args:""
  | Queue_put (q, ok) ->
    instant (Fmt.str "put %s" q) "queue" ~args:(Fmt.str "\"ok\":%b" ok)
  | Queue_get (q, ok) ->
    instant (Fmt.str "get %s" q) "queue" ~args:(Fmt.str "\"ok\":%b" ok)
  | Block (wq, tid) -> instant ~tid (Fmt.str "block %s" wq) "sync"
  | Unblock (wq, tid) -> instant ~tid (Fmt.str "unblock %s" wq) "sync"
  | Synthesized (name, n) ->
    instant (Fmt.str "synthesize %s" name) "synthesis" ~args:(Fmt.str "\"insns\":%d" n)
  | Patched addr -> instant (Fmt.str "patch @%d" addr) "synthesis"
  | Rebalance n -> instant (Fmt.str "rebalance %d" n) "scheduler"
  | Irq_posted (src, level) ->
    instant (Fmt.str "irq post %s" (if src = "" then "?" else src)) "irq"
      ~args:(Fmt.str "\"level\":%d" level)
  | Irq_enter (level, vector) ->
    instant (Fmt.str "irq L%d" level) "irq" ~args:(Fmt.str "\"vector\":%d" vector)
  | Device_tick name -> instant (Fmt.str "tick %s" name) "device"
  | Fault name -> instant (Fmt.str "fault %s" name) "fault"
  (* Spans render as async begin/end pairs keyed by span id, so
     Perfetto draws each request as one horizontal bar with hop
     instants on it. *)
  | Span_open (id, p) ->
    Buffer.add_string b
      (Fmt.str
         "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"b\",\"id\":%d,\"ts\":%.3f,\"pid\":0,\"tid\":0}"
         (json_escape p) id ts)
  | Span_hop (id, stage) ->
    instant (Fmt.str "hop %s" stage) "span" ~args:(Fmt.str "\"span\":%d" id)
  | Span_close (id, p) ->
    Buffer.add_string b
      (Fmt.str
         "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"e\",\"id\":%d,\"ts\":%.3f,\"pid\":0,\"tid\":0}"
         (json_escape p) id ts)
  | Retune (tid, q) ->
    instant ~tid (Fmt.str "retune t%d" tid) "scheduler"
      ~args:(Fmt.str "\"quantum_us\":%d" q)

let add_trace_events t b evs =
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun e ->
      if !first then first := false else Buffer.add_char b ',';
      Buffer.add_char b '\n';
      chrome_event t b e)
    evs

let to_chrome_json t =
  let b = Buffer.create 65536 in
  add_trace_events t b (events t);
  Buffer.add_string b "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{";
  Buffer.add_string b (Fmt.str "\"traced_cycles\":%d" (traced_cycles t));
  Buffer.add_string b (Fmt.str ",\"attributed_cycles\":%d" (attributed_total t));
  Buffer.add_string b (Fmt.str ",\"machine_cycles\":%d" (Machine.cycles t.machine));
  Buffer.add_string b (Fmt.str ",\"events\":%d,\"dropped\":%d" t.count (dropped t));
  Buffer.add_string b ",\"quajects\":{";
  let first = ref true in
  List.iter
    (fun (q, cy) ->
      if !first then first := false else Buffer.add_char b ',';
      Buffer.add_string b (Fmt.str "\"%s\":%d" (json_escape q) cy))
    (quaject_cycles t);
  Buffer.add_string b "}}}\n";
  Buffer.contents b

(* Chrome JSON of just the flight-recorder black box: small, always
   available, and what CI attaches to a failing faultsim run. *)
let blackbox_to_chrome_json t =
  let b = Buffer.create 8192 in
  add_trace_events t b (blackbox_events t);
  Buffer.add_string b "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{";
  Buffer.add_string b
    (Fmt.str "\"blackbox_events\":%d,\"machine_cycles\":%d" t.bb_count
       (Machine.cycles t.machine));
  Buffer.add_string b "}}\n";
  Buffer.contents b
