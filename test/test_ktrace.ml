(* Ktrace: event ordering across a two-stage pipeline, balanced cycle
   attribution, and the zero-cost claim for every instrumentation
   layer (ktrace, kspan, the PMU, kfault), on and off. *)

open Quamachine
open Synthesis
module I = Insn

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* The shared workload: producer thread writes 1024 words into a
   pipe in 8-word bursts, consumer reads and sums them.  Returns the
   booted instance after the run, with the collecting trace attached
   right after boot. *)

let run_pipeline () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let tr = Ktrace.create k.Kernel.machine in
  Kernel.attach_tracing k tr;
  let pl = Repro_harness.Harness.Pipeline.build ~total:1024 b in
  Repro_harness.Harness.Pipeline.run pl;
  ( b,
    tr,
    pl.Repro_harness.Harness.Pipeline.pl_producer.Kernel.tid,
    pl.Repro_harness.Harness.Pipeline.pl_consumer.Kernel.tid )

(* ------------------------------------------------------------------ *)
(* Event ordering *)

let test_event_ordering () =
  let _, tr, ptid, ctid = run_pipeline () in
  let evs = Ktrace.events tr in
  check_bool "events recorded" true (List.length evs > 0);
  (* cycle stamps are monotone *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      a.Ktrace.ev_cycles <= b.Ktrace.ev_cycles && monotone rest
    | _ -> true
  in
  check_bool "stamps monotone" true (monotone evs);
  (* the CPU is handed over, never duplicated: a thread switches in
     only after the previous one switched out, so in/out alternate *)
  let switches =
    List.filter_map
      (fun e ->
        match e.Ktrace.ev_kind with
        | Ktrace.Switch_out tid -> Some (`Out tid)
        | Ktrace.Switch_in tid -> Some (`In tid)
        | _ -> None)
      evs
  in
  check_bool "switch events exist" true (switches <> []);
  (* Per thread, in/out strictly alternate starting with in; a thread
     that exits (rather than being preempted) ends on a final in.
     Exits are also why the global sequence may show two ins in a row:
     a dying thread never runs its switch-out. *)
  let tids =
    List.sort_uniq compare
      (List.map (function `In t -> t | `Out t -> t) switches)
  in
  List.iter
    (fun tid ->
      let mine =
        List.filter (function `In t | `Out t -> t = tid) switches
      in
      let rec alternating = function
        | `In _ :: `Out _ :: rest -> alternating rest
        | [ `In _ ] | [] -> true
        | _ -> false
      in
      check_bool
        (Printf.sprintf "thread %d: switch-out precedes its next switch-in" tid)
        true (alternating mine))
    tids;
  (* both pipeline threads took the CPU at least once *)
  let ran tid = List.exists (function `In t -> t = tid | _ -> false) switches in
  check_bool "producer ran" true (ran ptid);
  check_bool "consumer ran" true (ran ctid);
  (* data flows forward: the first put into the pipe precedes the
     first (successful) get out of it *)
  let first_cycle pred =
    List.find_map
      (fun e -> if pred e.Ktrace.ev_kind then Some e.Ktrace.ev_cycles else None)
      evs
  in
  let put =
    first_cycle (function Ktrace.Queue_put (_, true) -> true | _ -> false)
  in
  let get =
    first_cycle (function Ktrace.Queue_get (_, true) -> true | _ -> false)
  in
  (match (put, get) with
  | Some p, Some g -> check_bool "first put precedes first get" true (p < g)
  | _ -> Alcotest.fail "pipeline produced no queue events");
  (* every block has a matching unblock on the same wait queue *)
  let blocks =
    List.filter_map
      (fun e ->
        match e.Ktrace.ev_kind with Ktrace.Block (wq, _) -> Some wq | _ -> None)
      evs
  in
  List.iter
    (fun wq ->
      check_bool ("unblock seen for " ^ wq) true
        (List.exists
           (fun e ->
             match e.Ktrace.ev_kind with
             | Ktrace.Unblock (w, _) -> w = wq
             | _ -> false)
           evs))
    blocks

(* ------------------------------------------------------------------ *)
(* Cycle attribution *)

let test_attribution_balances () =
  let b, tr, _, _ = run_pipeline () in
  let m = b.Boot.kernel.Kernel.machine in
  (* per-owner totals sum exactly to the cycles of the traced window *)
  check_int "attributed = traced" (Ktrace.traced_cycles tr)
    (Ktrace.attributed_total tr);
  (* tracing was attached right after boot, so the window is nearly
     the whole run: it can't exceed the machine total *)
  check_bool "window within machine total" true
    (Ktrace.traced_cycles tr <= Machine.cycles m);
  (* the synthesized pipe code dominates this workload; it must show
     up as a pipe owner with a nonzero share *)
  check_bool "pipe quaject attributed" true
    (List.exists
       (fun (n, c) -> String.starts_with ~prefix:"pipe/" n && c > 0)
       (Ktrace.owner_cycles tr));
  (* thread CPU reconstruction covers both workload threads *)
  check_bool "two or more threads measured" true
    (List.length (Ktrace.thread_cycles tr) >= 2)

(* ------------------------------------------------------------------ *)
(* Zero cost on and off: the overhead bench's rows, each against the
   plain run, to the cycle and to the instruction.  The ktrace rows
   have cases of their own; the last case holds every layer's rows. *)

module Z = Repro_harness.Harness.Zero_cost

let check_free rows =
  Alcotest.(check (list string)) "identical to the plain run" []
    (Z.mismatches ~total:1024 rows)

let test_disabled_tracing_is_free () = check_free [ "trace_off" ]
let test_enabled_tracing_is_free () = check_free [ "trace_on" ]

let test_every_layer_is_free () =
  check_free (List.map (fun (row, _, _) -> row) Z.rows)

(* Probes are bound where code is synthesized and armed whenever a
   trace attaches: the idle thread's switch code, synthesized at boot
   before any trace existed, reports its switches too.  Alone on its
   ring, the idle thread switches out to itself at every quantum. *)
let test_attach_after_boot_sees_idle () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let tr = Ktrace.create m in
  Kernel.attach_tracing k tr;
  let idle = Option.get (Kernel.idle_of k 0) in
  Boot.park_on_idle k;
  ignore (Machine.run ~max_insns:500 m);
  let count f =
    List.length (List.filter (fun e -> f e.Ktrace.ev_kind) (Ktrace.events tr))
  in
  let tid = idle.Kernel.tid in
  check_bool "idle switched in" true
    (count (function Ktrace.Switch_in t -> t = tid | _ -> false) > 1);
  check_bool "idle switched out" true
    (count (function Ktrace.Switch_out t -> t = tid | _ -> false) > 0)

(* Queue probes report each call with its status: a size-2 queue holds
   one item, so the second put fails and the second get finds the
   queue empty. *)
let test_queue_probes () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let tr = Ktrace.create m in
  Kernel.attach_tracing k tr;
  let q = Kqueue.create k ~name:"probed" ~size:2 in
  let call entry = [ I.Jsr (I.To_addr entry) ] in
  let put v = I.Move (I.Imm v, I.Reg I.r1) :: call q.Kqueue.q_put in
  let entry, _ =
    Asm.assemble m
      (put 1 @ put 2 @ call q.Kqueue.q_get @ call q.Kqueue.q_get @ [ I.Halt ])
  in
  Machine.set_supervisor m true;
  Machine.set_reg m I.sp Layout.boot_stack_top;
  Machine.set_pc m entry;
  ignore (Machine.run ~max_insns:1000 m);
  let queue_events =
    List.filter_map
      (fun e ->
        match e.Ktrace.ev_kind with
        | Ktrace.Queue_put ("probed", ok) -> Some ("put", ok)
        | Ktrace.Queue_get ("probed", ok) -> Some ("get", ok)
        | _ -> None)
      (Ktrace.events tr)
  in
  Alcotest.(check (list (pair string bool)))
    "one event per call, with its status"
    [ ("put", true); ("put", false); ("get", true); ("get", false) ]
    queue_events

(* Probe points emit no instructions; the disassembly lists them. *)
let test_disassembly_shows_probes () =
  let k = (Boot.boot ()).Boot.kernel in
  let idle = Option.get (Kernel.idle_of k 0) in
  let listing =
    Fmt.str "%a"
      (fun ppf () ->
        Inspect.disassemble_routine k ppf (Fmt.str "ctx/t%d/sw_out" idle.Kernel.tid))
      ()
  in
  let lines = String.split_on_char '\n' listing in
  check_bool "switch_out probe listed" true
    (List.exists (fun l -> String.trim l = "; probe ktrace switch_out") lines)

(* ------------------------------------------------------------------ *)
(* Export *)

(* A tiny structural check that the export is valid JSON: balanced
   quotes/braces/brackets outside strings, and the required keys. *)
let json_well_formed s =
  let depth = ref 0 in
  let in_str = ref false in
  let ok = ref true in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if !in_str then begin
      if c = '\\' then incr i else if c = '"' then in_str := false
    end
    else begin
      match c with
      | '"' -> in_str := true
      | '{' | '[' -> incr depth
      | '}' | ']' ->
        decr depth;
        if !depth < 0 then ok := false
      | _ -> ()
    end;
    incr i
  done;
  !ok && !depth = 0 && not !in_str

let test_chrome_export () =
  let _, tr, _, _ = run_pipeline () in
  let json = Ktrace.to_chrome_json tr in
  check_bool "balanced json" true (json_well_formed json);
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length json && (String.sub json i n = sub || go (i + 1))
    in
    go 0
  in
  check_bool "traceEvents present" true (contains "\"traceEvents\"");
  check_bool "span begin present" true (contains "\"ph\":\"B\"");
  check_bool "span end present" true (contains "\"ph\":\"E\"");
  check_bool "otherData present" true (contains "\"otherData\"");
  check_bool "quaject totals exported" true (contains "\"quajects\"")

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_metrics_registry () =
  let _, tr, _, _ = run_pipeline () in
  let mx = Ktrace.metrics tr in
  (* every ring event was also counted, even if the ring dropped it *)
  let counted =
    List.fold_left (fun a (_, v) -> a + v) 0
      (List.filter
         (fun (n, _) ->
           String.length n > 7 && String.sub n 0 7 = "ktrace.")
         (Metrics.counters mx))
  in
  check_int "counters add up to the emit total" (Ktrace.event_count tr) counted;
  check_bool "switch-in counter nonzero" true
    (Metrics.read mx "ktrace.events.switch_in" > 0)

(* A disabled trace allocates no event ring and collects nothing, but
   its flight recorder still fills. *)
let test_disabled_trace_keeps_blackbox () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let tr = Ktrace.create ~enabled:false k.Kernel.machine in
  Kernel.attach_tracing k tr;
  let pl = Repro_harness.Harness.Pipeline.build ~total:1024 b in
  Repro_harness.Harness.Pipeline.run pl;
  check_int "no events collected" 0 (Ktrace.event_count tr);
  check_bool "no events buffered" true (Ktrace.events tr = []);
  check_int "none dropped" 0 (Ktrace.dropped tr);
  check_bool "black box filled" true (Ktrace.blackbox_events tr <> [])

let () =
  Alcotest.run "ktrace"
    [
      ( "ktrace",
        [
          Alcotest.test_case "event ordering" `Quick test_event_ordering;
          Alcotest.test_case "attribution balances" `Quick
            test_attribution_balances;
          Alcotest.test_case "disabled tracing is free" `Quick
            test_disabled_tracing_is_free;
          Alcotest.test_case "enabled tracing is free" `Quick
            test_enabled_tracing_is_free;
          Alcotest.test_case "every layer is free, on and off" `Quick
            test_every_layer_is_free;
          Alcotest.test_case "attach after boot sees idle" `Quick
            test_attach_after_boot_sees_idle;
          Alcotest.test_case "queue probes" `Quick test_queue_probes;
          Alcotest.test_case "disassembly shows probes" `Quick
            test_disassembly_shows_probes;
          Alcotest.test_case "chrome export" `Quick test_chrome_export;
          Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
          Alcotest.test_case "disabled trace keeps its black box" `Quick
            test_disabled_trace_keeps_blackbox;
        ] );
    ]
