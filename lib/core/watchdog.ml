(* Flow-rate watchdog quaject.

   The fine-grain scheduler's insight (§4) is that progress is a
   *rate*: a healthy pump moves items every quantum.  The watchdog
   inverts that — a flow whose observed counter stops moving for
   [threshold] (3) consecutive periods is stalled, and the registered
   restart action kicks it back to life (re-arm a lost timer, re-issue
   a transfer, restart a pump thread).

   It runs as a periodic host-side machine device, so while it is
   armed the machine always has a next event: a watched run never
   raises [Deadlock], it recovers instead.  Stop it when the workload
   ends.  Fault-free runs that never install a watchdog are untouched;
   runs that do pay zero simulated cycles for the watching itself —
   only restart actions charge (whatever they do). *)

open Quamachine

type flow = {
  w_name : string;
  w_read : unit -> int; (* monotone progress counter *)
  w_restart : unit -> unit;
  mutable w_last : int;
  mutable w_zeros : int;
  mutable w_restarts : int;
  mutable w_stuck : int; (* consecutive restarts with no progress between *)
}

type t = {
  wd_kernel : Kernel.t;
  wd_period_cycles : int;
  wd_dev : Machine.device;
  mutable wd_flows : flow list;
  mutable wd_running : bool;
  (* kheal: when enabled, each period also checksum-walks the
     synthesized-code region table and resynthesizes corrupted
     regions (Kernel.audit_code).  The walk itself is host-side and
     free; repairs charge synthesis cost. *)
  mutable wd_audit : bool;
}

(* consecutive zero-delta periods before a restart *)
let threshold = 3

(* restarts without progress before escalating *)
let escalate = 3

let check t flow =
  let v = flow.w_read () in
  if v <> flow.w_last then begin
    flow.w_last <- v;
    flow.w_zeros <- 0;
    flow.w_stuck <- 0
  end
  else begin
    flow.w_zeros <- flow.w_zeros + 1;
    if flow.w_zeros >= threshold then begin
      flow.w_zeros <- 0;
      flow.w_restarts <- flow.w_restarts + 1;
      flow.w_stuck <- flow.w_stuck + 1;
      let k = t.wd_kernel in
      Metrics.bump k.Kernel.metrics "watchdog.restarts";
      Kernel.trace k (Ktrace.Fault ("watchdog/" ^ flow.w_name));
      (* escalation: restarting is not helping — the flow has been
         restarted [escalate] times in a row without a single unit
         of progress in between.  Dump the flight recorder once per
         stuck streak so the wreckage is captured while fresh. *)
      if flow.w_stuck = escalate then begin
        Kernel.log_fault k ~tid:0
          ~reason:("watchdog_escalation/" ^ flow.w_name);
        ignore
          (Kernel.postmortem
             ~reason:
               (Fmt.str "watchdog escalation: %s stalled through %d restarts"
                  flow.w_name flow.w_stuck)
             k)
      end;
      flow.w_restart ()
    end
  end

let tick t m =
  if t.wd_running then begin
    List.iter (check t) t.wd_flows;
    if t.wd_audit then
      ignore (Kernel.audit_code ~origin:"watchdog" t.wd_kernel);
    Machine.device_schedule m t.wd_dev (Machine.cycles m + t.wd_period_cycles)
  end

let install k ?(period_us = 2_000.0) () =
  let m = k.Kernel.machine in
  let period_cycles = Cost.cycles_of_us (Machine.cost_model m) period_us in
  let rec t =
    lazy
      {
        wd_kernel = k;
        wd_period_cycles = period_cycles;
        wd_dev =
          Machine.add_device m ~name:"watchdog"
            ~due:(Machine.cycles m + period_cycles)
            ~tick:(fun m -> tick (Lazy.force t) m);
        wd_flows = [];
        wd_running = true;
        wd_audit = false;
      }
  in
  Lazy.force t

(* Enable the per-period code audit (kheal's second detection
   channel: corruption in regions that never execute still gets
   caught and repaired within one watchdog period). *)
let audit_code t = t.wd_audit <- true

let watch t ~name ~read ~restart () =
  let flow =
    {
      w_name = name;
      w_read = read;
      w_restart = restart;
      w_last = read ();
      w_zeros = 0;
      w_restarts = 0;
      w_stuck = 0;
    }
  in
  t.wd_flows <- flow :: t.wd_flows;
  flow

let stop t =
  t.wd_running <- false;
  Machine.device_idle t.wd_kernel.Kernel.machine t.wd_dev

let restarts flow = flow.w_restarts
