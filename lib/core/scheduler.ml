(* Fine-grain scheduling (§4.4).

   Round-robin order comes from the executable ready queue; what this
   module adjusts is each thread's CPU *quantum*, derived from the
   thread's measured I/O rate ("need to execute").  Every synthesized
   I/O routine ticks the owning thread's gauge cell; each epoch the
   scheduler reads the gauges and retunes the quantum immediates
   patched into every thread's switch-in code.

   Effective CPU time for a thread is its quantum divided by the sum
   of all quanta (§4.4); tests assert that proportionality. *)

open Quamachine

type t = {
  kernel : Kernel.t;
  last_gauge : (int, int) Hashtbl.t; (* tid -> gauge at last epoch *)
  last_cpu : (int, int) Hashtbl.t; (* tid -> traced CPU cycles at last epoch *)
}

(* the quantum range, in µs, a rebalance assigns from *)
let min_quantum = 100
let max_quantum = 1_000

let gauge_cell (tte : Kernel.tte) = tte.Kernel.base + Layout.Tte.off_gauge

(* Ready threads across every core's ring (SMP: proportionality is
   judged over the whole machine). *)
let all_ready k =
  List.concat (List.init (Kernel.cores k) (fun c -> Ready_queue.to_list ~cpu:c k))

let read_gauge k tte = Machine.peek k.Kernel.machine (gauge_cell tte)

(* One rebalancing pass: quantum grows linearly with the epoch's I/O
   event rate, clamped to [min, max].  Threads doing no I/O keep the
   minimum quantum (they are compute-bound; the round-robin ring still
   serves them every lap). *)
let rebalance t =
  let k = t.kernel in
  let metrics = k.Kernel.metrics in
  let snapshot =
    Hashtbl.fold
      (fun tid tte acc ->
        if tte.Kernel.state = Kernel.Zombie then acc
        else begin
          let now = read_gauge k tte in
          let last = try Hashtbl.find t.last_gauge tid with Not_found -> 0 in
          Hashtbl.replace t.last_gauge tid now;
          (tte, now - last) :: acc
        end)
      k.Kernel.threads []
  in
  let max_rate = List.fold_left (fun a (_, r) -> max a r) 1 snapshot in
  let span = max_quantum - min_quantum in
  (* §4.4 made observable: before retuning, compare the CPU share each
     ready thread was *promised* by its quantum over the epoch just
     ended against the share it *got* (per the trace's switch events).
     Drift is half the L1 distance between the two distributions:
     0 = perfect proportionality, 1 = completely elsewhere.  Without a
     trace nothing was measured, so the gauge is left unset. *)
  let drift =
    match k.Kernel.ktrace with
    | None -> None
    | Some tr ->
      let ready = all_ready k in
      let total_q =
        List.fold_left (fun a (x : Kernel.tte) -> a + x.Kernel.quantum_us) 0 ready
      in
      let cpu = Ktrace.thread_cycles tr in
      let deltas =
        List.map
          (fun (x : Kernel.tte) ->
            let now = try List.assoc x.Kernel.tid cpu with Not_found -> 0 in
            let last = try Hashtbl.find t.last_cpu x.Kernel.tid with Not_found -> 0 in
            Hashtbl.replace t.last_cpu x.Kernel.tid now;
            (x, now - last))
          ready
      in
      let total_c = List.fold_left (fun a (_, d) -> a + d) 0 deltas in
      Some
        (if total_q = 0 || total_c <= 0 then 0.0
         else
           0.5
           *. List.fold_left
                (fun acc ((x : Kernel.tte), d) ->
                  acc
                  +. abs_float
                       ((float_of_int x.Kernel.quantum_us /. float_of_int total_q)
                       -. (float_of_int d /. float_of_int total_c)))
                0.0 deltas)
  in
  Option.iter
    (fun d -> Metrics.set_gauge (Metrics.gauge metrics "sched.share_drift") d)
    drift;
  let entries =
    List.map
      (fun ((tte : Kernel.tte), rate) ->
        let quantum = min_quantum + (span * rate / max_rate) in
        if quantum <> tte.Kernel.quantum_us then begin
          Ctx.set_quantum k tte quantum;
          Metrics.bump metrics "sched.retunes";
          Kernel.trace k (Ktrace.Retune (tte.Kernel.tid, quantum))
        end;
        Machine.charge k.Kernel.machine 10;
        { Metrics.ep_tid = tte.Kernel.tid; ep_rate = rate; ep_quantum = quantum })
      snapshot
  in
  Metrics.bump metrics "sched.rebalances";
  Metrics.record_epoch metrics
    { Metrics.ep_time_us = Machine.time_us k.Kernel.machine; ep_entries = entries };
  Kernel.trace k (Ktrace.Rebalance (Metrics.read metrics "sched.rebalances"))

(* Install the scheduler as a periodic machine device.  Its counters,
   drift gauge (traced runs only) and epoch records land in the
   kernel's registry. *)
let install k ?(epoch_us = 5_000) () =
  let t = { kernel = k; last_gauge = Hashtbl.create 16; last_cpu = Hashtbl.create 16 } in
  let m = k.Kernel.machine in
  let period () = Cost.cycles_of_us (Machine.cost_model m) (float_of_int epoch_us) in
  let dev = Machine.add_device m ~name:"scheduler" ~due:(Machine.cycles m + period ()) ~tick:(fun _ -> ()) in
  dev.Machine.dev_tick <-
    (fun m ->
      rebalance t;
      Machine.device_schedule m dev (Machine.cycles m + period ()))
