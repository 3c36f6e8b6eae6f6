(* The Quamachine performance-monitoring unit (§6.1): the paper's
   measurements lean on the machine's built-in instruction and
   memory-reference counters and its microsecond interval timer.  This
   module packages those counters as programmable sampling windows
   (start/stop/read) and adds timer-driven pc sampling on top of
   [Machine.set_sampling].

   Everything here is host-side observation: a PMU — created or not,
   running or not, sampling or not — never charges a simulated cycle,
   so instrumented and uninstrumented runs are bit-identical
   (bench/pmu_overhead.ml asserts it). *)

type counter = Cycles | Instructions | Mem_refs | Interrupts

let counter_name = function
  | Cycles -> "cycles"
  | Instructions -> "instructions"
  | Mem_refs -> "mem_refs"
  | Interrupts -> "interrupts"

(* A window snapshot of all four machine counters. *)
type snap = { w_cycles : int; w_insns : int; w_refs : int; w_irqs : int }

type t = {
  machine : Machine.t;
  mutable running : bool;
  mutable base : snap; (* counter values when the current window opened *)
  mutable acc : snap; (* closed-window totals *)
  mutable base_cores : snap array; (* per-core rows of [base] (SMP) *)
  mutable acc_cores : snap array;
  (* pc samples: parallel growable arrays of (pc, weight-cycles) *)
  mutable sample_pc : int array;
  mutable sample_w : int array;
  mutable sample_len : int;
  mutable period : int; (* 0 = sampling off *)
}

let snap m =
  {
    w_cycles = Machine.cycles m;
    w_insns = Machine.insns_executed m;
    w_refs = Machine.mem_refs m;
    w_irqs = Machine.irqs_taken m;
  }

(* Per-core row of the same counters; w_cycles is the core's local
   clock, so rows sum to more than the machine frontier under SMP. *)
let core_snap m i =
  {
    w_cycles = Machine.core_cycles m i;
    w_insns = Machine.core_insns m i;
    w_refs = Machine.core_refs m i;
    w_irqs = Machine.core_irqs m i;
  }

let zero = { w_cycles = 0; w_insns = 0; w_refs = 0; w_irqs = 0 }
let zero_cores m = Array.make (Machine.num_cores m) zero
let all_cores m f = Array.init (Machine.num_cores m) f

let create machine =
  {
    machine;
    running = false;
    base = zero;
    acc = zero;
    base_cores = zero_cores machine;
    acc_cores = zero_cores machine;
    sample_pc = [||];
    sample_w = [||];
    sample_len = 0;
    period = 0;
  }

(* Counters accumulated over the current window (empty when stopped). *)
let window t =
  if not t.running then zero
  else
    let now = snap t.machine in
    {
      w_cycles = now.w_cycles - t.base.w_cycles;
      w_insns = now.w_insns - t.base.w_insns;
      w_refs = now.w_refs - t.base.w_refs;
      w_irqs = now.w_irqs - t.base.w_irqs;
    }

(* Per-core deltas over the current window. *)
let window_core t i =
  if not t.running then zero
  else
    let now = core_snap t.machine i in
    let b = t.base_cores.(i) in
    {
      w_cycles = now.w_cycles - b.w_cycles;
      w_insns = now.w_insns - b.w_insns;
      w_refs = now.w_refs - b.w_refs;
      w_irqs = now.w_irqs - b.w_irqs;
    }

let start t =
  if not t.running then begin
    t.running <- true;
    t.base <- snap t.machine;
    t.base_cores <- all_cores t.machine (fun i -> core_snap t.machine i)
  end

let add a w =
  {
    w_cycles = a.w_cycles + w.w_cycles;
    w_insns = a.w_insns + w.w_insns;
    w_refs = a.w_refs + w.w_refs;
    w_irqs = a.w_irqs + w.w_irqs;
  }

let stop t =
  if t.running then begin
    t.acc_cores <- all_cores t.machine (fun i -> add t.acc_cores.(i) (window_core t i));
    t.acc <- add t.acc (window t);
    t.running <- false
  end

let read t c =
  let w = window t in
  match c with
  | Cycles -> t.acc.w_cycles + w.w_cycles
  | Instructions -> t.acc.w_insns + w.w_insns
  | Mem_refs -> t.acc.w_refs + w.w_refs
  | Interrupts -> t.acc.w_irqs + w.w_irqs

let read_all t =
  [
    (Cycles, read t Cycles);
    (Instructions, read t Instructions);
    (Mem_refs, read t Mem_refs);
    (Interrupts, read t Interrupts);
  ]

(* Same window discipline per core (SMP): totals plus the open window,
   with cycles on the core's local clock. *)
let read_core t cpu c =
  let w = window_core t cpu in
  let a = t.acc_cores.(cpu) in
  match c with
  | Cycles -> a.w_cycles + w.w_cycles
  | Instructions -> a.w_insns + w.w_insns
  | Mem_refs -> a.w_refs + w.w_refs
  | Interrupts -> a.w_irqs + w.w_irqs

(* ------------------------------------------------------------------ *)
(* PC sampling *)

let ensure_sample_capacity t =
  if t.sample_len = Array.length t.sample_pc then begin
    let cap = max 1024 (2 * Array.length t.sample_pc) in
    let pc = Array.make cap 0 and w = Array.make cap 0 in
    Array.blit t.sample_pc 0 pc 0 t.sample_len;
    Array.blit t.sample_w 0 w 0 t.sample_len;
    t.sample_pc <- pc;
    t.sample_w <- w
  end

(* Samples land only while a window is open, so the sample set covers
   exactly the code the counters cover. *)
let record t ~pc ~weight =
  if t.running then begin
    ensure_sample_capacity t;
    t.sample_pc.(t.sample_len) <- pc;
    t.sample_w.(t.sample_len) <- weight;
    t.sample_len <- t.sample_len + 1
  end

let enable_sampling t ~period =
  t.period <- period;
  Machine.set_sampling t.machine ~period (fun ~pc ~weight ->
      record t ~pc ~weight)

let sampling_period t = t.period
let sample_count t = t.sample_len

let sampled_cycles t =
  let total = ref 0 in
  for i = 0 to t.sample_len - 1 do
    total := !total + t.sample_w.(i)
  done;
  !total

(* Aggregate sample weights per pc, heaviest first. *)
let sample_histogram t =
  let tbl = Hashtbl.create 256 in
  for i = 0 to t.sample_len - 1 do
    let pc = t.sample_pc.(i) in
    Hashtbl.replace tbl pc
      (t.sample_w.(i) + Option.value ~default:0 (Hashtbl.find_opt tbl pc))
  done;
  Hashtbl.fold (fun pc w acc -> (pc, w) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let pp ppf t =
  let w = if t.running then "running" else "stopped" in
  Fmt.pf ppf "pmu (%s):@." w;
  List.iter
    (fun (c, v) -> Fmt.pf ppf "  %-14s %12d@." (counter_name c) v)
    (read_all t);
  if Machine.num_cores t.machine > 1 then
    for i = 0 to Machine.num_cores t.machine - 1 do
      Fmt.pf ppf "  cpu%d: cycles %d insns %d refs %d irqs %d@." i
        (read_core t i Cycles) (read_core t i Instructions)
        (read_core t i Mem_refs) (read_core t i Interrupts)
    done;
  if t.period > 0 then
    Fmt.pf ppf "  %d pc samples, period %d cycles, %d cycles sampled@."
      t.sample_len t.period (sampled_cycles t)
