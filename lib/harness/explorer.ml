(* kfault interleaving explorer.

   The paper's robustness claim (§3.2): the optimistic, lock-free
   kernel code stays correct under arbitrary preemption and interrupt
   timing.  This module stresses exactly that, deterministically.

   The explorer is organised around pluggable *subjects*, each a name
   plus a run function; [run_subject] is the only way to run one.  A
   driven subject boots a kernel, builds a workload (threads of machine
   code plus host-visible counters), and exposes invariant checks.  A
   shared driver then runs the machine while forcing a context switch
   every k-th instruction (posting the quantum-timer interrupt, which
   every thread's private vector table routes to its own switch-out
   code) —
   so preemption points sweep across every instruction of the kernel
   paths as seeds vary.  A seeded [Fault_inject] plan adds spurious
   interrupts, bit flips, forced CAS failures, and stalled/dropped
   completions on top.  Invariants are checked at every forced
   preemption and once more at the end; each run folds a deterministic
   trace hash so CI can assert that a seed names exactly one
   interleaving.

   Subjects:
   - the four lock-free [Kqueue] kinds (no loss / no duplication /
     no corruption / per-producer FIFO);
   - the executable ready queue under a storm of host-driven
     stop/start/restart transitions (ring integrity, no dead or
     stopped thread holding the CPU);
   - a [Kpipe] producer/consumer pair (exact data delivery, clean
     EOF, no premature EOF under spurious wakeups);
   - the disk elevator under stalled, dropped, and spurious
     completions (completion-exactly-once with the right data, SCAN
     service order, no starvation);
   - kheal code flips, the shared synthesized-page repair, kSMP work
     stealing and the kserve serving stack;
   - the three kcrash litmus families, which enumerate power-cut
     states instead of forcing preemptions (see the kcrash section).

   [timer_loss] and [disk_fault] are targeted recovery scenarios: a
   dropped quantum-timer completion (livelock recovered by the
   flow-rate watchdog) and stalled/dropped/failing disk completions
   (recovered by the disk server's bounded retry). *)

open Quamachine
open Synthesis
module I = Insn

(* Deterministic per-seed scrambling for stride choices (never use
   Random: sweeps must replay exactly). *)
let mix seed salt =
  let z = (seed * 0x9E3779B1) lxor (salt * 0x85EBCA6B) in
  let z = (z lxor (z lsr 15)) * 0x2545F491 in
  (z lxor (z lsr 13)) land max_int

(* ---------------------------------------------------------------- *)
(* Subject API *)

type subject_result = {
  s_subject : string;
  s_seed : int;
  s_stride : int; (* instructions between forced preemptions *)
  s_preemptions : int; (* forced context switches posted *)
  s_injected : int; (* faults delivered by the plan *)
  s_progress : int;
  s_goal : int;
  s_violations : string list; (* empty = all invariants held *)
  s_insns : int;
  s_cycles : int;
  s_trace_hash : int; (* seed-deterministic interleaving fingerprint *)
  s_postmortem : string option; (* flight-recorder dump when checks failed *)
  s_blackbox_json : string option; (* black-box ring as Chrome trace JSON *)
}

(* One built workload: a booted kernel plus the hooks the driver
   needs.  [i_check] runs at every forced preemption, [i_final] once
   after the run; [i_agitate] lets a subject drive host-side
   transitions (thread stop/start/restart) at preemption points;
   [i_sabotage] deliberately corrupts state mid-run so the negative
   tests can prove the invariants actually bite. *)
type instance = {
  i_boot : Boot.t;
  i_goal : int;
  i_budget : int; (* instruction budget before declaring a stall *)
  i_stride_span : int;
      (* forced preemptions come every 128 + (mix seed 7 mod span)
         core-0 instructions: a span the run's core-0 burst covers *)
  i_fault_config : Fault_inject.config option;
  i_progress : unit -> int;
  i_agitate : (int -> unit) option;
  i_check : unit -> string list;
  i_final : unit -> string list;
  i_sabotage : (unit -> unit) option;
}

(* Every subject boots with the flight recorder armed: a trace with
   collection off (the always-on black-box ring, fed by the switch and
   queue probes) plus the span layer.  Both are host-side, so the
   subject runs exactly as it would unobserved.  A failing check can
   then dump a postmortem whose open-span set names the requests that
   were in flight and whose black box shows the last switches and
   queue operations. *)
let observed_boot ?(cores = 1) () =
  let b = Boot.boot ~cores () in
  let k = b.Boot.kernel in
  Kernel.attach_tracing k (Ktrace.create ~enabled:false k.Kernel.machine);
  ignore (Kernel.attach_spans k);
  b

(* The shared driver: step the machine, posting the quantum-timer
   interrupt every [stride] instructions; at each such checkpoint run
   the subject's agitation and invariant hooks and fold the trace
   hash.  Stops at the first recorded violation (the final checks
   still run), at the goal, or when the budget is exhausted. *)
let run_instance ~name ~seed ~faults ~sabotage inst =
  let k = inst.i_boot.Boot.kernel in
  let m = k.Kernel.machine in
  Boot.enter_scheduler k;
  let fi =
    if faults then
      match inst.i_fault_config with
      | Some config ->
        Some (Fault_inject.arm m (Fault_inject.compile ~config seed))
      | None -> None
    else None
  in
  (* stride floor keeps forward progress: a forced switch costs a few
     dozen instructions of save/restore, so anything comfortably above
     that guarantees every thread still advances between switches.
     The stride is measured in core-0 instructions, not global ones
     (identical on a uniprocessor): the forced timer interrupt lands
     on core 0, and on an SMP boot core 0 only executes ~1/cores of
     the global stream — a globally-paced stride would interrupt it
     below the switch cost and livelock whatever is pinned there. *)
  let stride = 128 + (mix seed 7 mod inst.i_stride_span) in
  let preemptions = ref 0 in
  let checkpoint = ref 0 in
  let hash = ref (mix seed 0x5eed) in
  let fold v = hash := mix !hash (v land max_int) in
  let nviol = ref 0 in
  let violations = ref [] in
  let add vs =
    List.iter
      (fun v ->
        incr nviol;
        if !nviol <= 16 then violations := v :: !violations)
      vs
  in
  let sabotaged = ref false in
  let start_insns = Machine.insns_executed m in
  let start_cycles = Machine.cycles m in
  (try
     let rec loop last_post =
       let p = inst.i_progress () in
       if p >= inst.i_goal then ()
       else if Machine.insns_executed m - start_insns > inst.i_budget then
         add [ "stall: instruction budget exhausted" ]
       else if Machine.halted m then add [ "machine halted" ]
       else begin
         (* sabotage triggers on progress, not on a checkpoint: subjects
            that mostly sleep across device events (the disk burst)
            retire work while executing almost no instructions, so a
            stride checkpoint may never land inside the run *)
         if sabotage && (not !sabotaged) && p * 4 >= inst.i_goal then begin
           (match inst.i_sabotage with Some f -> f () | None -> ());
           sabotaged := true
         end;
         let n = Machine.core_insns m 0 in
         let last_post =
           if n - last_post >= stride then begin
             incr checkpoint;
             (match inst.i_agitate with Some f -> f !checkpoint | None -> ());
             add (inst.i_check ());
             fold (Machine.get_pc m);
             fold (inst.i_progress ());
             fold (Machine.cycles m);
             incr preemptions;
             Machine.post_interrupt ~source:"explorer" m
               ~level:Mmio_map.timer_level ~vector:Mmio_map.timer_vector;
             n
           end
           else last_post
         in
         if !nviol = 0 then begin
           Machine.step m;
           loop last_post
         end
       end
     in
     loop (Machine.core_insns m 0)
   with
  | Machine.Deadlock -> add [ "deadlock" ]
  | Failure msg -> add [ "invariant: " ^ msg ]);
  add (inst.i_final ());
  let injected = match fi with Some f -> Fault_inject.injected f | None -> 0 in
  (match fi with Some f -> Fault_inject.disarm m f | None -> ());
  let insns = Machine.insns_executed m - start_insns in
  let cycles = Machine.cycles m - start_cycles in
  fold insns;
  fold cycles;
  fold injected;
  fold !preemptions;
  List.iter (fun v -> fold (Hashtbl.hash v)) !violations;
  let postmortem, blackbox =
    if !violations = [] then (None, None)
    else
      ( Some (Kernel.postmortem ~reason:("subject_check/" ^ name) k),
        Option.map Ktrace.blackbox_to_chrome_json k.Kernel.ktrace )
  in
  {
    s_subject = name;
    s_seed = seed;
    s_stride = stride;
    s_preemptions = !preemptions;
    s_injected = injected;
    s_progress = inst.i_progress ();
    s_goal = inst.i_goal;
    s_violations = List.rev !violations;
    s_insns = insns;
    s_cycles = cycles;
    s_trace_hash = !hash;
    s_postmortem = postmortem;
    s_blackbox_json = blackbox;
  }

(* A subject is a name plus its run function.  Most subjects build an
   [instance] for the forced-preemption driver above ([driven]); the
   crash families enumerate power-cut states instead ([crash_subject]).
   Either way [run_subject] is the only entry point. *)
type subject = {
  sub_name : string;
  sub_run : seed:int -> faults:bool -> sabotage:bool -> subject_result;
}

let subject_name s = s.sub_name

let driven name build =
  {
    sub_name = name;
    sub_run =
      (fun ~seed ~faults ~sabotage ->
        run_instance ~name ~seed ~faults ~sabotage (build ~seed));
  }

let run_subject ?(faults = true) ?(sabotage = false) subject ~seed () =
  subject.sub_run ~seed ~faults ~sabotage

(* ---------------------------------------------------------------- *)
(* Subject 1: the four lock-free Kqueue kinds *)

let kind_name = function
  | Kqueue.Spsc -> "spsc"
  | Kqueue.Mpsc -> "mpsc"
  | Kqueue.Spmc -> "spmc"
  | Kqueue.Mpmc -> "mpmc"

let participants = function
  | Kqueue.Spsc -> (1, 1)
  | Kqueue.Mpsc -> (3, 1)
  | Kqueue.Spmc -> (1, 3)
  | Kqueue.Mpmc -> (3, 3)

(* Producer [i]: put [items] tagged values, retrying while full, then
   park.  Items are (tag << 16) | seq so the checker can reconstruct
   per-producer streams.  The generated put reads r1 without modifying
   it, so the full-retry re-enters with the item intact. *)
let producer_code ~tag ~items ~put ~done_cell =
  [
    I.Move (I.Imm 0, I.Reg I.r8);
    I.Label "loop";
    I.Move (I.Imm (tag lsl 16), I.Reg I.r1);
    I.Alu (I.Add, I.Reg I.r8, I.r1);
    I.Label "again";
    I.Jsr (I.To_addr put);
    I.Tst (I.Reg I.r0);
    I.B (I.Eq, I.To_label "again"); (* full: retry until preempted away *)
    I.Alu (I.Add, I.Imm 1, I.r8);
    I.Cmp (I.Imm items, I.Reg I.r8);
    I.B (I.Ne, I.To_label "loop");
    I.Alu_mem (I.Add, I.Imm 1, I.Abs done_cell);
    I.Label "park";
    I.B (I.Always, I.To_label "park");
  ]

(* Consumer [j]: drain forever, logging each item and counting it.
   The host loop stops the run when the counts reach the total. *)
let consumer_code ~log_base ~get ~count_cell =
  [
    I.Move (I.Imm log_base, I.Reg I.r12);
    I.Label "loop";
    I.Jsr (I.To_addr get);
    I.Tst (I.Reg I.r0);
    I.B (I.Eq, I.To_label "loop"); (* empty: retry *)
    I.Move (I.Reg I.r1, I.Post_inc I.r12);
    I.Alu_mem (I.Add, I.Imm 1, I.Abs count_cell);
    I.B (I.Always, I.To_label "loop");
  ]

(* Check the consumer logs against the queue invariants. *)
let check_invariants ~producers ~consumers ~items ~peek ~logs ~counts =
  let total = producers * items in
  let violations = ref [] in
  let violate fmt = Fmt.kstr (fun s -> violations := s :: !violations) fmt in
  let consumed =
    Array.to_list (Array.init consumers (fun j -> peek (counts + j)))
    |> List.fold_left ( + ) 0
  in
  if consumed <> total then
    violate "loss/stall: consumed %d of %d" consumed total;
  let seen = Hashtbl.create (2 * total) in
  (* newest position of each producer's last seq per consumer *)
  let last_seq = Array.make_matrix consumers (producers + 1) (-1) in
  for j = 0 to consumers - 1 do
    let n = peek (counts + j) in
    for p = 0 to n - 1 do
      let v = peek (logs.(j) + p) in
      let tag = v lsr 16 and seq = v land 0xFFFF in
      if tag < 1 || tag > producers || seq >= items then
        violate "corrupt item %#x at consumer %d pos %d" v j p
      else begin
        if Hashtbl.mem seen v then violate "duplicate item %#x" v;
        Hashtbl.replace seen v ();
        if seq <= last_seq.(j).(tag) then
          violate
            "FIFO violation: consumer %d saw producer %d seq %d after %d" j
            tag seq last_seq.(j).(tag);
        last_seq.(j).(tag) <- seq
      end
    done
  done;
  (* presence: every produced item must appear exactly once (a phantom
     consume can hide a loss from the count-based check above) *)
  for tag = 1 to producers do
    for seq = 0 to items - 1 do
      if not (Hashtbl.mem seen ((tag lsl 16) lor seq)) then
        violate "missing item tag=%d seq=%d" tag seq
    done
  done;
  List.rev !violations

(* The queue subject's fault mix: spurious timer/disk interrupts
   (safe: both handlers are idempotent) and forced CAS failures.  Bit
   flips are aimed at the Layout-reserved fault scratch window; device
   stalls are exercised by the disk subject and the targeted scenarios
   instead. *)
let explorer_config () =
  {
    Fault_inject.default_config with
    Fault_inject.horizon_cycles = 400_000;
    n_irqs = 3;
    n_flips = 2;
    n_stalls = 0;
    n_drops = 0;
    n_cas_fails = 6;
    cas_gap = 32;
    irq_choices =
      [
        (Mmio_map.timer_level, Mmio_map.timer_vector);
        (Mmio_map.disk_level, Mmio_map.disk_vector);
      ];
    flip_base = Layout.fault_scratch_base;
    flip_len = Layout.fault_scratch_words;
  }

(* Build the queue workload into an already-booted kernel: producers
   and consumers pinned round-robin across [cores] (all on core 0 for
   a uniprocessor boot), so on an SMP boot the queue code really is
   entered from several cores at once.  Returns the goal (items to
   consume) and the progress, final-check and sabotage closures. *)
let queue_workload b ~items ~kind ~cores =
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let producers, consumers = participants kind in
  let total = producers * items in
  let q = Kqueue.create ~kind k ~name:"explorer/q" ~size:8 in
  let alloc = k.Kernel.alloc in
  let log_words = total + 8 in
  let logs = Array.init consumers (fun _ -> Kalloc.alloc_zeroed alloc log_words) in
  let counts = Kalloc.alloc_zeroed alloc 16 in
  (* every thread sees the queue, the logs, the counters *)
  let segments =
    [ (q.Kqueue.q_desc, 16); (q.Kqueue.q_buf, 8); (counts, 16) ]
    @ (if q.Kqueue.q_flag <> 0 then [ (q.Kqueue.q_flag, 8) ] else [])
    @ Array.to_list (Array.map (fun l -> (l, log_words)) logs)
  in
  for i = 1 to producers do
    let code =
      producer_code ~tag:i ~items ~put:q.Kqueue.q_put
        ~done_cell:(counts + consumers + i - 1)
    in
    let entry, _ = Asm.assemble m code in
    ignore
      (Thread.create k ~cpu:((i - 1) mod cores) ~entry ~quantum_us:1_000
         ~segments ())
  done;
  for j = 0 to consumers - 1 do
    let code =
      consumer_code ~log_base:logs.(j) ~get:q.Kqueue.q_get
        ~count_cell:(counts + j)
    in
    let entry, _ = Asm.assemble m code in
    ignore
      (Thread.create k ~cpu:((producers + j) mod cores) ~entry
         ~quantum_us:1_000 ~segments ())
  done;
  let peek a = Machine.peek m a in
  let consumed () =
    let s = ref 0 in
    for j = 0 to consumers - 1 do
      s := !s + peek (counts + j)
    done;
    !s
  in
  let final () =
    check_invariants ~producers ~consumers ~items ~peek ~logs ~counts
  in
  (* a phantom consume: bump one consumer's count without a matching
     item — the presence check must notice *)
  let sabotage () = Machine.poke m counts (peek counts + 1) in
  (total, consumed, final, sabotage)

let queue_subject ?(cores = 1) ?(items = 32) kind =
  driven ("queue/" ^ kind_name kind) (fun ~seed:_ ->
      let b = observed_boot ~cores () in
      let total, consumed, final, sabotage =
        queue_workload b ~items ~kind ~cores
      in
      {
        i_boot = b;
        i_goal = total;
        i_budget = 6_000_000;
        i_stride_span = 256;
        i_fault_config = Some (explorer_config ());
        i_progress = consumed;
        i_agitate = None;
        i_check = (fun () -> []);
        i_final = final;
        i_sabotage = Some sabotage;
      })

(* ---------------------------------------------------------------- *)
(* Subject 2: the executable ready queue under a thread-state storm *)

(* Four counting workers (half of them yielding through trap 5) while
   seeded host agitation stops, starts, and crash-restarts them at
   preemption points — sweeping the stop/start/restart paths across
   every instruction of the switch code.  Invariants: the patched-jmp
   ring always matches the host mirror and closes (Ready_queue.verify,
   whose walk is bounded), the anchor stays in the ring, no stopped or
   dead thread sits in the ring, and no dead thread holds the CPU. *)
let ready_queue_subject =
  let build ~seed =
    let b = observed_boot () in
    let k = b.Boot.kernel in
    let m = k.Kernel.machine in
    let alloc = k.Kernel.alloc in
    let nworkers = 4 in
    let cells = Kalloc.alloc_zeroed alloc 8 in
    let worker i =
      let cell = cells + i in
      let body =
        if i land 1 = 0 then
          [
            I.Label "loop";
            I.Alu_mem (I.Add, I.Imm 1, I.Abs cell);
            I.B (I.Always, I.To_label "loop");
          ]
        else
          [
            I.Label "loop";
            I.Alu_mem (I.Add, I.Imm 1, I.Abs cell);
            I.Trap 5; (* yield *)
            I.B (I.Always, I.To_label "loop");
          ]
      in
      let entry, _ = Asm.assemble m body in
      Thread.create k ~entry ~quantum_us:300 ~segments:[ (cells, 8) ] ()
    in
    let workers = Array.init nworkers worker in
    let progress () =
      let s = ref 0 in
      for i = 0 to nworkers - 1 do
        s := !s + Machine.peek m (cells + i)
      done;
      !s
    in
    let agitate step =
      let r = mix seed (0x1000 + step) in
      let w = workers.((r lsr 4) mod nworkers) in
      (match r mod 6 with
      | 0 ->
        (* stop — but keep at least two ring members so the machine
           always has somewhere to go *)
        if
          w.Kernel.state = Kernel.Ready
          && Ready_queue.in_queue w
          && Ready_queue.length k > 2
        then Thread.stop k w
      | 1 ->
        if w.Kernel.state = Kernel.Stopped && Thread.fully_stopped k w then
          Thread.start k w
      | 2 ->
        (* crash-restart: rebuild the initial context and requeue *)
        if
          w.Kernel.state = Kernel.Ready
          || (w.Kernel.state = Kernel.Stopped && Thread.fully_stopped k w)
        then Kernel.restart_thread k w
      | _ -> ());
      (* never leave the storm with zero runnable workers *)
      if not (Array.exists Ready_queue.in_queue workers) then
        Array.iter
          (fun w ->
            if w.Kernel.state = Kernel.Stopped && Thread.fully_stopped k w
            then Thread.start k w)
          workers
    in
    (* a Stopped/Blocked thread may hold the CPU transiently (its
       switch-out has not run yet); flag it only if it persists *)
    let stuck_tid = ref (-1) in
    let stuck_for = ref 0 in
    let check () =
      let v = ref [] in
      let violate fmt = Fmt.kstr (fun s -> v := s :: !v) fmt in
      if not (Ready_queue.verify k) then
        violate "ready queue verify failed (ring/mirror mismatch)";
      (match Kernel.anchor k 0 with
      | Some a ->
        if not (Ready_queue.in_queue a) then violate "anchor not in ring"
      | None ->
        if Array.exists Ready_queue.in_queue workers then
          violate "anchor lost while workers are queued");
      (try
         List.iter
           (fun t ->
             match t.Kernel.state with
             | Kernel.Ready -> ()
             | Kernel.Stopped ->
               violate "stopped thread %d in ring" t.Kernel.tid
             | Kernel.Blocked ->
               violate "blocked thread %d in ring" t.Kernel.tid
             | Kernel.Zombie -> violate "dead thread %d in ring" t.Kernel.tid)
           (Ready_queue.to_list k)
       with Failure msg -> violate "%s" msg);
      (match Kernel.current k with
      | Some c -> (
        match c.Kernel.state with
        | Kernel.Zombie -> violate "dead thread %d holds the CPU" c.Kernel.tid
        | Kernel.Ready ->
          stuck_tid := -1;
          stuck_for := 0
        | Kernel.Stopped | Kernel.Blocked ->
          if c.Kernel.tid = !stuck_tid then incr stuck_for
          else begin
            stuck_tid := c.Kernel.tid;
            stuck_for := 1
          end;
          if !stuck_for > 4 then
            violate "suspended thread %d still holds the CPU" c.Kernel.tid)
      | None -> ());
      List.rev !v
    in
    {
      i_boot = b;
      i_goal = 4_000;
      i_budget = 3_000_000;
      i_stride_span = 256;
      i_fault_config =
        Some
          {
            Fault_inject.default_config with
            Fault_inject.horizon_cycles = 400_000;
            n_irqs = 4;
            n_flips = 0;
            n_stalls = 0;
            n_drops = 0;
            n_cas_fails = 0;
            irq_choices =
              [
                (Mmio_map.timer_level, Mmio_map.timer_vector);
                (Mmio_map.disk_level, Mmio_map.disk_vector);
              ];
            flip_len = 0;
          };
      i_progress = progress;
      i_agitate = Some agitate;
      i_check = check;
      i_final = check;
      (* point one patched jmp at the address-0 halt guard: the
         code/mirror cross-check must notice before (or as) the ring
         wedges *)
      i_sabotage =
        Some
          (fun () ->
            match Kernel.anchor k 0 with
            | Some a -> Machine.patch_code m a.Kernel.jmp_slot (I.Jmp (I.To_addr 0))
            | None -> ());
    }
  in
  driven "ready-queue" build

(* ---------------------------------------------------------------- *)
(* Subject 3: a Kpipe producer/consumer pair *)

(* A writer streams [total] known words through a deliberately small
   pipe (lots of full/empty blocking) and closes; the reader drains
   into a destination buffer, counts words, and must then see a clean
   EOF.  Invariants: the destination equals the source exactly (no
   loss, duplication, reordering, or corruption), the count matches,
   EOF is seen exactly once and never early — under forced preemption,
   spurious interrupts, and forced CAS failures. *)
let kpipe_subject =
  let build ~seed =
    let b = observed_boot () in
    let k = b.Boot.kernel in
    let m = k.Kernel.machine in
    let vfs = b.Boot.vfs in
    let alloc = k.Kernel.alloc in
    let total = 192 in
    let chunk = 8 in
    let src = Kalloc.alloc_zeroed alloc total in
    let dst = Kalloc.alloc_zeroed alloc total in
    let cells = Kalloc.alloc_zeroed alloc 8 in
    (* cells+0 = words received, cells+1 = EOF marker
       (1 clean, 2 data past EOF, 3 premature EOF) *)
    let value i = 1 + ((i * 7 + seed) land 0x7FFF) in
    for i = 0 to total - 1 do
      Machine.poke m (src + i) (value i)
    done;
    let pipe = Kpipe.create k ~cap:16 () in
    let writer =
      Thread.create k ~entry:0 ~quantum_us:200 ~segments:[ (src, total) ] ()
    in
    let reader =
      Thread.create k ~entry:0 ~quantum_us:200
        ~segments:[ (dst, total); (cells, 8) ] ()
    in
    let _, wfd = Kpipe.attach vfs pipe writer in
    let rfd, _ = Kpipe.attach vfs pipe reader in
    (* r9 for the position: the synthesized write path clobbers
       r4–r8 (r8 is its remaining-count register) *)
    let wprog =
      [
        I.Move (I.Imm 0, I.Reg I.r9);
        I.Label "loop";
        I.Move (I.Imm wfd, I.Reg I.r1);
        I.Move (I.Imm src, I.Reg I.r2);
        I.Alu (I.Add, I.Reg I.r9, I.r2);
        I.Move (I.Imm chunk, I.Reg I.r3);
        I.Trap 2; (* write: blocks while full, writes everything *)
        I.Alu (I.Add, I.Imm chunk, I.r9);
        I.Cmp (I.Imm total, I.Reg I.r9);
        I.B (I.Ne, I.To_label "loop");
        I.Move (I.Imm wfd, I.Reg I.r1);
        I.Trap 4; (* close: EOF for the reader *)
        I.Trap 0;
      ]
    in
    let rprog =
      [
        I.Move (I.Imm 0, I.Reg I.r9);
        I.Label "loop";
        I.Move (I.Imm rfd, I.Reg I.r1);
        I.Move (I.Imm dst, I.Reg I.r2);
        I.Alu (I.Add, I.Reg I.r9, I.r2);
        I.Move (I.Imm 64, I.Reg I.r3);
        I.Trap 1; (* read: blocks while empty, 0 only at EOF *)
        I.Tst (I.Reg I.r0);
        I.B (I.Eq, I.To_label "early_eof");
        I.Alu (I.Add, I.Reg I.r0, I.r9);
        I.Alu_mem (I.Add, I.Reg I.r0, I.Abs cells);
        I.Cmp (I.Imm total, I.Reg I.r9);
        I.B (I.Ne, I.To_label "loop");
        (* everything received: one more read must return EOF *)
        I.Move (I.Imm rfd, I.Reg I.r1);
        I.Move (I.Imm dst, I.Reg I.r2);
        I.Move (I.Imm chunk, I.Reg I.r3);
        I.Trap 1;
        I.Tst (I.Reg I.r0);
        I.B (I.Ne, I.To_label "bad_eof");
        I.Move (I.Imm 1, I.Abs (cells + 1));
        I.Trap 0;
        I.Label "bad_eof";
        I.Move (I.Imm 2, I.Abs (cells + 1));
        I.Trap 0;
        I.Label "early_eof";
        I.Move (I.Imm 3, I.Abs (cells + 1));
        I.Trap 0;
      ]
    in
    let wentry, _ = Asm.assemble m wprog in
    let rentry, _ = Asm.assemble m rprog in
    Machine.poke m (writer.Kernel.base + Layout.Tte.off_regs + 17) wentry;
    Machine.poke m (reader.Kernel.base + Layout.Tte.off_regs + 17) rentry;
    writer.Kernel.entry <- wentry;
    reader.Kernel.entry <- rentry;
    let peek a = Machine.peek m a in
    let progress () = peek cells + (if peek (cells + 1) = 1 then 1 else 0) in
    (* the received prefix is stable: dst.[0, count) must already
       equal the source *)
    let check () =
      let c = peek cells in
      if c > total then
        [ Fmt.str "pipe delivered %d of %d words" c total ]
      else begin
        let bad = ref [] in
        (try
           for i = 0 to c - 1 do
             let want = value i and got = peek (dst + i) in
             if got <> want then begin
               bad :=
                 [
                   Fmt.str "pipe data wrong at word %d: got %#x want %#x" i
                     got want;
                 ];
               raise Exit
             end
           done
         with Exit -> ());
        !bad
      end
    in
    let final () =
      let v = ref [] in
      let violate fmt = Fmt.kstr (fun s -> v := s :: !v) fmt in
      let c = peek cells in
      if c <> total then violate "reader counted %d of %d words" c total;
      let bad = ref 0 in
      for i = 0 to total - 1 do
        if peek (dst + i) <> value i then begin
          incr bad;
          if !bad <= 3 then
            violate "pipe data wrong at word %d: got %#x want %#x" i
              (peek (dst + i)) (value i)
        end
      done;
      (match peek (cells + 1) with
      | 1 -> ()
      | 0 -> violate "reader never reached EOF"
      | 2 -> violate "read past EOF returned data"
      | 3 -> violate "premature EOF: read returned 0 before the pipe drained"
      | x -> violate "bad EOF marker %d" x);
      List.rev !v
    in
    {
      i_boot = b;
      i_goal = total + 1; (* all words received + clean EOF observed *)
      i_budget = 4_000_000;
      i_stride_span = 256;
      i_fault_config =
        Some
          {
            Fault_inject.default_config with
            Fault_inject.horizon_cycles = 400_000;
            n_irqs = 3;
            n_flips = 0;
            n_stalls = 0;
            n_drops = 0;
            n_cas_fails = 6;
            cas_gap = 32;
            irq_choices =
              [
                (Mmio_map.timer_level, Mmio_map.timer_vector);
                (Mmio_map.disk_level, Mmio_map.disk_vector);
              ];
            flip_len = 0;
          };
      i_progress = progress;
      i_agitate = None;
      i_check = check;
      i_final = final;
      (* corrupt an already-delivered word: the prefix check must
         notice at the next checkpoint *)
      i_sabotage =
        Some (fun () -> Machine.poke m (dst + 3) (value 3 lxor 0x5555));
    }
  in
  driven "kpipe" build

(* ---------------------------------------------------------------- *)
(* Subject 4: the disk elevator under completion faults *)

(* Ten reads of seeded distinct blocks (known contents pre-written to
   the device) submitted in one burst while spurious disk interrupts,
   a stalled completion, and a dropped completion land on top; the
   idle thread takes the interrupts.  Invariants: every request
   completes exactly once with status 1 and the right data the moment
   completion is signalled (a spurious interrupt must not mark an
   in-flight transfer done with a stale buffer), nothing is starved or
   failed, and the device services blocks in SCAN order. *)
let disk_subject =
  let build ~seed =
    let b = observed_boot () in
    let k = b.Boot.kernel in
    let m = k.Kernel.machine in
    let alloc = k.Kernel.alloc in
    let ds = Disk_server.install k ~timeout_us:2_000.0 ~max_tries:6 () in
    let nreqs = 10 in
    let blocks =
      let chosen = Array.make nreqs 0 in
      let used = Hashtbl.create 16 in
      let n = ref 0 and i = ref 0 in
      while !n < nreqs do
        let c = 1 + (mix seed (0x2000 + !i) mod 96) in
        incr i;
        if not (Hashtbl.mem used c) then begin
          Hashtbl.add used c ();
          chosen.(!n) <- c;
          incr n
        end
      done;
      chosen
    in
    let expected bno i = (bno * 1_000) + i in
    Array.iter
      (fun bno ->
        Devices.Disk.write_block k.Kernel.disk bno
          (Array.init Devices.Disk.block_words (expected bno)))
      blocks;
    let reqs =
      Array.map
        (fun bno ->
          let buf = Kalloc.alloc_zeroed alloc Disk_server.block_words in
          let req = Disk_server.submit ds ~block:bno ~buffer:buf ~write:false () in
          (bno, buf, req.Disk_server.r_desc))
        blocks
    in
    let peek a = Machine.peek m a in
    let progress () =
      Array.fold_left
        (fun acc (_, _, desc) -> if peek (desc + 3) = 1 then acc + 1 else acc)
        0 reqs
    in
    let first_done = Array.make nreqs false in
    let check () =
      let v = ref [] in
      let violate fmt = Fmt.kstr (fun s -> v := s :: !v) fmt in
      Array.iteri
        (fun idx (bno, buf, desc) ->
          match peek (desc + 3) with
          | 2 -> violate "block %d failed after retries" bno
          | 1 when not first_done.(idx) ->
            first_done.(idx) <- true;
            (* the data must be right the moment completion is
               signalled, not eventually *)
            let bad = ref (-1) in
            for i = Devices.Disk.block_words - 1 downto 0 do
              if peek (buf + i) <> expected bno i then bad := i
            done;
            if !bad >= 0 then
              violate "block %d completed with stale data at word %d" bno !bad
          | _ -> ())
        reqs;
      List.rev !v
    in
    let final () =
      let v = ref (check ()) in
      let violate fmt = Fmt.kstr (fun s -> v := !v @ [ s ]) fmt in
      Array.iter
        (fun (bno, _, desc) ->
          match peek (desc + 3) with
          | 1 | 2 -> () (* 2 already reported by check *)
          | st -> violate "block %d never completed (status %d)" bno st)
        reqs;
      (* SCAN: ascending from the first-issued block, then the reverse
         sweep downward; retries must not re-enter the order *)
      let order = Disk_server.service_order ds in
      let first = blocks.(0) in
      let rest = List.tl (Array.to_list blocks) in
      let want =
        (first
        :: List.sort compare (List.filter (fun x -> x > first) rest))
        @ List.sort (fun a b -> compare b a)
            (List.filter (fun x -> x < first) rest)
      in
      if order <> want then
        violate "elevator order [%s], want [%s]"
          (String.concat ";" (List.map string_of_int order))
          (String.concat ";" (List.map string_of_int want));
      !v
    in
    {
      i_boot = b;
      i_goal = nreqs;
      i_budget = 2_000_000;
      (* the burst runs 281 core-0 instructions when nothing preempts
         it: strides must stay below that *)
      i_stride_span = 128;
      i_fault_config =
        Some
          {
            Fault_inject.default_config with
            Fault_inject.horizon_cycles = 300_000;
            n_irqs = 4;
            n_flips = 0;
            n_stalls = 1;
            n_drops = 1;
            n_cas_fails = 0;
            irq_choices = [ (Mmio_map.disk_level, Mmio_map.disk_vector) ];
            stall_devices = [ "disk" ];
            flip_len = 0;
          };
      i_progress = progress;
      i_agitate = None;
      i_check = check;
      i_final = final;
      (* corrupt the first (already completed) buffer and forget we
         checked it: the data invariant must re-notice *)
      i_sabotage =
        Some
          (fun () ->
            let _, buf, _ = reqs.(0) in
            Machine.poke m buf (peek buf lxor 0x1111);
            first_done.(0) <- false)
    }
  in
  driven "disk" build

(* ---------------------------------------------------------------- *)
(* Subject 5: kheal — code-region flips with resynthesis repair *)

(* An Mpsc queue workload (hot put/get and switch code), one quaject
   op (code that never executes during the run), and a watchdog with
   the code audit enabled.  The fault plan aims [Bit_flip Code] events
   at every regenerable region the workload owns — queue ops, each
   thread's switch code, quaject ops — and the agitation hook keeps
   flipping more at preemption points.  Executed corruption traps and
   is repaired in place (the faulting instruction retries); dormant
   corruption is caught by the watchdog's periodic checksum walk.  At
   the end one last audit must leave every region clean and the code
   state hash exactly equal to the fingerprint taken at build time —
   i.e. the kernel converged back to the fault-free steady state.

   Fault-handler regions ("fault/...") are deliberately never
   targeted: a corrupted illegal-instruction handler would re-enter
   itself in infinite regress.  Repairing the repairer needs a second
   uncorrupted channel (e.g. a host-side ECC sweep) that the model
   does not pretend to have. *)
let codeflip_subject =
  let has_prefix p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  let build ~seed =
    let b = observed_boot () in
    let k = b.Boot.kernel in
    let m = k.Kernel.machine in
    let alloc = k.Kernel.alloc in
    let total, consumed, queue_final, _ =
      queue_workload b ~items:24 ~kind:Kqueue.Mpsc ~cores:1
    in
    (* a quaject op: synthesized code that never runs during the
       storm, so only the audit channel can catch its corruption *)
    let tick_cell = Kalloc.alloc_zeroed alloc 4 in
    let tick_template ~self:_ =
      Template.make ~name:"tick" (fun () ->
          [ I.Alu_mem (I.Add, I.Imm 1, I.Abs tick_cell); I.Rts ])
    in
    ignore
      (Synthesizer.create k ~name:"healer" ~data_words:4
         [ ("tick", tick_template) ]);
    (* second detection channel: periodic checksum walk *)
    let wd = Watchdog.install k ~period_us:1_000.0 () in
    Watchdog.audit_code wd;
    (* target every regenerable region this workload owns — never the
       fault handlers (see above) *)
    let targets =
      List.filter_map
        (fun r ->
          let n = r.Kernel.sp_name in
          if
            has_prefix "explorer/q/" n || has_prefix "ctx/" n
            || has_prefix "quaject/" n
          then Some (r.Kernel.sp_entry, r.Kernel.sp_len)
          else None)
        (Kernel.pages k)
    in
    let target_arr = Array.of_list targets in
    (* the region set and content (minus scheduling slots) are fixed
       from here on: this hash IS the fault-free steady state *)
    let snapshot =
      List.map
        (fun r -> (r.Kernel.sp_name, r.Kernel.sp_entry))
        (Kernel.pages k)
    in
    let reference = Kernel.code_state_hash k in
    (* keep the storm dense: extra deterministic flips at preemption
       points, beyond the compiled plan *)
    let agitate step =
      let r = mix seed (0xC0DE + step) in
      if r mod 5 = 0 && Array.length target_arr > 0 then begin
        let base, len = target_arr.((r lsr 4) mod Array.length target_arr) in
        Fault_inject.corrupt_code m
          ~addr:(base + (r lsr 10) mod max 1 len)
          ~bit:((r lsr 20) mod 31)
      end
    in
    let final () =
      let v = ref [] in
      let violate fmt = Fmt.kstr (fun s -> v := s :: !v) fmt in
      (* one last walk — the same pass the watchdog runs — then the
         code state must be exactly the fault-free fingerprint *)
      ignore (Kernel.audit_code ~origin:"final" k);
      List.iter
        (fun r ->
          if Kernel.region_dirty k r then
            violate "region %s still dirty after final audit" r.Kernel.sp_name)
        (Kernel.pages k);
      List.iter
        (fun (name, entry) ->
          match Kernel.find_region_by_name k name with
          | Some r when r.Kernel.sp_entry = entry -> ()
          | Some r ->
            violate "region %s lost from the registry (was @%d, now @%d)" name
              entry r.Kernel.sp_entry
          | None ->
            violate "region %s lost from the registry (was @%d, now absent)"
              name entry)
        snapshot;
      if Kernel.code_state_hash k <> reference then
        violate "code state diverged from the fault-free fingerprint";
      queue_final () @ List.rev !v
    in
    {
      i_boot = b;
      i_goal = total;
      i_budget = 8_000_000;
      i_stride_span = 256;
      i_fault_config =
        Some
          {
            Fault_inject.default_config with
            Fault_inject.horizon_cycles = 400_000;
            n_irqs = 2;
            n_flips = 0;
            n_stalls = 0;
            n_drops = 0;
            n_cas_fails = 4;
            cas_gap = 32;
            n_code_flips = 4;
            code_regions = targets;
            irq_choices = [ (Mmio_map.timer_level, Mmio_map.timer_vector) ];
            flip_len = 0;
          };
      i_progress = consumed;
      i_agitate = Some agitate;
      i_check = (fun () -> []);
      i_final = final;
      (* corrupt a dormant region AND drop its page record (list and
         index): the audit can no longer see it, so the page-presence and
         fingerprint checks must both notice *)
      i_sabotage =
        Some
          (fun () ->
            match Kernel.find_region_by_name k "bad_fd" with
            | Some r ->
              Fault_inject.corrupt_code m ~addr:r.Kernel.sp_entry ~bit:3;
              Kernel.drop_page k r
            | None -> failwith "codeflip: no bad_fd region to sabotage");
    }
  in
  driven "codeflip" build

(* ---------------------------------------------------------------- *)
(* Subject 6: synthcache — a corrupted shared page repairs once for
   all users *)

(* Several threads call the same memoized op: one [Ksynth] page,
   refcount = users.  The fault plan aims [Bit_flip Code] events at
   that single shared page while a decoy churn (instantiate + release
   of throwaway ops under a tight per-kind cap) keeps the eviction
   path hot around it.  The claims under storm:

   - corruption is repaired *in place*, exactly once for all users —
     the page never forks, moves, or gets re-instantiated per caller
     (handle identity, entry address, and refcount all stay fixed);
   - eviction never touches a page with live references — the decoy
     churn must evict decoys, never the hot page;
   - the kernel converges back to the fault-free code fingerprint.

   The sabotage hook mirrors codeflip: corrupt the shared page AND
   drop its page record (list and index), so repair is blind to it
   and only the page-presence / fingerprint checks can notice. *)
let synthcache_subject =
  let build ~seed =
    let b = observed_boot () in
    let k = b.Boot.kernel in
    let m = k.Kernel.machine in
    let alloc = k.Kernel.alloc in
    let users = 4 in
    let items = 32 in
    let count_cell = Kalloc.alloc_zeroed alloc 4 in
    let dones = Kalloc.alloc_zeroed alloc users in
    let bump_template =
      Template.make ~name:"cachehot/bump" (fun () ->
          [ I.Alu_mem (I.Add, I.Imm 1, I.Abs count_cell); I.Rts ])
    in
    (* every user instantiates the same template with the same
       invariants: one page, refcount = users *)
    let handles =
      List.init users (fun _ -> Ksynth.instantiate k ~template:bump_template)
    in
    let h0 = List.hd handles in
    let entry0 = Ksynth.entry h0 in
    let page0 = Ksynth.page h0 in
    List.iter
      (fun h ->
        if Ksynth.entry h <> entry0 then
          failwith "synthcache: identical instantiations did not share")
      handles;
    for i = 0 to users - 1 do
      let code =
        [
          I.Move (I.Imm 0, I.Reg I.r8);
          I.Label "loop";
          I.Jsr (I.To_addr entry0);
          I.Alu (I.Add, I.Imm 1, I.r8);
          I.Cmp (I.Imm items, I.Reg I.r8);
          I.B (I.Ne, I.To_label "loop");
          I.Alu_mem (I.Add, I.Imm 1, I.Abs (dones + i));
          I.Label "park";
          I.B (I.Always, I.To_label "park");
        ]
      in
      let entry, _ = Asm.assemble m code in
      ignore
        (Thread.create k ~entry ~quantum_us:1_000
           ~segments:[ (count_cell, 4); (dones, users) ]
           ())
    done;
    (* second detection channel for dormant corruption *)
    let wd = Watchdog.install k ~period_us:1_000.0 () in
    Watchdog.audit_code wd;
    let hot_region =
      match Kernel.find_region k entry0 with
      | Some r -> (r.Kernel.sp_entry, r.Kernel.sp_len)
      | None -> failwith "synthcache: shared page has no region record"
    in
    let reference = Kernel.code_state_hash k in
    let evictions0 = (Ksynth.stats k).Ksynth.st_evictions in
    let peek a = Machine.peek m a in
    (* decoy churn: throwaway ops under a tight cap, so eviction and
       resynthesis run right next to the hot page all storm long *)
    Ksynth.set_cap k ~kind:"cachecold" 32;
    let decoy ~v =
      Template.make ~name:"cachecold/decoy" (fun () ->
          [ I.Move (I.Imm v, I.Reg I.r0); I.Rts ])
    in
    let churn v = Ksynth.release k (Ksynth.instantiate k ~template:(decoy ~v)) in
    (* a fresh invariant binding every checkpoint: every churn is a
       miss, so the cap keeps evicting right through the storm *)
    let agitate step = churn (1 + (mix seed (0xCA5E + step) mod 4096)) in
    let check () =
      let v = ref [] in
      let violate fmt = Fmt.kstr (fun s -> v := s :: !v) fmt in
      if Ksynth.page h0 != page0 then
        violate "shared page forked or detached under repair";
      if Ksynth.entry h0 <> entry0 then
        violate "shared page moved from %#x to %#x" entry0 (Ksynth.entry h0);
      if Ksynth.refs h0 <> users then
        violate "shared page refcount %d, want %d" (Ksynth.refs h0) users;
      List.rev !v
    in
    let final () =
      let v = ref (check ()) in
      let violate fmt = Fmt.kstr (fun s -> v := !v @ [ s ]) fmt in
      (* flush the decoys (at least one exists: churn it in now), so
         the surviving code content is exactly the build-time set;
         eviction must leave the referenced hot page alone *)
      churn 0;
      Ksynth.set_cap k ~kind:"cachecold" 0;
      if (Ksynth.stats k).Ksynth.st_evictions = evictions0 then
        violate "decoy churn drove no evictions";
      (* the same walk the watchdog runs, then exact convergence *)
      ignore (Kernel.audit_code ~origin:"final" k);
      List.iter
        (fun r ->
          if Kernel.region_dirty k r then
            violate "region %s still dirty after final audit" r.Kernel.sp_name)
        (Kernel.pages k);
      (match Kernel.find_region k entry0 with
      | Some r when (r.Kernel.sp_entry, r.Kernel.sp_len) = hot_region -> ()
      | _ -> violate "shared page lost from the registry");
      if Kernel.code_state_hash k <> reference then
        violate "code state diverged from the fault-free fingerprint";
      (* one more instantiation must be a pure hit on the same page:
         the repaired page, not a resynthesized copy, serves new users *)
      let h = Ksynth.instantiate k ~template:bump_template in
      if Ksynth.entry h <> entry0 then
        violate "post-storm instantiation missed the repaired page";
      Ksynth.release k h;
      for i = 0 to users - 1 do
        if peek (dones + i) <> 1 then violate "user %d never finished" i
      done;
      !v
    in
    (* done flags count toward the goal: the run only ends once every
       user has parked, so the per-user finished check can bite *)
    let progress () =
      let d = ref (peek count_cell) in
      for i = 0 to users - 1 do
        d := !d + peek (dones + i)
      done;
      !d
    in
    {
      i_boot = b;
      i_goal = users * (items + 1);
      i_budget = 4_000_000;
      i_stride_span = 256;
      i_fault_config =
        Some
          {
            Fault_inject.default_config with
            Fault_inject.horizon_cycles = 400_000;
            n_irqs = 2;
            n_flips = 0;
            n_stalls = 0;
            n_drops = 0;
            n_cas_fails = 0;
            n_code_flips = 4;
            code_regions = [ hot_region ];
            irq_choices = [ (Mmio_map.timer_level, Mmio_map.timer_vector) ];
            flip_len = 0;
          };
      i_progress = progress;
      i_agitate = Some agitate;
      i_check = check;
      i_final = final;
      i_sabotage =
        Some
          (fun () ->
            match Kernel.find_region k entry0 with
            | Some r ->
              Fault_inject.corrupt_code m ~addr:r.Kernel.sp_entry ~bit:3;
              Kernel.drop_page k r
            | None -> failwith "synthcache: no region to sabotage");
    }
  in
  driven "synthcache" build

(* ---------------------------------------------------------------- *)
(* Subject 6: kSMP — several cores over one shared memory *)

(* A seed-picked queue kind with its producers/consumers pinned
   round-robin across 2–4 cores, one spinning filler thread per core,
   and a work-stealer device on every core.  Agitation skews core
   clocks ([Machine.stall_core]), forces steals and migrations, and
   posts cross-core quantum-timer preemptions; the fault plan adds
   core-targeted spurious interrupts and core stalls on top.

   Invariants, checked at every forced preemption: every per-core
   ready ring closes and matches the host mirror ([Ready_queue.verify]
   walks all rings), each core's current thread is homed on that core
   and alive, and each core's idle thread stays pinned.  The final
   check adds the full queue ledger (no loss, no duplication, no
   corruption, per-producer FIFO) — now asserted across genuinely
   concurrent cores rather than interleaved threads on one.

   Sabotage arms a rogue migration: at the next agitation point the
   dispatch guard is skipped ([Smp.unsafe_skip_guard]) and another
   core's *current* thread is migrated while its context lives in that
   core's registers — the per-core current-consistency check must
   catch it. *)
let smp_subject ?cores () =
  let build ~seed =
    let cores =
      match cores with
      | Some c -> max 2 (min c Machine.max_cores)
      | None -> 2 + (mix seed 0x51ed mod 3)
    in
    let kind =
      List.nth
        [ Kqueue.Spsc; Kqueue.Mpsc; Kqueue.Spmc; Kqueue.Mpmc ]
        (mix seed 0x4b mod 4)
    in
    let items = 24 in
    let b = observed_boot ~cores () in
    let k = b.Boot.kernel in
    let m = k.Kernel.machine in
    Machine.set_schedule_seed m seed;
    let goal, consumed, queue_final, _ =
      queue_workload b ~items ~kind ~cores
    in
    (* one spinning filler per core: ready work for the stealers and a
       non-idle current thread on every core *)
    let alloc = k.Kernel.alloc in
    let fill_cells = Kalloc.alloc_zeroed alloc Machine.max_cores in
    let fillers =
      Array.init cores (fun c ->
          let body =
            [
              I.Label "loop";
              I.Alu_mem (I.Add, I.Imm 1, I.Abs (fill_cells + c));
              I.B (I.Always, I.To_label "loop");
            ]
          in
          let entry, _ = Asm.assemble m body in
          Thread.create k ~cpu:c ~entry ~quantum_us:400
            ~segments:[ (fill_cells, Machine.max_cores) ] ())
    in
    for c = 0 to cores - 1 do
      ignore (Smp.install_stealer k ~cpu:c ())
    done;
    (* sabotage arms the rogue migration; the next agitation point
       fires it (it needs a victim core whose current thread is a real
       ready thread, which one agitation step may not have) *)
    let sab_pending = ref false in
    let rogue_migrate () =
      let fired = ref false in
      for c = 0 to cores - 1 do
        if not !fired then
          match Kernel.current ~cpu:c k with
          | Some t
            when t.Kernel.state = Kernel.Ready
                 && Ready_queue.in_queue t
                 && not (Kernel.is_idle k t) ->
            Smp.unsafe_skip_guard := true;
            let moved = Smp.migrate k t ~cpu:((c + 1) mod cores) in
            Smp.unsafe_skip_guard := false;
            if moved then fired := true
          | _ -> ()
      done;
      !fired
    in
    let agitate step =
      if !sab_pending then begin
        if rogue_migrate () then sab_pending := false
      end
      else begin
        let r = mix seed (0x2000 + step) in
        let c = r mod cores in
        match (r lsr 8) mod 6 with
        | 0 -> Machine.stall_core m ~cpu:c ~cycles:(200 + ((r lsr 16) mod 2_000))
        | 1 -> ignore (Smp.steal k ~thief:c)
        | 2 ->
          Machine.post_interrupt ~source:"explorer" ~cpu:c m
            ~level:Mmio_map.timer_level ~vector:Mmio_map.timer_vector
        | 3 ->
          ignore (Smp.migrate k fillers.((r lsr 12) mod cores) ~cpu:c)
        | _ -> ()
      end
    in
    let check () =
      let v = ref [] in
      let violate fmt = Fmt.kstr (fun s -> v := s :: !v) fmt in
      if not (Ready_queue.verify k) then
        violate "ready ring verify failed (ring/mirror mismatch)";
      for c = 0 to cores - 1 do
        (match Kernel.current ~cpu:c k with
        | Some t ->
          if t.Kernel.state = Kernel.Zombie then
            violate "dead thread %d holds cpu %d" t.Kernel.tid c
          else if t.Kernel.cpu <> c then
            violate "cpu %d is running thread %d homed on cpu %d" c
              t.Kernel.tid t.Kernel.cpu
        | None -> ());
        match Kernel.idle_of k c with
        | Some i ->
          if i.Kernel.cpu <> c then
            violate "idle thread of cpu %d migrated to cpu %d" c i.Kernel.cpu
        | None -> violate "cpu %d lost its idle thread" c
      done;
      List.rev !v
    in
    {
      i_boot = b;
      i_goal = goal;
      i_budget = 12_000_000;
      i_stride_span = 256;
      i_fault_config =
        Some
          {
            (explorer_config ()) with
            Fault_inject.irq_cpus = List.init cores (fun c -> c);
            n_core_stalls = 2;
            core_stall_cpus = List.init cores (fun c -> c);
            core_stall_cycles = 10_000;
          };
      i_progress = consumed;
      i_agitate = Some agitate;
      i_check = check;
      i_final = (fun () -> check () @ queue_final ());
      i_sabotage = Some (fun () -> sab_pending := true);
    }
  in
  driven "smp" build

(* ---------------------------------------------------------------- *)
(* Subject 7: kserve — an accept/request/close storm over the NIC *)

(* A small kserve instance — 1 to 4 cores, one serve pump and NIC
   queue per core, so both the 3-queue and the power-of-two 4-queue
   steering are explored — under a seeded client storm while the fault
   plan posts spurious NIC interrupts (level-1 autovector; the stray
   handler must absorb them), stalls and drops the card's service
   tick, and skews core clocks on SMP boots.  A dropped tick parks the
   card until something re-kicks it, so the agitation hook doubles as
   the watchdog: it reschedules the "nic" machine device, the same
   recovery a driver's timeout path performs.

   Invariants, at every forced preemption: the load generator's
   double-entry ledger stays exactly-once (no response matches nothing
   in flight, no protocol errors — nothing in this mix may duplicate
   or corrupt a frame), received never exceeds sent, and the slot
   accounting closes (accepts − closes = slots in use ≤ table size).
   The final check adds completion: every session ended served or
   refused, none abandoned.

   Sabotage arms a one-shot duplicate against the card's next tx frame
   ([Machine.frame_fault]): the client sees the same response twice
   and the exactly-once ledger must catch the second copy. *)
let serve_subject =
  let build ~seed =
    let cores = 1 + (mix seed 0x5e7 mod 4) in
    let b = observed_boot ~cores () in
    let k = b.Boot.kernel in
    let m = k.Kernel.machine in
    Machine.set_schedule_seed m seed;
    let srv =
      Kserve.create
        ~config:
          {
            Kserve.default_config with
            Kserve.cfg_slots = 16;
            cfg_files = 4;
            (* every session is closed-loop (≤ 1 request in flight), so
               a ring wider than the client count can never overrun —
               which makes "no rx overruns" a checkable invariant even
               while fault stalls park the pump *)
            cfg_ring_len = 32;
          }
        b
    in
    let clients = 24 in
    let lg =
      Loadgen.create
        ~config:
          {
            Loadgen.default_config with
            Loadgen.lg_clients = clients;
            lg_reqs_per_session = 3;
            lg_rate_per_ms = 30.0;
            lg_seed = mix seed 0x10ad;
          }
        ~on_complete:(fun () -> Kserve.shutdown srv)
        srv
    in
    let progress () =
      Loadgen.completed lg + Loadgen.refused lg + Loadgen.abandoned lg
    in
    let agitate _step =
      (* watchdog re-kick: recovers the card from a dropped tick *)
      match Machine.find_device m "nic" with
      | Some d -> Machine.device_schedule m d (Machine.cycles m + 100)
      | None -> ()
    in
    let check () =
      let v = ref [] in
      let violate fmt = Fmt.kstr (fun s -> v := s :: !v) fmt in
      if Loadgen.duplicates lg > 0 then
        violate "ledger: %d responses matched nothing in flight"
          (Loadgen.duplicates lg);
      if Loadgen.errors lg > 0 then
        violate "ledger: %d protocol errors" (Loadgen.errors lg);
      if Loadgen.received lg > Loadgen.sent lg then
        violate "ledger: received %d > sent %d" (Loadgen.received lg)
          (Loadgen.sent lg);
      let st = Kserve.stats srv in
      let in_use = Kserve.open_slots srv in
      if st.Kserve.n_accepts - st.Kserve.n_closes <> in_use then
        violate "slots: accepts %d - closes %d <> %d in use"
          st.Kserve.n_accepts st.Kserve.n_closes in_use;
      if in_use > (Kserve.config srv).Kserve.cfg_slots then
        violate "slots: %d in use overflows the table" in_use;
      let nst = Devices.Nic.stats (Kserve.nic srv) in
      if nst.Devices.Nic.s_rx_overruns > 0 then
        violate "nic: %d rx overruns with a ring wider than the client count"
          nst.Devices.Nic.s_rx_overruns;
      List.rev !v
    in
    let final () =
      check ()
      @ (if Loadgen.abandoned lg > 0 then
           [ Fmt.str "%d sessions abandoned" (Loadgen.abandoned lg) ]
         else [])
      @
      if Loadgen.completed lg + Loadgen.refused lg <> clients then
        [
          Fmt.str "sessions unaccounted: %d served + %d refused of %d"
            (Loadgen.completed lg) (Loadgen.refused lg) clients;
        ]
      else []
    in
    {
      i_boot = b;
      i_goal = clients;
      i_budget = 30_000_000;
      i_stride_span = 256;
      i_fault_config =
        Some
          {
            (explorer_config ()) with
            Fault_inject.n_irqs = 4;
            irq_choices =
              [
                (Mmio_map.timer_level, Mmio_map.timer_vector);
                (Mmio_map.nic_level, Mmio_map.nic_vector);
              ];
            n_stalls = 2;
            n_drops = 2;
            stall_devices = [ "nic" ];
            n_core_stalls = (if cores > 1 then 2 else 0);
            core_stall_cpus = List.init cores (fun c -> c);
            core_stall_cycles = 10_000;
          };
      i_progress = progress;
      i_agitate = Some agitate;
      i_check = check;
      i_final = final;
      i_sabotage =
        Some (fun () -> Machine.frame_fault m ~device:"nic" ~dir:1 ~kind:1);
    }
  in
  driven "serve" build

(* ---------------------------------------------------------------- *)
(* kcrash: the crash-point explorer *)

(* Power-cut crash consistency of the disk file system, explored
   exhaustively.  One *recording* run executes a seeded workload on a
   journaling device (every write that reaches the platter is logged
   in commit order).  Because the disk server keeps exactly one
   request in flight, the legal completion subsets at a power cut are
   precisely the prefixes of that journal — including every reordering
   the elevator actually chose — plus a prefix-torn variant of the
   next write.  Each such crash state is then loaded into a fresh
   machine, rebooted through [Boot.at_boot] (so intent-log recovery
   runs as part of boot), and checked against the family's litmus
   predicate.  A final device-level cut ([Fault_inject.Power_cut] at a
   seeded cycle mid-workload) exercises the same states end to end
   through the powered-off device.

   Litmus families:
   - create-rename: write new content to a temp file, rename over the
     old — the renamed file must be exactly old or new, never
     zero-length, never garbage;
   - prefix-append: append twice — the old prefix stays intact and the
     length never runs ahead of the data (no garbage past the old
     size);
   - replace: overwrite a multi-block file with same-length different
     content — readers see exactly old or new, never a torn mix.

   Sabotage disables the family's load-bearing [Dfs.mechanisms]: with
   barriers off the first two families must fail (metadata outruns
   data still dirty in the cache); with the intent log off, replace
   must fail (in-place tearing).  With every mechanism on, the run
   must also show the enumerator did its job: a torn variant
   explored, the live cut fired, the intent log replayed. *)

type crash_family = Create_rename | Prefix_append | Replace

let crash_families = [ Create_rename; Prefix_append; Replace ]

let crash_family_name = function
  | Create_rename -> "create-rename"
  | Prefix_append -> "prefix-append"
  | Replace -> "replace"

let bwords = Disk_server.block_words

(* Nonzero seeded words, so fresh-run zeros and torn garbage can never
   masquerade as real content. *)
let crash_content seed salt n =
  Array.init n (fun i -> 1 + (mix seed (salt + i) land 0x3FFF))

type crash_workload = {
  w_files : (string * int array) list;
  w_caps : (string * int) list;
  w_ops : Dfs.t -> unit;
  w_check : Dfs.t -> string list;
  w_final_file : string; (* read from a thread in the final state *)
  w_final_content : int array;
}

let slice_eq c ~at expect =
  let bad = ref (-1) in
  Array.iteri
    (fun i v -> if !bad < 0 && c.(at + i) <> v then bad := at + i)
    expect;
  !bad

let crash_workload family ~seed =
  match family with
  | Create_rename ->
    let na = bwords + 1 + (mix seed 3 mod bwords) in
    let nb = bwords + 1 + (mix seed 5 mod bwords) in
    let a = crash_content seed 0x1000 na in
    let b = crash_content seed 0x2000 nb in
    {
      w_files = [ ("f", a) ];
      w_caps = [];
      w_ops =
        (fun dfs ->
          ignore
            (Dfs.create dfs "f.tmp" ~capacity_blocks:((nb + bwords - 1) / bwords));
          Dfs.append dfs "f.tmp" b;
          Dfs.rename dfs ~from_:"f.tmp" ~to_:"f";
          Dfs.sync dfs);
      w_check =
        (fun dfs ->
          match Dfs.read_file dfs "f" with
          | None -> [ "\"f\" unreadable after reboot" ]
          | Some c when Array.length c = 0 -> [ "renamed file has zero length" ]
          | Some c when c <> a && c <> b ->
            [ Fmt.str "\"f\" is neither old nor new (%d words)" (Array.length c) ]
          | Some _ -> []);
      w_final_file = "f";
      w_final_content = b;
    }
  | Prefix_append ->
    (* old length deliberately not block-aligned: the tail block is
       rewritten by the first append, the classic torn spot *)
    let na = bwords + 7 + (mix seed 3 mod (bwords / 2)) in
    let n1 = (bwords / 2) + (mix seed 5 mod bwords) in
    let n2 = (bwords / 2) + (mix seed 7 mod bwords) in
    let a = crash_content seed 0x1000 na in
    let b1 = crash_content seed 0x2000 n1 in
    let b2 = crash_content seed 0x3000 n2 in
    {
      w_files = [ ("log", a) ];
      w_caps = [ ("log", (na + n1 + n2 + bwords - 1) / bwords) ];
      w_ops =
        (fun dfs ->
          Dfs.append dfs "log" b1;
          Dfs.append dfs "log" b2;
          Dfs.sync dfs);
      w_check =
        (fun dfs ->
          match Dfs.find dfs "log" with
          | None -> [ "\"log\" missing after reboot" ]
          | Some f ->
            let l = f.Dfs.df_words in
            if l <> na && l <> na + n1 && l <> na + n1 + n2 then
              [ Fmt.str "impossible length %d (legal: %d/%d/%d)" l na (na + n1)
                  (na + n1 + n2) ]
            else (
              match Dfs.read_file dfs "log" with
              | None -> [ "\"log\" unreadable after reboot" ]
              | Some c ->
                let p = slice_eq c ~at:0 a in
                if p >= 0 then [ Fmt.str "old prefix damaged at word %d" p ]
                else
                  let p1 =
                    if l >= na + n1 then slice_eq c ~at:na b1 else -1
                  in
                  if p1 >= 0 then
                    [ Fmt.str "garbage past the old size at word %d" p1 ]
                  else
                    let p2 =
                      if l = na + n1 + n2 then slice_eq c ~at:(na + n1) b2
                      else -1
                    in
                    if p2 >= 0 then
                      [ Fmt.str "garbage past the old size at word %d" p2 ]
                    else []));
      w_final_file = "log";
      w_final_content = Array.concat [ a; b1; b2 ];
    }
  | Replace ->
    let n = (2 * bwords) + 37 + (mix seed 3 mod bwords) in
    let a = crash_content seed 0x1000 n in
    let b = crash_content seed 0x2000 n in
    {
      w_files = [ ("cfg", a) ];
      w_caps = [];
      w_ops =
        (fun dfs ->
          Dfs.replace dfs "cfg" b;
          Dfs.sync dfs);
      w_check =
        (fun dfs ->
          match Dfs.read_file dfs "cfg" with
          | None -> [ "\"cfg\" unreadable after reboot" ]
          | Some c when c <> a && c <> b ->
            [ "torn mix: \"cfg\" is neither old nor new" ]
          | Some _ -> []);
      w_final_file = "cfg";
      w_final_content = b;
    }

(* The recording run: format, mount, settle, then execute the workload
   on a journaling device.  Returns the pre-workload platter image,
   the commit-ordered write journal, and the cycles the workload took
   (the live-cut run aims its power cut inside that window). *)
let crash_record family ~seed ~mech =
  let w = crash_workload family ~seed in
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  Dfs.format k ~capacities:w.w_caps ~files:w.w_files ();
  let ds = Disk_server.install k () in
  Boot.park_on_idle k;
  let dfs = Dfs.mount ~mechanisms:mech ~budget:20_000_000 b.Boot.vfs ds in
  Dfs.sync dfs;
  let disk = k.Kernel.disk in
  let img0 = Devices.Disk.image disk in
  Devices.Disk.set_journaling disk true;
  let c0 = Machine.cycles k.Kernel.machine in
  w.w_ops dfs;
  let op_cycles = Machine.cycles k.Kernel.machine - c0 in
  (w, img0, Devices.Disk.journal disk, op_cycles)

(* Boot a fresh machine on a crash-state image; recovery and the mount
   run through [Boot.at_boot], then the litmus predicate examines the
   file system host-side.  [expect_read] additionally runs a user
   thread that opens the file through the vfs and streams it through
   the re-synthesized read path — proof that Ksynth rebuilds the fast
   path from its templates after a crash.  Returns (violations,
   intent-log replays). *)
let crash_reboot ~img ~check ?expect_read () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  Devices.Disk.load_image k.Kernel.disk img;
  let ds = Disk_server.install k () in
  let get = Dfs.mount_at_boot ~budget:20_000_000 b b.Boot.vfs ds in
  let reader =
    match expect_read with
    | None -> None
    | Some (name, content) ->
      let len = Array.length content in
      let region = Kalloc.alloc_zeroed k.Kernel.alloc (128 + len + bwords) in
      let count_cell = region + 32 in
      let buf = region + 64 in
      String.iteri
        (fun i c -> Machine.poke m (region + i) (Char.code c))
        ("/disk/" ^ name);
      let prog =
        [
          I.Move (I.Imm region, I.Reg I.r1);
          I.Trap 3;
          I.Move (I.Reg I.r0, I.Reg I.r13);
          I.Move (I.Imm 0, I.Reg I.r12);
          I.Label "loop";
          I.Move (I.Reg I.r13, I.Reg I.r1);
          I.Move (I.Imm buf, I.Reg I.r2);
          I.Alu (I.Add, I.Reg I.r12, I.r2);
          I.Move (I.Imm 128, I.Reg I.r3);
          I.Trap 1; (* blocks on cache misses, EOF returns 0 *)
          I.Tst (I.Reg I.r0);
          I.B (I.Eq, I.To_label "done");
          I.Alu (I.Add, I.Reg I.r0, I.r12);
          I.B (I.Always, I.To_label "loop");
          I.Label "done";
          I.Move (I.Reg I.r12, I.Abs count_cell);
          I.Trap 0;
        ]
      in
      let entry, _ = Asm.assemble m prog in
      ignore
        (Thread.create k ~entry ~segments:[ (region, 128 + len + bwords) ] ());
      Some (count_cell, buf, content)
  in
  let viol = ref [] in
  (try
     match Boot.go ~max_insns:400_000_000 b with
     | Machine.Halted -> ()
     | Machine.Insn_limit -> viol := [ "reboot did not settle" ]
   with Failure msg -> viol := [ "mount: " ^ msg ]);
  (* [go] leaves the machine halted; un-halt so the host-side litmus
     reads can take completion interrupts through the idle thread *)
  Machine.set_halted m false;
  let replays = Metrics.read k.Kernel.metrics "dfs.replays" in
  (match get () with
  | None -> if !viol = [] then viol := [ "mount never ran at boot" ]
  | Some dfs ->
    viol := !viol @ check dfs;
    (match reader with
    | None -> ()
    | Some (count_cell, buf, content) ->
      let n = Machine.peek m count_cell in
      if n <> Array.length content then
        viol :=
          !viol
          @ [
              Fmt.str "synthesized read returned %d of %d words" n
                (Array.length content);
            ]
      else
        let bad = ref (-1) in
        for i = Array.length content - 1 downto 0 do
          if Machine.peek m (buf + i) <> content.(i) then bad := i
        done;
        if !bad >= 0 then
          viol :=
            !viol
            @ [ Fmt.str "synthesized read data mismatch at word %d" !bad ]));
  (!viol, replays)

(* Enumerate crash states: every journal prefix, plus one seeded
   prefix-torn variant of each next write.  [(tag, image, torn,
   final)]; the final full-journal state carries the thread-read
   check. *)
let crash_states img0 journal ~seed =
  let arr = Array.of_list journal in
  let len = Array.length arr in
  let base i =
    let img = Array.map Array.copy img0 in
    for j = 0 to i - 1 do
      let blk, data = arr.(j) in
      img.(blk) <- Array.copy data
    done;
    img
  in
  let cuts =
    List.init (len + 1) (fun i ->
        (Fmt.str "cut@%d" i, base i, false, i = len))
  in
  let torn =
    List.init len (fun i ->
        let blk, data = arr.(i) in
        let img = base i in
        let tw = 1 + (mix seed (0x700 + i) mod (bwords - 1)) in
        let cur = img.(blk) in
        img.(blk) <-
          Array.init bwords (fun j -> if j < tw then data.(j) else cur.(j));
        (Fmt.str "cut@%d+torn%d" i tw, img, true, false))
  in
  cuts @ torn

(* The device-level run: same workload, but a [Power_cut] fault fires
   at a seeded cycle inside the workload window — in-flight request
   partitioned into platter/lost by the device itself, then reboot and
   litmus as above. *)
let crash_live_cut family ~seed ~mech ~op_cycles =
  let w = crash_workload family ~seed in
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  Dfs.format k ~capacities:w.w_caps ~files:w.w_files ();
  let ds = Disk_server.install k () in
  Boot.park_on_idle k;
  (* a short budget: once the device is dead, synchronous waits must
     give up quickly instead of spinning out the full default *)
  let dfs = Dfs.mount ~mechanisms:mech ~budget:3_000_000 b.Boot.vfs ds in
  Dfs.sync dfs;
  let cut_after = 1 + (mix seed 17 mod max 1 op_cycles) in
  let torn_words = (mix seed 23 mod (bwords + 2)) - 1 in
  let fi =
    Fault_inject.arm m
      (Fault_inject.make_plan ~seed
         [
           {
             Fault_inject.ev_after = cut_after;
             ev_action = Fault_inject.Power_cut { device = "disk"; torn_words };
           };
         ])
  in
  (try w.w_ops dfs with Failure _ | Invalid_argument _ -> ());
  Fault_inject.disarm m fi;
  let fired = not (Devices.Disk.powered k.Kernel.disk) in
  (w, Devices.Disk.image k.Kernel.disk, fired)

let explore_crashes family ~seed ~sabotage =
  let name = crash_family_name family in
  let mechanisms =
    match (sabotage, family) with
    | false, _ -> Dfs.all_mechanisms
    | true, Replace -> { Dfs.m_barriers = true; m_journal = false }
    | true, (Create_rename | Prefix_append) ->
      { Dfs.m_barriers = false; m_journal = true }
  in
  let w, img0, journal, op_cycles = crash_record family ~seed ~mech:mechanisms in
  let hash = ref (mix seed 0xC4A5) in
  let fold v = hash := mix !hash (v land max_int) in
  fold (List.length journal);
  List.iter
    (fun (blk, data) ->
      fold blk;
      fold data.(0);
      fold data.(bwords - 1))
    journal;
  let nviol = ref 0 in
  let violations = ref [] in
  let add tag vs =
    List.iter
      (fun v ->
        incr nviol;
        if !nviol <= 16 then violations := Fmt.str "%s: %s" tag v :: !violations)
      vs
  in
  let states = crash_states img0 journal ~seed in
  let explored = ref 0 in
  let torn = ref 0 in
  let replays = ref 0 in
  List.iter
    (fun (tag, img, is_torn, is_final) ->
      (* a mechanism-disabled run only needs the existence of a
         violating state; cap the reboots once the verdict is in *)
      if !nviol < 5 then begin
        incr explored;
        if is_torn then incr torn;
        let expect_read =
          if is_final then Some (w.w_final_file, w.w_final_content) else None
        in
        let vs, rp = crash_reboot ~img ~check:w.w_check ?expect_read () in
        replays := !replays + rp;
        add tag vs;
        fold (Hashtbl.hash tag);
        fold (List.length vs);
        fold rp
      end)
    states;
  let live_fired =
    if !nviol < 5 then begin
      let w2, limg, fired =
        crash_live_cut family ~seed ~mech:mechanisms ~op_cycles
      in
      incr explored;
      let vs, rp = crash_reboot ~img:limg ~check:w2.w_check () in
      replays := !replays + rp;
      add "live-cut" vs;
      fold (List.length vs);
      fold (Bool.to_int fired);
      fired
    end
    else false
  in
  (* enumerator health: a clean verdict means nothing if the run never
     reached the states that could have failed it *)
  if not sabotage then
    add "health"
      ((if !torn = 0 then [ "no torn variant explored" ] else [])
      @ (if not live_fired then [ "the live power cut never fired" ] else [])
      @ if !replays = 0 then [ "the intent log never replayed" ] else []);
  let violations = List.rev !violations in
  let report =
    if violations = [] then None
    else
      Some
        (Fmt.str
           "kcrash litmus failure@.family: %s@.seed: %d@.mechanisms: \
            barriers=%b journal=%b@.journal (%d platter writes, commit \
            order): %s@.states explored: %d (%d torn)@.violations:@.%s@."
           name seed mechanisms.Dfs.m_barriers mechanisms.Dfs.m_journal
           (List.length journal)
           (String.concat " "
              (List.map (fun (blk, _) -> string_of_int blk) journal))
           !explored !torn
           (String.concat "\n" (List.map (fun v -> "  " ^ v) violations)))
  in
  {
    s_subject = "crash/" ^ name;
    s_seed = seed;
    s_stride = 0;
    s_preemptions = 0;
    s_injected = !torn + Bool.to_int live_fired;
    s_progress = !explored;
    s_goal = List.length states + 1;
    s_violations = violations;
    s_insns = 0;
    s_cycles = 0;
    s_trace_hash = !hash;
    s_postmortem = report;
    s_blackbox_json = None;
  }

let crash_subject family =
  {
    sub_name = "crash/" ^ crash_family_name family;
    sub_run =
      (fun ~seed ~faults:_ ~sabotage -> explore_crashes family ~seed ~sabotage);
  }

let subjects =
  List.map queue_subject [ Kqueue.Spsc; Kqueue.Mpsc; Kqueue.Spmc; Kqueue.Mpmc ]
  @ [
      ready_queue_subject;
      kpipe_subject;
      disk_subject;
      codeflip_subject;
      synthcache_subject;
      smp_subject ();
      serve_subject;
    ]
  @ List.map crash_subject crash_families

(* ---------------------------------------------------------------- *)
(* Targeted recovery scenarios *)

type timer_loss_result = {
  tl_seed : int;
  tl_drop_cycle : int; (* when the quantum-timer completion was lost *)
  tl_stall_cycles : int; (* flow outage observed around the drop *)
  tl_recovery_cycles : int; (* drop -> first consumed item after it *)
  tl_restarts : int; (* watchdog restart actions taken *)
  tl_consumed : int;
}

(* Lose a quantum-timer completion under spinning (non-yielding)
   producer/consumer threads: the running thread then owns the CPU
   forever — the classic lost-interrupt livelock.  The flow-rate
   watchdog notices the consumer's counter flat-lining and re-arms the
   timer, and the stale-deadline check in [Devices.Timer.arm] lets the
   re-arm through.  Returns the measured recovery latency. *)
let timer_loss ?(seed = 1) () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let q = Kqueue.create ~kind:Kqueue.Mpsc k ~name:"tl/q" ~size:8 in
  let alloc = k.Kernel.alloc in
  let counts = Kalloc.alloc_zeroed alloc 4 in
  let segments =
    [ (q.Kqueue.q_desc, 16); (q.Kqueue.q_buf, 8); (q.Kqueue.q_flag, 8);
      (counts, 4) ]
  in
  (* endless producer: seq wraps at 16 bits, tag 1 *)
  let prod =
    [
      I.Move (I.Imm 0, I.Reg I.r8);
      I.Label "loop";
      I.Move (I.Imm (1 lsl 16), I.Reg I.r1);
      I.Alu (I.Add, I.Reg I.r8, I.r1);
      I.Label "again";
      I.Jsr (I.To_addr q.Kqueue.q_put);
      I.Tst (I.Reg I.r0);
      I.B (I.Eq, I.To_label "again");
      I.Alu (I.Add, I.Imm 1, I.r8);
      I.Alu (I.And, I.Imm 0xFFFF, I.r8);
      I.B (I.Always, I.To_label "loop");
    ]
  in
  let cons =
    [
      I.Label "loop";
      I.Jsr (I.To_addr q.Kqueue.q_get);
      I.Tst (I.Reg I.r0);
      I.B (I.Eq, I.To_label "loop");
      I.Alu_mem (I.Add, I.Imm 1, I.Abs counts);
      I.B (I.Always, I.To_label "loop");
    ]
  in
  let pe, _ = Asm.assemble m prod in
  let ce, _ = Asm.assemble m cons in
  ignore (Thread.create k ~entry:pe ~quantum_us:500 ~segments ());
  ignore (Thread.create k ~entry:ce ~quantum_us:500 ~segments ());
  let wd = Watchdog.install k ~period_us:2_000.0 () in
  let flow =
    Watchdog.watch wd ~name:"tl/consumer"
      ~read:(fun () -> Machine.peek m counts)
      ~restart:(fun () -> Devices.Timer.arm k.Kernel.timer ~us:200.0)
      ()
  in
  Boot.enter_scheduler k;
  (* drop the timer completion somewhere inside steady-state flow *)
  let drop_after = 30_000 + (mix seed 11 mod 20_000) in
  let fi =
    Fault_inject.arm m
      (Fault_inject.make_plan ~seed
         [
           {
             Fault_inject.ev_after = drop_after;
             ev_action = Fault_inject.Drop_completion { device = "timer" };
           };
         ])
  in
  let arm_cycle = Machine.cycles m in
  let budget = 8_000_000 in
  let last_count = ref 0 in
  let last_change_cycle = ref arm_cycle in
  let drop_cycle = arm_cycle + drop_after in
  let recovery = ref 0 in
  let stall = ref 0 in
  let rec loop n =
    if n > budget then ()
    else begin
      let c = Machine.peek m counts in
      if c <> !last_count then begin
        let now = Machine.cycles m in
        if now > drop_cycle && !recovery = 0 then begin
          recovery := now - drop_cycle;
          stall := now - !last_change_cycle
        end;
        last_count := c;
        last_change_cycle := now
      end;
      if !recovery = 0 then begin
        Machine.step m;
        loop (n + 1)
      end
    end
  in
  loop 0;
  Fault_inject.disarm m fi;
  Watchdog.stop wd;
  {
    tl_seed = seed;
    tl_drop_cycle = drop_cycle;
    tl_stall_cycles = !stall;
    tl_recovery_cycles = !recovery;
    tl_restarts = Watchdog.restarts flow;
    tl_consumed = Machine.peek m counts;
  }

type disk_fault_mode = Disk_stall | Disk_drop | Disk_bad_block

type disk_fault_result = {
  df_mode : disk_fault_mode;
  df_completed : bool; (* the read finally returned data *)
  df_tries : int; (* issues of the request (1 = no retry) *)
  df_timeouts : int;
  df_retries : int;
  df_failed : int;
  df_recovery_cycles : int; (* first issue -> completion, when retried *)
}

(* Stall, drop, or permanently fail a disk completion and watch the
   disk server's bounded-retry watchdog recover (or give up with
   status 2 instead of wedging the waiter forever). *)
let disk_fault ?(seed = 1) ~mode () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let ds = Disk_server.install k ~timeout_us:4_000.0 ~max_tries:4 () in
  Devices.Disk.write_block k.Kernel.disk 7
    (Array.init Devices.Disk.block_words (fun i -> 7_000 + i));
  Boot.park_on_idle k;
  let block = match mode with Disk_bad_block -> 1 lsl 20 | _ -> 7 in
  let fi =
    match mode with
    | Disk_bad_block -> None (* the device itself errors: status 3 *)
    | Disk_stall ->
      (* push the completion past the watchdog timeout *)
      Some
        (Fault_inject.arm m
           (Fault_inject.make_plan ~seed
              [
                {
                  Fault_inject.ev_after = 10_000 + (mix seed 13 mod 10_000);
                  ev_action =
                    Fault_inject.Stall
                      { device = "disk"; delay_cycles = 600_000 };
                };
              ]))
    | Disk_drop ->
      Some
        (Fault_inject.arm m
           (Fault_inject.make_plan ~seed
              [
                {
                  Fault_inject.ev_after = 10_000 + (mix seed 13 mod 10_000);
                  ev_action = Fault_inject.Drop_completion { device = "disk" };
                };
              ]))
  in
  let r = Disk_server.read_block_sync ds block ~max_insns:20_000_000 in
  (match fi with Some f -> Fault_inject.disarm m f | None -> ());
  {
    df_mode = mode;
    df_completed = r <> None;
    df_tries = Disk_server.active_tries ds;
    df_timeouts = Metrics.read k.Kernel.metrics "disk.timeouts";
    df_retries = Metrics.read k.Kernel.metrics "disk.retries";
    df_failed = Metrics.read k.Kernel.metrics "disk.failed";
    df_recovery_cycles = Disk_server.last_recovery_cycles ds;
  }
