(* The Synthesis kernel instance.

   Holds the simulated machine, its devices, the kernel allocator, the
   thread table, and the table of synthesized pages.  The running
   thread is identified by the [Layout.cur_tte_cell] kernel global,
   which every thread's synthesized context-switch-in code keeps
   current — the host-side structures mirror what the code in the
   machine does, they never drive it. *)

open Quamachine

type thread_state = Ready | Blocked | Stopped | Zombie

(* Host-side probes: a template marks zero-width probe points
   ([Insn.Probe name]) and the site that synthesizes it binds each name
   to an action, recorded with the code and hung on the machine's
   probe table for whichever layers are attached, now or later. *)
type probe_action =
  | Trace of (Machine.t -> Ktrace.kind)
  | Span of (Kspan.t -> Machine.t -> unit)

type probe = string * probe_action

(* One synthesized page: the unit the synthesis cache hands out and
   the unit kheal audits and rebuilds.  Instantiations with the same
   key share the page (read-only by convention), refcounted by live
   handles.  Patching a shared page forks a private copy
   ([sp_cached = false]); patching a sole-owner cached page detaches
   it from the cache in place.

   The template is a generator closed over the exact invariants
   synthesis folded into the code, so it alone makes kernel code
   *data the kernel can rebuild*: a corrupted page is detected by
   checksum (or by a faulting PC inside it) and resynthesized in
   place.  [sp_patches] records every legitimate post-synthesis patch
   (the ready queue's jmp targets, the scheduler's quantum
   immediates) so repair restores the *live* values, not the template
   defaults, and the checksum always describes the currently-accepted
   content.  [sp_mutable] names the slots whose content encodes
   scheduling state rather than template content — cross-kernel code
   comparison (the explorer's steady-state hash) skips them.
   [sp_probes] are the page's bound probe points, as offsets from its
   entry. *)
type synth_page = {
  sp_key : string; (* cache key; stable across re-instantiations *)
  sp_name : string; (* name of the first instantiation *)
  sp_kind : string; (* arena kind (name prefix by default) *)
  sp_entry : int;
  sp_len : int;
  sp_body : Insn.insn list; (* the optimized body: a hit must match it *)
  sp_template : Template.t;
  sp_syms : (string * int) list;
  mutable sp_refs : int; (* live handles *)
  mutable sp_stamp : int; (* LRU clock at last use *)
  mutable sp_cached : bool; (* still reachable through the cache? *)
  sp_pinned : bool; (* boot-time install: never evicted or released *)
  mutable sp_patches : (int * Insn.insn) list;
  mutable sp_mutable : int list;
  mutable sp_checksum : int;
  mutable sp_probes : (int * probe) list;
}

type tte = {
  tid : int;
  base : int; (* data address of the 256-word TTE block *)
  map_id : int;
  mutable cpu : int; (* home core: whose ready ring, cells, timer *)
  mutable state : thread_state;
  mutable sw_out : int; (* code entries of the synthesized switch code *)
  mutable sw_in : int;
  mutable sw_in_mmu : int;
  mutable jmp_slot : int; (* patchable Jmp ending sw_out (ready queue) *)
  mutable quantum_slot : int; (* patchable Move #quantum in sw_in *)
  mutable uses_fp : bool;
  mutable quantum_us : int;
  mutable rq_next : tte option; (* host mirror of the executable ring *)
  mutable rq_prev : tte option;
  mutable waiting_on : string option;
  mutable owned_blocks : int list; (* kalloc blocks freed at destroy *)
  mutable owned_pages : int list; (* ksynth page entries released at destroy *)
  mutable is_system : bool; (* kernel service threads don't keep the machine alive *)
  (* enough of the creation parameters to rebuild the initial context
     after a crash (Thread.restart): original entry point and user
     stack extent *)
  mutable entry : int;
  mutable ustack : int; (* 512 words *)
}

(* A waiting queue for one resource (§4.1: each resource has its own
   waiting queue; there is no general blocked queue to traverse). *)
type waitq = {
  wq_name : string;
  mutable waiters : tte list;
  mutable wq_block_hcall : int; (* memoized host-call ids, -1 = none *)
  mutable wq_unblock_hcall : int;
}

let waitq ~name =
  { wq_name = name; waiters = []; wq_block_hcall = -1; wq_unblock_hcall = -1 }

(* One entry in the bounded fault log: when (simulated cycles), who,
   where, and why.  [f_tid] is 0 for faults not attributable to a
   thread (e.g. a machine double fault); [f_cpu] is the core the fault
   was recorded on. *)
type fault_entry = { f_cycle : int; f_tid : int; f_cpu : int; f_reason : string }

type t = {
  machine : Machine.t;
  alloc : Kalloc.t;
  timer : Devices.Timer.t; (* core 0's quantum timer *)
  (* SMP: one private quantum timer per core ([timers.(0) == timer]);
     each posts its interrupt to its own core only *)
  timers : Devices.Timer.t array;
  alarm : Devices.Timer.t;
  tty : Devices.Tty.t;
  disk : Devices.Disk.t;
  ad : Devices.Ad.t;
  da : Devices.Da.t;
  threads : (int, tte) Hashtbl.t;
  by_base : (int, tte) Hashtbl.t;
  mutable next_tid : int;
  (* per-core executable ready rings: [rq_anchors.(c)] is core [c]'s
     anchor thread (None = empty ring) *)
  rq_anchors : tte option array;
  (* every live synthesized page, newest first: the registry of
     synthesized code and kheal's audit order *)
  mutable synth_pages : synth_page list;
  mutable synthesized_insns : int;
  (* cost of running the synthesizer: template setup + per emitted
     instruction (factorization + peephole + store).  Calibrated so
     that open(/dev/null) spends ~40% of its time generating code
     (§6.3). *)
  codegen_cycles_fixed : int;
  codegen_cycles_per_insn : int;
  (* default vector table copied into each new thread's TTE *)
  default_vectors : int array;
  (* shared kernel entry points by name *)
  shared : (string, int) Hashtbl.t;
  (* ksynth: the synthesis cache.  [synth_cache] maps keys to cached
     pages; [page_index] covers every code address of every live page
     (the O(1) page lookup behind [find_region] and [patch_code]);
     [synth_arenas] are the per-kind code allocators; [synth_caps] the
     optional per-kind word budgets that trigger LRU eviction;
     [evicted_keys] the keys of forgotten pages, so a later miss on
     one counts as resynthesis. *)
  synth_cache : (string, synth_page) Hashtbl.t;
  page_index : (int, synth_page) Hashtbl.t;
  synth_arenas : (string, Kalloc.arena) Hashtbl.t;
  synth_caps : (string, int) Hashtbl.t;
  evicted_keys : (string, unit) Hashtbl.t;
  mutable synth_clock : int;
  (* recycled pipe carcasses: (cap, desc, buf, readers, writers).
     Reusing the cells and wait queues keeps a reopened pipe's
     synthesized code byte-identical, which is what lets the cache
     hit (fresh wait queues would mint fresh host-call ids). *)
  mutable pipe_carcasses : (int * int * int * waitq * waitq) list;
  (* per-core idle threads ([idle_threads.(0)] is the boot idle) *)
  idle_threads : tte option array;
  (* threads with a cross-core signal awaiting their home core's
     signal IPI (drained by the boot-installed IPI handler) *)
  mutable sig_xc : tte list;
  (* error traps and kernel-detected failures, newest first, bounded
     at [fault_log_cap] (oldest entries drop; [fault_dropped] counts
     them, and "kernel.faults_total" in [metrics] never loses any) *)
  mutable fault_log : fault_entry list;
  mutable fault_log_len : int;
  mutable fault_dropped : int;
  (* kernel-wide counter/gauge registry (faults, disk retries,
     watchdog restarts...) *)
  metrics : Metrics.t;
  (* observability: None = tracing never attached, zero overhead *)
  mutable ktrace : Ktrace.t option;
  (* crash recovery: installed by Boot (the implementation lives in
     Thread, which this module cannot reference) *)
  mutable restart_hook : (tte -> unit) option;
  (* observability: request-scoped spans; None = never attached *)
  mutable kspan : Kspan.t option;
  (* most recent flight-recorder dump (see [postmortem]) *)
  mutable last_postmortem : string option;
}

(* The fault log keeps the most recent entries only: a wedged machine
   retrying forever must not grow an unbounded list. *)
let fault_log_cap = 64

(* ------------------------------------------------------------------ *)
(* Cores *)

let cores k = Array.length k.rq_anchors
let timer_for k c = k.timers.(c)
let anchor k c = k.rq_anchors.(c)
let set_anchor k c v = k.rq_anchors.(c) <- v
let idle_of k c = k.idle_threads.(c)
let set_idle k c t = k.idle_threads.(c) <- Some t

let is_idle k t =
  Array.exists (function Some i -> i == t | None -> false) k.idle_threads

(* The core the caller is executing on — home of the ready ring and
   quantum timer that host services should act on by default. *)
let this_cpu k = Machine.current_core k.machine

let create ?(cost = Cost.sun3_emulation) ?(cores = 1) () =
  let machine = Machine.create ~cores cost in
  Devices.Rtc.install machine;
  Devices.Cpu_control.install machine;
  let timer = Devices.Timer.install machine in
  (* Each core gets a private quantum timer posting to itself; core 0
     keeps the historical register and device name, so a one-core
     kernel builds an identical machine. *)
  let timers =
    Array.init cores (fun c ->
        if c = 0 then timer
        else
          Devices.Timer.install
            ~name:(Printf.sprintf "timer%d" c)
            ~addr:(Mmio_map.timer_alarm_for c) ~cpu:c machine)
  in
  (* The per-core register window: shared kernel paths read/write the
     *executing* core's current-thread cells through these, at the
     same one-reference cost as touching the cell directly. *)
  let percpu_window cell_for addr =
    Machine.map_mmio_read machine ~addr (fun () ->
        Machine.peek machine (cell_for (Machine.current_core machine)));
    Machine.map_mmio_write machine ~addr (fun v ->
        Machine.poke machine (cell_for (Machine.current_core machine)) v)
  in
  percpu_window Layout.cur_sw_out_cell_for Mmio_map.cur_sw_out;
  percpu_window Layout.cur_tte_cell_for Mmio_map.cur_tte;
  percpu_window Layout.cur_tid_cell_for Mmio_map.cur_tid;
  percpu_window Layout.chain_scratch_cell_for Mmio_map.chain_scratch;
  let alarm =
    Devices.Timer.install ~name:"alarm" ~addr:Mmio_map.alarm_set
      ~level:Mmio_map.alarm_level ~vector:Mmio_map.alarm_vector machine
  in
  let tty = Devices.Tty.install machine in
  let disk = Devices.Disk.install machine in
  let ad = Devices.Ad.install machine in
  let da = Devices.Da.install machine in
  let alloc = Kalloc.create machine ~base:Layout.heap_base ~limit:Layout.heap_limit in
  (* reserve code address 0 so that a zero vector means "unset" *)
  let guard = Machine.append_code machine [ Insn.Halt ] in
  assert (guard = 0);
  {
    machine;
    alloc;
    timer;
    timers;
    alarm;
    tty;
    disk;
    ad;
    da;
    threads = Hashtbl.create 32;
    by_base = Hashtbl.create 32;
    next_tid = 1;
    rq_anchors = Array.make cores None;
    synth_pages = [];
    synthesized_insns = 0;
    codegen_cycles_fixed = 120;
    codegen_cycles_per_insn = 5;
    default_vectors = Array.make Insn.Vector.table_size 0;
    shared = Hashtbl.create 32;
    synth_cache = Hashtbl.create 64;
    (* one entry per synthesized code word: sized for a booted
       multi-core kernel with its servers, so building one does not
       rehash the table on the way *)
    page_index = Hashtbl.create 4096;
    synth_arenas = Hashtbl.create 8;
    synth_caps = Hashtbl.create 8;
    evicted_keys = Hashtbl.create 32;
    synth_clock = 0;
    pipe_carcasses = [];
    idle_threads = Array.make cores None;
    sig_xc = [];
    fault_log = [];
    fault_log_len = 0;
    fault_dropped = 0;
    metrics = Metrics.create ();
    ktrace = None;
    restart_hook = None;
    kspan = None;
    last_postmortem = None;
  }

(* ------------------------------------------------------------------ *)
(* Tracing *)

(* Emit an event if tracing is attached; free otherwise. *)
let trace k kind = match k.ktrace with Some tr -> Ktrace.emit tr kind | None -> ()

(* ------------------------------------------------------------------ *)
(* Spans *)

(* Run [f] on the span layer if one is attached; free otherwise. *)
let span k f = match k.kspan with Some sp -> f sp | None -> ()

(* ------------------------------------------------------------------ *)
(* Probes *)

(* Replace a page's probe points and rearm its range for the layers
   attached now.  A disabled trace still feeds its black box. *)
let set_region_probes k p points =
  Machine.clear_probes k.machine ~entry:p.sp_entry ~len:p.sp_len;
  p.sp_probes <- points;
  List.iter
    (fun (off, (_, act)) ->
      Option.iter
        (Machine.add_probe k.machine (p.sp_entry + off))
        (match act with
        | Trace f -> Option.map (fun tr m -> Ktrace.emit tr (f m)) k.ktrace
        | Span f -> Option.map (fun sp -> f sp) k.kspan))
    points

(* Rearm every recorded probe point: the attached layers changed. *)
let rearm_probes k =
  List.iter (fun p -> set_region_probes k p p.sp_probes) k.synth_pages

(* ------------------------------------------------------------------ *)
(* Fault log *)

(* Record a fault: bounded structured log (newest first), the
   "kernel.faults_total" metrics counter, and a ktrace event when a
   trace is attached.  Host-side bookkeeping — charges nothing. *)
let log_fault k ~tid ~reason =
  Metrics.bump k.metrics "kernel.faults_total";
  trace k (Ktrace.Fault reason);
  if k.fault_log_len >= fault_log_cap then begin
    (* newest-first list: drop the oldest entry off the tail *)
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | e :: tl -> e :: take (n - 1) tl
    in
    k.fault_log <- take (fault_log_cap - 1) k.fault_log;
    k.fault_log_len <- fault_log_cap - 1;
    k.fault_dropped <- k.fault_dropped + 1
  end;
  k.fault_log <-
    {
      f_cycle = Machine.cycles k.machine;
      f_tid = tid;
      f_cpu = Machine.current_core k.machine;
      f_reason = reason;
    }
    :: k.fault_log;
  k.fault_log_len <- k.fault_log_len + 1

(* Attach a trace to this kernel: machine hooks, cycle attribution,
   and ownership and probes of everything synthesized so far.  Code
   synthesized from now on registers automatically. *)
let attach_tracing k tr =
  k.ktrace <- Some tr;
  Ktrace.install tr;
  List.iter
    (fun p ->
      ignore (Ktrace.register_owner tr ~name:p.sp_name ~entry:p.sp_entry ~len:p.sp_len))
    k.synth_pages;
  rearm_probes k

(* Attach the span layer.  Histograms land in the kernel-wide metrics
   registry; span events flow into the attached trace (and its black
   box) when there is one.  Probes bound earlier arm now. *)
let attach_spans k =
  let sp = Kspan.create ?trace:k.ktrace ~metrics:k.metrics k.machine in
  k.kspan <- Some sp;
  rearm_probes k;
  sp

(* ------------------------------------------------------------------ *)
(* The page table.

   Every synthesized page is recorded with its generator (a template,
   invariants bound) and a checksum of the installed instructions.
   Checksumming is host-side arithmetic over the code store — free in
   simulated cycles, the same discipline as the watchdog — while
   *repair* charges the normal code-generation cost, because it runs
   the synthesizer again.  [Ksynth] builds the records; these two
   functions are the only writers of the page list and its index. *)

let checksum_region m ~entry ~len =
  let h = ref 0x811C9DC5 in
  for a = entry to entry + len - 1 do
    h := ((!h * 16777619) lxor Hashtbl.hash (Machine.read_code m a)) land max_int
  done;
  !h

(* Record a page whose code was just installed: list, index,
   checksum, trace owner and probes. *)
let add_page k p =
  k.synth_pages <- p :: k.synth_pages;
  for a = p.sp_entry to p.sp_entry + p.sp_len - 1 do
    Hashtbl.replace k.page_index a p
  done;
  p.sp_checksum <- checksum_region k.machine ~entry:p.sp_entry ~len:p.sp_len;
  set_region_probes k p p.sp_probes;
  match k.ktrace with
  | Some tr ->
    ignore (Ktrace.register_owner tr ~name:p.sp_name ~entry:p.sp_entry ~len:p.sp_len);
    Ktrace.emit tr (Ktrace.Synthesized (p.sp_name, p.sp_len))
  | None -> ()

(* Forget a freed or evicted page: list, index and probes. *)
let drop_page k p =
  k.synth_pages <- List.filter (fun q -> q != p) k.synth_pages;
  for a = p.sp_entry to p.sp_entry + p.sp_len - 1 do
    Hashtbl.remove k.page_index a
  done;
  Machine.clear_probes k.machine ~entry:p.sp_entry ~len:p.sp_len

(* ------------------------------------------------------------------ *)
(* Threads *)

let thread k tid = Hashtbl.find_opt k.threads tid

(* The running thread, as recorded by synthesized sw_in code — by
   default on the executing core, or on an explicit [cpu]. *)
let current ?cpu k =
  let c = match cpu with Some c -> c | None -> this_cpu k in
  let base = Machine.peek k.machine (Layout.cur_tte_cell_for c) in
  Hashtbl.find_opt k.by_base base

let current_exn ?cpu k =
  match current ?cpu k with
  | Some t -> t
  | None -> failwith "Kernel.current: no thread is running"

(* Restart a crashed thread: rebuild its initial context and put it
   back at the front of the ready queue.  The implementation is
   [Thread.restart], installed as a hook at boot (Thread sits above
   this module in the dependency order). *)
let restart_thread k t =
  match k.restart_hook with
  | Some f -> f t
  | None -> invalid_arg "Kernel.restart_thread: no restart hook (kernel not booted)"

(* ------------------------------------------------------------------ *)
(* kheal: audit and repair-by-resynthesis.

   Detection has two channels: a checksum walk over the page list
   ([audit_code], run by the watchdog and by anyone host-side), and
   the faulting-PC test ([find_region], run by Boot's
   illegal-instruction path — a corrupted instruction no longer
   decodes, and the exception frame holds its address).  Repair reruns
   the synthesizer — instantiate the recorded template, optimize,
   resolve at the original entry — and patches the page in place,
   so every caller's absolute entry and every quaject op slot stays
   valid.  Live patches (the ready ring's jmp targets, quantum
   immediates) are reapplied over the template defaults. *)

let find_region k pc = Hashtbl.find_opt k.page_index pc

let find_region_by_name k name =
  List.find_opt (fun p -> p.sp_name = name) k.synth_pages

let region_dirty k p =
  checksum_region k.machine ~entry:p.sp_entry ~len:p.sp_len <> p.sp_checksum

let pages k = List.rev k.synth_pages

(* ------------------------------------------------------------------ *)
(* Flight recorder: assemble the crash black box into one readable
   dump — last events, open spans, fault log, kheal registry state,
   metrics.  Pure host-side formatting, callable from any failure path
   (double fault, failed repair, watchdog escalation, a harness
   invariant trip); the dump is also kept in [last_postmortem] so the
   harness and the CLI can retrieve it after the run. *)

let postmortem ?(reason = "unspecified") k =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let m = k.machine in
  Fmt.pf ppf "=== postmortem: %s ===@." reason;
  Fmt.pf ppf "cycle %d  insns %d  current tid %s@." (Machine.cycles m)
    (Machine.insns_executed m)
    (match current k with Some t -> string_of_int t.tid | None -> "-");
  (match k.kspan with
  | None -> ()
  | Some sp ->
    Fmt.pf ppf "@.open spans (%d in flight):@." (Kspan.open_count sp);
    Kspan.pp_open ppf sp);
  (match k.ktrace with
  | None -> Fmt.pf ppf "@.black box: no trace attached@."
  | Some tr ->
    let evs = Ktrace.blackbox_events tr in
    Fmt.pf ppf "@.black box (last %d events):@." (List.length evs);
    List.iter (fun e -> Fmt.pf ppf "  %a@." Ktrace.pp_event e) evs);
  Fmt.pf ppf "@.fault log (newest first%s):@."
    (if k.fault_dropped > 0 then Fmt.str ", %d dropped" k.fault_dropped else "");
  (match k.fault_log with
  | [] -> Fmt.pf ppf "  (empty)@."
  | log ->
    List.iteri
      (fun i e ->
        if i < 16 then
          Fmt.pf ppf "  cycle %-10d tid %-3d %s@." e.f_cycle e.f_tid e.f_reason)
      log);
  let dirty =
    List.filter_map
      (fun p -> if region_dirty k p then Some p.sp_name else None)
      k.synth_pages
  in
  Fmt.pf ppf "@.kheal: %d regions, %d dirty%s, %d repairs, %d insns synthesized@."
    (List.length k.synth_pages) (List.length dirty)
    (match dirty with [] -> "" | l -> " (" ^ String.concat ", " l ^ ")")
    (Metrics.read k.metrics "kernel.code_repairs_total")
    k.synthesized_insns;
  Fmt.pf ppf "@.metrics:@.%a" Metrics.pp k.metrics;
  Format.pp_print_flush ppf ();
  Metrics.bump k.metrics "kernel.postmortems_total";
  let s = Buffer.contents buf in
  k.last_postmortem <- Some s;
  s

let repair_region ?(origin = "audit") k r =
  let optimized = Peephole.optimize (Template.instantiate r.sp_template) in
  let n = Asm.length optimized in
  if n <> r.sp_len then begin
    (* unrepairable: the generator no longer reproduces the region —
       dump the black box before giving up *)
    let tid = match current k with Some t -> t.tid | None -> 0 in
    log_fault k ~tid ~reason:("repair_failed/" ^ r.sp_name);
    ignore (postmortem ~reason:("failed repair: " ^ r.sp_name) k);
    failwith ("Kernel.repair_region: resynthesis length drifted for " ^ r.sp_name)
  end;
  (* repair *is* synthesis: same charge as the original generation *)
  Machine.charge k.machine (k.codegen_cycles_fixed + (n * k.codegen_cycles_per_insn));
  let resolved, _ = Asm.resolve ~at:r.sp_entry optimized in
  List.iteri
    (fun i insn -> Machine.patch_code k.machine (r.sp_entry + i) insn)
    resolved;
  List.iter
    (fun (addr, insn) -> Machine.patch_code k.machine addr insn)
    r.sp_patches;
  set_region_probes k r r.sp_probes;
  r.sp_checksum <- checksum_region k.machine ~entry:r.sp_entry ~len:r.sp_len;
  Metrics.bump k.metrics "kernel.code_repairs_total";
  trace k (Ktrace.Synthesized (r.sp_name, n));
  let tid = match current k with Some t -> t.tid | None -> 0 in
  log_fault k ~tid ~reason:(Printf.sprintf "code_repair/%s/%s" origin r.sp_name)

let audit_code ?(origin = "audit") k =
  let repaired = ref 0 in
  List.iter
    (fun r ->
      if region_dirty k r then begin
        repair_region ~origin k r;
        incr repaired
      end)
    k.synth_pages;
  !repaired

let code_repairs_total k = Metrics.read k.metrics "kernel.code_repairs_total"

(* Route every legitimate post-synthesis patch through here: the
   owning page re-checksums (and remembers the patch for repair), so
   runtime patching and corruption detection coexist.  If the page
   is already corrupted, repair it first — a patch must never bless
   corrupted content into the checksum.

   ksynth: a page shared by several handles is read-only — callers
   must fork a private copy first ([Ksynth.patch] does).  A sole-owner
   cached page detaches in place: once patched its content no longer
   matches its cache key, so the cache must never hand it to a fresh
   instantiation. *)
let patch_code k addr insn =
  match find_region k addr with
  | None -> Machine.patch_code k.machine addr insn
  | Some p ->
    if p.sp_refs > 1 then
      invalid_arg
        (Printf.sprintf
           "Kernel.patch_code: page %s is shared by %d handles (copy-on-patch: fork first)"
           p.sp_name p.sp_refs);
    if p.sp_cached && not p.sp_pinned then begin
      p.sp_cached <- false;
      Hashtbl.remove k.synth_cache p.sp_key
    end;
    if region_dirty k p then repair_region ~origin:"patch" k p;
    Machine.patch_code k.machine addr insn;
    p.sp_patches <- (addr, insn) :: List.remove_assoc addr p.sp_patches;
    p.sp_checksum <- checksum_region k.machine ~entry:p.sp_entry ~len:p.sp_len

(* Slots whose content encodes scheduling state (jmp targets, quantum
   immediates): cross-kernel code comparison must skip them. *)
let region_mark_mutable k ~addr =
  match find_region k addr with
  | Some p -> if not (List.mem addr p.sp_mutable) then p.sp_mutable <- addr :: p.sp_mutable
  | None -> ()

(* Deterministic fingerprint of all regenerable code content,
   mutable slots excluded: two kernels that booted the same way agree
   on it, and a repaired kernel must converge back to it. *)
let code_state_hash k =
  List.fold_left
    (fun acc p ->
      let h = ref (Hashtbl.hash (p.sp_name, p.sp_entry, p.sp_len)) in
      for a = p.sp_entry to p.sp_entry + p.sp_len - 1 do
        if not (List.mem a p.sp_mutable) then
          h := ((!h * 16777619) lxor Hashtbl.hash (Machine.read_code k.machine a))
               land max_int
      done;
      ((acc * 131) lxor !h) land max_int)
    0x2545F491 (pages k)

(* ------------------------------------------------------------------ *)
(* Vector table helpers *)

let vector_addr tte idx = tte.base + Layout.Tte.off_vectors + idx

let set_vector k tte idx handler =
  Machine.poke k.machine (vector_addr tte idx) handler

(* Set a default vector and propagate to all existing threads (used
   when a device server comes up after threads were created). *)
let set_vector_all k idx handler =
  k.default_vectors.(idx) <- handler;
  Hashtbl.iter (fun _ tte -> set_vector k tte idx handler) k.threads

(* ------------------------------------------------------------------ *)
(* Synthesized-code accounting (kernel size report, §6.4) *)

let synthesized_insns k = k.synthesized_insns

let registry_report k =
  let by_prefix = Hashtbl.create 16 in
  List.iter
    (fun { sp_name = name; sp_len = n; _ } ->
      let prefix =
        match String.index_opt name '/' with
        | Some i -> String.sub name 0 i
        | None -> name
      in
      let cur = try Hashtbl.find by_prefix prefix with Not_found -> (0, 0) in
      Hashtbl.replace by_prefix prefix (fst cur + 1, snd cur + n))
    k.synth_pages;
  Hashtbl.fold (fun p (count, insns) acc -> (p, count, insns) :: acc) by_prefix []
  |> List.sort compare
