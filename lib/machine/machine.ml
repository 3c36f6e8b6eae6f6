(* The simulated Quamachine: CPU cores, shared memory, interrupts,
   devices, and the instruction/memory-reference/cycle counters that
   the paper's measurement chapter relies on (§6.1).

   Code and data are separate address spaces.  The code store is an
   append-only, patch-in-place array of instructions — run-time kernel
   code synthesis appends specialized routines and rewrites individual
   instructions (the `jmp` threading of the executable ready queue).
   The simulator factors its own invariants the same way: every write
   to a slot goes through [set_code], which compiles the instruction
   into a closure with its opcode, addressing modes and constants
   resolved (see [compile]), and [step] runs that closure.  The
   instruction itself stays in the store for [read_code] and audits.

   SMP model: [create ?cores] builds N cores stepping over the one
   shared memory and code store.  Each core keeps a local absolute
   cycle clock; [step] always runs the runnable core with the smallest
   clock (ties broken by a rotation seeded with [set_schedule_seed]),
   so the interleaving is deterministic, cores make
   progress in simulated-parallel time (N cores doing N units of work
   finish in ~1 unit of wall-clock cycles), and the global clock — the
   minimum over runnable cores — advances monotonically.  Devices fire
   against the global clock, once per deadline; interrupts are routed
   per level to a core and delivered from that core's private pending
   vector.  Cores interleave at instruction granularity, so every
   shared-memory access is a potential switch point and another core's
   committed [Cas] is a real contention source: the compare simply
   fails.  With one core the scheduler degenerates to today's machine
   — cycle counts, traces, and attribution are identical. *)

type fault =
  | Bus_error of int
  | Div_zero
  | Privilege
  | Illegal
  | Fp_unavailable

exception Cpu_fault of fault

(* Raised when every core is stopped waiting for an interrupt and no
   device will ever deliver one. *)
exception Deadlock

(* Raised on attempts to execute outside the code store, which means
   wild control flow: there is no vector for it, the simulation dies. *)
exception Wild_jump of int

(* Observability hooks (ktrace).  All callbacks run host-side and must
   not charge simulated cycles; when [hooks] is [None] the fast paths
   pay nothing beyond a mutable-field load. *)
type hooks = {
  h_post : source:string -> level:int -> vector:int -> unit;
      (* a device posted an interrupt *)
  h_irq : level:int -> vector:int -> unit; (* the CPU took the interrupt *)
  h_device : string -> unit; (* a device tick ran *)
  h_fault : fault -> unit; (* a CPU fault was raised *)
}

(* A device deadline is one-shot: [run_due_devices] idles the device
   just before its tick runs, and a device that wants another tick
   re-arms itself with [device_schedule]. *)
type device = {
  dev_name : string;
  mutable next_due : int; (* absolute cycle count; max_int when idle *)
  mutable dev_tick : t -> unit;
}

(* One core's private state: registers, status, pending interrupts,
   and its local clock/counters.  Everything else — memory, code,
   devices, MMIO, maps, hcalls — is machine-shared. *)
and cpu = {
  cid : int;
  regs : int array;
  fregs : float array;
  mutable pc : int;
  mutable other_sp : int; (* the inactive stack pointer (USP or SSP) *)
  mutable supervisor : bool;
  mutable trace_bit : bool;
  mutable ipl : int;
  mutable vbr : int;
  mutable cc_n : bool;
  mutable cc_z : bool;
  mutable cc_v : bool;
  mutable cc_c : bool;
  mutable fp_enabled : bool;
  mutable last_fault_addr : int;
  mutable cpu_map : int; (* -1: no user map installed *)
  (* the installed map's segments, resolved at install time so user
     data references skip the map table *)
  mutable cpu_segs : (int * int) list;
  (* pending interrupts: vector per level 1..7, -1 = none; bit [l] of
     [pending_mask] is set iff [pending.(l) >= 0] *)
  pending : int array;
  mutable pending_mask : int;
  mutable stopped : bool;
  (* has [start_core] ever woken this core?  Distinguishes a core that
     never booted from one merely stop-waiting for an interrupt (both
     have [stopped = true]).  Core 0 boots started. *)
  mutable started : bool;
  (* local absolute clock: cycles of work this core has performed or
     slept through *)
  mutable c_time : int;
  mutable c_insns : int;
  mutable c_refs : int;
  mutable c_irqs : int;
  mutable c_cas_lost : int; (* CAS that observed a changed word *)
}

(* A code slot: its instruction (for [read_code] and the audits) and
   the closure [set_code] compiled it to.  One array holds both: a
   separate closure array measurably slowed machine set-up
   (EXPERIMENTS, "Predecoded code slots"). *)
and slot = { insn : Insn.insn; run : t -> unit }

and t = {
  cost : Cost.t;
  ref_cycles : int; (* [Cost.mem_ref_cycles cost], off the step path *)
  mem : int array;
  mem_words : int;
  cpus : cpu array;
  mutable cur : cpu; (* the core host services act on *)
  (* core-interleaving schedule: rotating tie-break start (seeded) *)
  mutable sched_rr : int;
  (* code store *)
  mutable code : slot array;
  mutable code_cost : int array; (* [Cost.base] of each slot, [probe_bit] if probed *)
  mutable code_probe : (t -> unit) array; (* host-side probe of each slot *)
  mutable code_len : int;
  (* machine-wide counters; [cycles] is the global clock — the minimum
     over runnable cores' local clocks, monotone because the minimum
     core is always the one that steps *)
  mutable cycles : int;
  mutable insns : int;
  mutable refs : int;
  mutable irqs_taken : int;
  (* kperf PMU: timer-driven pc sampling.  Entirely host-side — with
     sampling off the step loop pays one integer compare, and even
     with it on the simulated cycle/instruction counts are untouched,
     so a PMU-disabled and a PMU-enabled run are bit-identical. *)
  mutable sample_period : int; (* cycles between pc samples; 0 = off *)
  mutable sample_next : int; (* local cycle count of the next sample *)
  mutable sample_mark : int; (* cycles already covered by earlier samples *)
  mutable sample_hook : pc:int -> weight:int -> unit;
  (* kfault: transient CAS-failure injection.  [cas_count] numbers the
     Cas instructions executed (across all cores); when it reaches
     [cas_fail_next] the store is suppressed and Z forced clear —
     indistinguishable from losing the race to another processor, so
     correct optimistic code must take its retry branch.  Host-side
     only: with no failure armed the Cas path pays one integer
     compare. *)
  mutable cas_count : int;
  mutable cas_fail_next : int; (* cas_count value to fail at; max_int = off *)
  mutable cas_fail_hook : t -> unit;
  (* a fault raised while entering a fault handler halts the machine *)
  mutable double_fault : bool;
  (* devices in registration order, [n_devices] live; ticks visit them
     newest first.  [next_device_due] is the minimum deadline over
     them, kept exact between [run_due_devices] passes. *)
  mutable devices : device array;
  mutable n_devices : int;
  mutable next_device_due : int;
  (* the running [run]'s cycle budget as a deadline on the global
     clock; max_int outside [run] *)
  mutable run_deadline : int;
  (* called whenever a stopped core becomes runnable *)
  mutable wake_hooks : (unit -> unit) list;
  (* power-cut hooks: device name -> cut handler.  The argument is the
     torn-word count for an in-flight write (-1 = the transfer is lost
     whole).  Registered by devices that model persistence (kcrash). *)
  mutable power_hooks : (string * (int -> unit)) list;
  (* frame-fault hooks: device name -> handler.  [dir] is 0 = rx,
     1 = tx; [kind] is 0 = drop, 1 = duplicate, 2 = reorder.
     Registered by devices that move frames (the NIC); the hook arms a
     one-shot fault against the next frame in that direction. *)
  mutable frame_hooks : (string * (dir:int -> kind:int -> unit)) list;
  (* memory-mapped I/O: address -> handlers *)
  mmio_read : (int, unit -> int) Hashtbl.t;
  mmio_write : (int, int -> unit) Hashtbl.t;
  (* address-space maps: map id -> list of (base, len) segments *)
  maps : (int, (int * int) list) Hashtbl.t;
  (* host service routines invoked by Hcall *)
  mutable hcalls : (t -> unit) array;
  mutable hcall_len : int;
  (* execution trace ring buffer (kernel monitor, §6.3); with several
     cores it records the global interleaving order *)
  trace_ring : int array;
  mutable trace_pos : int;
  mutable trace_count : int;
  mutable trace_on : bool;
  (* cycle attribution by owner: code address -> owner id, owner id ->
     accumulated cycles.  Owners 0..3 are reserved (unowned code, host
     services, idle time, interrupt delivery). *)
  mutable attr_on : bool;
  mutable attr_owner : int array;
  mutable attr_cycles : int array;
  mutable attr_mark : int; (* [cur]'s local cycles already attributed *)
  mutable hooks : hooks option;
  mutable halted : bool;
}

let mmio_base = 0xF0_0000
let max_cores = 8

(* The sign bit of a [code_cost] slot marks a probe: the step loop
   already loads the slot's cost, so the test is one compare. *)
let probe_bit = min_int

let no_probe (_ : t) = ()
let halt t = t.halted <- true
let halt_slot = { insn = Insn.Halt; run = halt }

(* [Word.mask], [Word.of_int] and [Word.is_negative], restated for the
   step loop: modules compiled separately (-opaque, dune's default
   profile) cannot inline each other, and these run several times per
   instruction. *)
let word_mask = 0xFFFF_FFFF
let word v = v land word_mask
let negative v = v land 0x8000_0000 <> 0

let make_cpu cid =
  {
    cid;
    regs = Array.make Insn.num_regs 0;
    fregs = Array.make Insn.num_fregs 0.0;
    pc = 0;
    other_sp = 0;
    supervisor = true;
    trace_bit = false;
    ipl = 7;
    vbr = 0;
    cc_n = false;
    cc_z = false;
    cc_v = false;
    cc_c = false;
    fp_enabled = true;
    last_fault_addr = 0;
    cpu_map = -1;
    cpu_segs = [];
    pending = Array.make 8 (-1);
    pending_mask = 0;
    (* secondary cores sleep until the kernel boots them *)
    stopped = cid > 0;
    started = cid = 0;
    c_time = 0;
    c_insns = 0;
    c_refs = 0;
    c_irqs = 0;
    c_cas_lost = 0;
  }

let create ?(mem_words = 1 lsl 20) ?(cores = 1) cost =
  if cores < 1 || cores > max_cores then invalid_arg "create: cores";
  let cpus = Array.init cores make_cpu in
  {
    cost;
    ref_cycles = Cost.mem_ref_cycles cost;
    mem = Array.make mem_words 0;
    mem_words;
    cpus;
    cur = cpus.(0);
    sched_rr = 0;
    code = Array.make 4096 halt_slot;
    code_cost = Array.make 4096 (Cost.base Insn.Halt);
    code_probe = Array.make 4096 no_probe;
    code_len = 0;
    cycles = 0;
    insns = 0;
    refs = 0;
    irqs_taken = 0;
    sample_period = 0;
    sample_next = max_int;
    sample_mark = 0;
    sample_hook = (fun ~pc:_ ~weight:_ -> ());
    cas_count = 0;
    cas_fail_next = max_int;
    cas_fail_hook = (fun _ -> ());
    double_fault = false;
    devices = [||];
    n_devices = 0;
    next_device_due = max_int;
    run_deadline = max_int;
    wake_hooks = [];
    power_hooks = [];
    frame_hooks = [];
    mmio_read = Hashtbl.create 16;
    mmio_write = Hashtbl.create 16;
    maps = Hashtbl.create 16;
    hcalls = Array.make 64 (fun _ -> ());
    hcall_len = 0;
    trace_ring = Array.make 4096 0;
    trace_pos = 0;
    trace_count = 0;
    trace_on = false;
    attr_on = false;
    attr_owner = [||];
    attr_cycles = [||];
    attr_mark = 0;
    hooks = None;
    halted = false;
  }

(* ------------------------------------------------------------------ *)
(* Cores *)

let num_cores t = Array.length t.cpus
let current_core t = t.cur.cid

(* ------------------------------------------------------------------ *)
(* Counters and time.

   [cycles]/[time_us] report the acting core's local clock: host
   services measure and schedule against the core they run on.  With
   one core this is exactly the old global clock. *)

let cycles t = t.cur.c_time
let insns_executed t = t.insns
let mem_refs t = t.refs
let irqs_taken t = t.irqs_taken
let time_us t = Cost.us_of_cycles t.cost t.cur.c_time
let charge t cy = t.cur.c_time <- t.cur.c_time + cy

let charge_refs t n =
  t.refs <- t.refs + n;
  t.cur.c_refs <- t.cur.c_refs + n;
  t.cur.c_time <- t.cur.c_time + (n * t.ref_cycles)

type stats = { s_cycles : int; s_insns : int; s_refs : int }

let snapshot t = { s_cycles = t.cur.c_time; s_insns = t.insns; s_refs = t.refs }

let delta t s =
  {
    s_cycles = t.cur.c_time - s.s_cycles;
    s_insns = t.insns - s.s_insns;
    s_refs = t.refs - s.s_refs;
  }

let stats_us t s = Cost.us_of_cycles t.cost s.s_cycles

(* Per-core counters *)

let core_cycles t i = t.cpus.(i).c_time
let core_insns t i = t.cpus.(i).c_insns
let core_refs t i = t.cpus.(i).c_refs
let core_irqs t i = t.cpus.(i).c_irqs
let core_cas_lost t i = t.cpus.(i).c_cas_lost
let core_stopped t i = t.cpus.(i).stopped
let core_started t i = t.cpus.(i).started
let core_pc t i = t.cpus.(i).pc

let max_core_cycles t =
  Array.fold_left (fun acc c -> max acc c.c_time) 0 t.cpus

(* ------------------------------------------------------------------ *)
(* Registers, flags, status register *)

let get_reg t r = t.cur.regs.(r)
let set_reg t r v = t.cur.regs.(r) <- word v
let get_freg t r = t.cur.fregs.(r)
let get_pc t = t.cur.pc
let set_pc t pc = t.cur.pc <- pc
let in_supervisor t = t.cur.supervisor

(* SR layout: C=bit0 V=1 Z=2 N=3, IPL=bits 8..10, S=bit 13, T=bit 15. *)
let pack_sr t =
  let c = t.cur in
  (if c.cc_c then 1 else 0)
  lor (if c.cc_v then 2 else 0)
  lor (if c.cc_z then 4 else 0)
  lor (if c.cc_n then 8 else 0)
  lor (c.ipl lsl 8)
  lor (if c.supervisor then 1 lsl 13 else 0)
  lor (if c.trace_bit then 1 lsl 15 else 0)

let switch_stacks t =
  let c = t.cur in
  let active = c.regs.(Insn.sp) in
  c.regs.(Insn.sp) <- c.other_sp;
  c.other_sp <- active

let unpack_sr t sr =
  let c = t.cur in
  c.cc_c <- sr land 1 <> 0;
  c.cc_v <- sr land 2 <> 0;
  c.cc_z <- sr land 4 <> 0;
  c.cc_n <- sr land 8 <> 0;
  c.ipl <- (sr lsr 8) land 7;
  let new_super = sr land (1 lsl 13) <> 0 in
  if new_super <> c.supervisor then (
    c.supervisor <- new_super;
    switch_stacks t);
  c.trace_bit <- sr land (1 lsl 15) <> 0

(* ------------------------------------------------------------------ *)
(* Memory *)

let rec segment_allows segs addr =
  match segs with
  | [] -> false
  | (base, len) :: rest ->
    (addr >= base && addr < base + len) || segment_allows rest addr

(* [read_mem]/[write_mem] inline into the compiled slots (see
   [compile]).  Their common case — a data word the acting core may
   touch — is a few compares, the charges and one array access; the
   MMIO window and every fault take an out-of-line path that runs the
   full [check_access]. *)
let bus_error c addr =
  c.last_fault_addr <- addr;
  raise (Cpu_fault (Bus_error addr))
[@@inline never]

let check_access t addr =
  let c = t.cur in
  if c.supervisor then (
    if addr < 0 || (addr >= t.mem_words && addr < mmio_base) then bus_error c addr)
  else begin
    if addr < 0 || addr >= t.mem_words then bus_error c addr;
    if c.cpu_map >= 0 && not (segment_allows c.cpu_segs addr) then bus_error c addr
  end
[@@inline]

(* The common access: inside data memory, and allowed there (in
   supervisor state, with no map installed, or inside the map). *)
let plain_access t c addr =
  addr >= 0 && addr < t.mem_words
  && (c.supervisor || c.cpu_map < 0 || segment_allows c.cpu_segs addr)
[@@inline]

let charge_ref t c =
  t.refs <- t.refs + 1;
  c.c_refs <- c.c_refs + 1;
  c.c_time <- c.c_time + t.ref_cycles
[@@inline]

let read_slow t c addr =
  check_access t addr;
  charge_ref t c;
  if addr < mmio_base then t.mem.(addr)
  else
    match Hashtbl.find_opt t.mmio_read addr with
    | Some f -> word (f ())
    | None -> bus_error c addr
[@@inline never]

let write_slow t c addr v =
  check_access t addr;
  charge_ref t c;
  if addr < mmio_base then t.mem.(addr) <- word v
  else
    match Hashtbl.find_opt t.mmio_write addr with
    | Some f -> f (word v)
    | None -> bus_error c addr
[@@inline never]

let read_mem t addr =
  let c = t.cur in
  if plain_access t c addr then begin
    charge_ref t c;
    (* [plain_access] bounds [addr] by [mem_words] *)
    Array.unsafe_get t.mem addr
  end
  else read_slow t c addr
[@@inline]

let write_mem t addr v =
  let c = t.cur in
  if plain_access t c addr then begin
    charge_ref t c;
    Array.unsafe_set t.mem addr (word v)
  end
  else write_slow t c addr v
[@@inline]

(* Host-side (uncharged, unchecked) memory access, for kernel services
   and tests; explicit [charge]/[charge_refs] accounts for their cost. *)
let peek t addr = t.mem.(addr)
let poke t addr v = t.mem.(addr) <- word v

let map_mmio_read t ~addr f = Hashtbl.replace t.mmio_read addr f
let map_mmio_write t ~addr f = Hashtbl.replace t.mmio_write addr f

let map_segments t ~id = try Hashtbl.find t.maps id with Not_found -> []

(* Install map [id] on core [c]; -1 (or any negative id) removes it. *)
let install_map t c id =
  c.cpu_map <- id;
  c.cpu_segs <- (if id >= 0 then map_segments t ~id else [])

let define_map t ~id segments =
  Hashtbl.replace t.maps id segments;
  Array.iter (fun c -> if c.cpu_map = id then c.cpu_segs <- segments) t.cpus

let set_map t id = install_map t t.cur id

(* ------------------------------------------------------------------ *)
(* Host-side probes *)

let add_probe t addr f =
  if addr < 0 || addr >= t.code_len then invalid_arg "add_probe: out of range";
  let g = t.code_probe.(addr) in
  t.code_probe.(addr) <- (if t.code_cost.(addr) < 0 then fun m -> g m; f m else f);
  t.code_cost.(addr) <- t.code_cost.(addr) lor probe_bit

let clear_probes t ~entry ~len =
  for a = max 0 entry to min t.code_len (entry + len) - 1 do
    t.code_probe.(a) <- no_probe;
    t.code_cost.(a) <- t.code_cost.(a) land max_int
  done

(* ------------------------------------------------------------------ *)
(* Host calls *)

let register_hcall t f =
  if t.hcall_len = Array.length t.hcalls then begin
    let hcalls = Array.make (2 * t.hcall_len) (fun _ -> ()) in
    Array.blit t.hcalls 0 hcalls 0 t.hcall_len;
    t.hcalls <- hcalls
  end;
  let id = t.hcall_len in
  t.hcalls.(id) <- f;
  t.hcall_len <- id + 1;
  id

(* ------------------------------------------------------------------ *)
(* Devices and interrupts *)

let recompute_device_due t =
  let due = ref max_int in
  for i = 0 to t.n_devices - 1 do
    let d = t.devices.(i) in
    if d.next_due < !due then due := d.next_due
  done;
  t.next_device_due <- !due

let add_device t ~name ~due ~tick =
  let d = { dev_name = name; next_due = due; dev_tick = tick } in
  if t.n_devices = Array.length t.devices then begin
    let a = Array.make (max 8 (2 * t.n_devices)) d in
    Array.blit t.devices 0 a 0 t.n_devices;
    t.devices <- a
  end;
  t.devices.(t.n_devices) <- d;
  t.n_devices <- t.n_devices + 1;
  if due < t.next_device_due then t.next_device_due <- due;
  d

(* O(1) unless [d] held the minimum deadline and moves it later. *)
let device_schedule t d due =
  let old = d.next_due in
  d.next_due <- due;
  if due < t.next_device_due then t.next_device_due <- due
  else if due > old && old = t.next_device_due then recompute_device_due t

let device_idle t d = device_schedule t d max_int

let next_event t ~except =
  let due = ref t.run_deadline in
  for i = 0 to t.n_devices - 1 do
    let d = t.devices.(i) in
    if d != except && d.next_due < !due then due := d.next_due
  done;
  !due

let all_stopped t =
  let rec from i = i >= Array.length t.cpus || (t.cpus.(i).stopped && from (i + 1)) in
  from 0

let global_cycles t = t.cycles
let on_wake t f = t.wake_hooks <- t.wake_hooks @ [ f ]
let run_wake_hooks t = List.iter (fun f -> f ()) t.wake_hooks

let find_device t name =
  let rec scan i =
    if i < 0 then None
    else if t.devices.(i).dev_name = name then Some t.devices.(i)
    else scan (i - 1)
  in
  scan (t.n_devices - 1)

(* Removal copies the array, so a [run_due_devices] pass in progress
   keeps visiting the devices it started with. *)
let remove_device t d =
  let live = Array.to_list (Array.sub t.devices 0 t.n_devices) in
  t.devices <- Array.of_list (List.filter (fun d' -> d' != d) live);
  t.n_devices <- Array.length t.devices;
  recompute_device_due t

let register_power_hook t ~device f =
  t.power_hooks <-
    (device, f) :: List.remove_assoc device t.power_hooks

(* Cut power to [device] at the current cycle.  [torn_words] bounds
   how much of an in-flight write reaches the platter: -1 loses the
   transfer whole, [k >= 0] lands exactly the first [k] words (the
   prefix-torn write model).  Unknown devices ignore the cut. *)
let power_cut t ~device ~torn_words =
  match List.assoc_opt device t.power_hooks with
  | Some f -> f torn_words
  | None -> ()

let register_frame_hook t ~device f =
  t.frame_hooks <- (device, f) :: List.remove_assoc device t.frame_hooks

(* Arm a one-shot frame fault against [device]'s next frame in
   direction [dir] (0 = rx, 1 = tx): [kind] 0 drops it, 1 duplicates
   it, 2 reorders it past its successor.  Unknown devices ignore the
   fault (same contract as [power_cut]). *)
let frame_fault t ~device ~dir ~kind =
  match List.assoc_opt device t.frame_hooks with
  | Some f -> f ~dir ~kind
  | None -> ()

(* Devices fire against the global clock (the minimum over runnable
   cores), so a tick never runs before every core has reached it —
   conservative discrete-event order.  Each deadline fires once: the
   device is idled before its tick, which re-arms it if it wants more.
   The pass visits the devices registered when it began, newest first;
   callers run it only once [t.cycles >= t.next_device_due]. *)
let run_due_devices t =
  let devs = t.devices in
  for i = t.n_devices - 1 downto 0 do
    let d = devs.(i) in
    if t.cycles >= d.next_due then begin
      d.next_due <- max_int;
      (match t.hooks with Some h -> h.h_device d.dev_name | None -> ());
      d.dev_tick t
    end
  done;
  recompute_device_due t

(* ------------------------------------------------------------------ *)
(* Hooks and cycle attribution by owner *)

let set_hooks t h = t.hooks <- h

let owner_unowned = 0
let owner_host = 1
let owner_idle = 2
let owner_irq = 3
let owner_first = 4

let ensure_attr_owners t owner =
  if owner >= Array.length t.attr_cycles then begin
    let cap = max 16 (max (owner + 1) (2 * Array.length t.attr_cycles)) in
    let a = Array.make cap 0 in
    Array.blit t.attr_cycles 0 a 0 (Array.length t.attr_cycles);
    t.attr_cycles <- a
  end

let attribution_enable t b =
  t.attr_on <- b;
  if b then begin
    t.attr_mark <- t.cur.c_time;
    ensure_attr_owners t owner_first;
    if Array.length t.attr_owner < Array.length t.code then begin
      let a = Array.make (Array.length t.code) owner_unowned in
      Array.blit t.attr_owner 0 a 0 (Array.length t.attr_owner);
      t.attr_owner <- a
    end
  end


let set_owner_range t ~entry ~len ~owner =
  if owner < 0 then invalid_arg "set_owner_range: owner";
  ensure_attr_owners t owner;
  if entry + len > Array.length t.attr_owner then begin
    let cap = max (entry + len) (2 * max 1 (Array.length t.attr_owner)) in
    let a = Array.make cap owner_unowned in
    Array.blit t.attr_owner 0 a 0 (Array.length t.attr_owner);
    t.attr_owner <- a
  end;
  for i = entry to entry + len - 1 do
    t.attr_owner.(i) <- owner
  done

let attr_add t owner cy =
  if cy > 0 then begin
    ensure_attr_owners t owner;
    t.attr_cycles.(owner) <- t.attr_cycles.(owner) + cy
  end

(* Attribute cycles accumulated since the last mark (host services
   charging between steps) to [owner_host]; call before reading the
   per-owner totals so the books balance.  The mark tracks the acting
   core's local clock and is re-anchored on every core switch. *)
let attribution_flush t =
  if t.attr_on && t.cur.c_time > t.attr_mark then begin
    attr_add t owner_host (t.cur.c_time - t.attr_mark);
    t.attr_mark <- t.cur.c_time
  end

let owner_cycles t owner =
  if owner >= 0 && owner < Array.length t.attr_cycles then t.attr_cycles.(owner)
  else 0

let max_owner t = Array.length t.attr_cycles - 1

let owner_at t addr =
  if addr >= 0 && addr < Array.length t.attr_owner then t.attr_owner.(addr)
  else owner_unowned

(* Attribute the acting core's cycles accumulated since the last mark
   to [owner] and advance the mark. *)
let attr_window t owner =
  if t.attr_on && t.cur.c_time > t.attr_mark then begin
    attr_add t owner (t.cur.c_time - t.attr_mark);
    t.attr_mark <- t.cur.c_time
  end

(* Bring a stopped core's clock up to [now].  The cycles it skips are
   idle time: while attribution is on they go to [owner_idle], except
   on the acting core, whose next window counts them. *)
let warp_core t c now =
  if c.c_time < now then begin
    if t.attr_on && c != t.cur then attr_add t owner_idle (now - c.c_time);
    c.c_time <- now
  end

let post_interrupt ?(source = "") ?cpu t ~level ~vector =
  if level < 1 || level > 7 then invalid_arg "post_interrupt: level";
  let target =
    match cpu with
    | Some c ->
      if c < 0 || c >= num_cores t then invalid_arg "post_interrupt: cpu";
      t.cpus.(c)
    | None -> t.cpus.(0)
  in
  target.pending.(level) <- vector;
  target.pending_mask <- target.pending_mask lor (1 lsl level);
  if target.stopped then begin
    target.stopped <- false;
    (* A sleeping core wakes at the moment of the interrupt, not in
       its frozen past: without the warp, a long-halted core would
       replay cycles other cores (and devices) have already lived
       through. *)
    warp_core t target (max t.cycles t.cur.c_time);
    run_wake_hooks t
  end;
  match t.hooks with Some h -> h.h_post ~source ~level ~vector | None -> ()

let clear_pending c level =
  c.pending.(level) <- -1;
  c.pending_mask <- c.pending_mask land lnot (1 lsl level)
[@@inline]

(* Acknowledge: drop [level]'s pending interrupt on the acting core
   only — another core's pending bit at the same level is its own. *)
let ack_interrupt t ~level = if level >= 1 && level <= 7 then clear_pending t.cur level

(* Retarget host services (and the attribution mark) at another core.
   Any un-attributed residue belongs to host services — instruction
   windows are always closed inside [step]. *)
let switch_cur t c =
  if c != t.cur then begin
    attr_window t owner_host;
    t.cur <- c;
    t.attr_mark <- c.c_time
  end
[@@inline]

let set_active_core t i =
  if i < 0 || i >= num_cores t then invalid_arg "set_active_core";
  switch_cur t t.cpus.(i)

(* Boot a secondary core: wake it at the caller's present.  Registers,
   stack, and pc must have been staged via [set_active_core]. *)
let start_core t i =
  if i < 0 || i >= num_cores t then invalid_arg "start_core";
  let c = t.cpus.(i) in
  warp_core t c (max t.cycles t.cur.c_time);
  c.started <- true;
  if c.stopped then begin
    c.stopped <- false;
    run_wake_hooks t
  end

(* kfault: delay a core's next turn by skewing its local clock — the
   explorer's lever for forcing a different interleaving. *)
let stall_core t ~cpu ~cycles =
  if cpu < 0 || cpu >= num_cores t then invalid_arg "stall_core";
  if cycles > 0 then t.cpus.(cpu).c_time <- t.cpus.(cpu).c_time + cycles

let set_schedule_seed t seed =
  t.sched_rr <- abs seed mod num_cores t

(* ------------------------------------------------------------------ *)
(* Flags and the stack *)

let set_nz c v =
  c.cc_n <- negative v;
  c.cc_z <- v = 0
[@@inline]

let set_nz_clear_cv c v =
  set_nz c v;
  c.cc_c <- false;
  c.cc_v <- false
[@@inline]

(* [b + a] and [b - a] setting NZVC on core [c]: the flags of
   [Word.add_full]/[Word.sub_full], written in place rather than
   returned as a tuple the step loop would allocate. *)
let add_set_flags c b a =
  let a = a land word_mask and b = b land word_mask in
  let sum = a + b in
  let r = sum land word_mask in
  c.cc_n <- negative r;
  c.cc_z <- r = 0;
  c.cc_c <- sum > word_mask;
  c.cc_v <-
    negative a = negative b && negative r <> negative a;
  r
[@@inline]

let sub_set_flags c b a =
  let a = a land word_mask and b = b land word_mask in
  let r = (b - a) land word_mask in
  c.cc_n <- negative r;
  c.cc_z <- r = 0;
  c.cc_c <- b < a;
  c.cc_v <-
    negative b <> negative a && negative r <> negative b;
  r
[@@inline]

let push t v =
  let c = t.cur in
  let a = word (c.regs.(Insn.sp) - 1) in
  c.regs.(Insn.sp) <- a;
  write_mem t a v

let pop t =
  let c = t.cur in
  let a = c.regs.(Insn.sp) in
  let v = read_mem t a in
  c.regs.(Insn.sp) <- word (a + 1);
  v

let require_supervisor t = if not t.cur.supervisor then raise (Cpu_fault Privilege)

(* ------------------------------------------------------------------ *)
(* Exceptions, traps, interrupts *)

let fault_vector = function
  | Bus_error _ -> Insn.Vector.bus_error
  | Div_zero -> Insn.Vector.div_zero
  | Privilege -> Insn.Vector.privilege
  | Illegal -> Insn.Vector.illegal
  | Fp_unavailable -> Insn.Vector.fp_unavailable

(* Enter an exception handler through the current vector table: push
   PC and SR on the supervisor stack, enter supervisor state, fetch
   the handler address from [vbr + vector]. *)
let take_exception t ~vector ~new_ipl =
  let c = t.cur in
  let sr = pack_sr t in
  if not c.supervisor then begin
    c.supervisor <- true;
    switch_stacks t
  end;
  c.trace_bit <- false;
  (match new_ipl with Some l -> c.ipl <- l | None -> ());
  push t c.pc;
  push t sr;
  charge t 18;
  (* vector fetch *)
  let handler = read_mem t (c.vbr + vector) in
  c.pc <- handler

(* The highest level set in a nonzero pending mask. *)
let rec top_level mask l = if mask land (1 lsl l) <> 0 then l else top_level mask (l - 1)

(* Take the highest pending interrupt if it is above the core's mask. *)
let deliver_pending_interrupt t =
  let c = t.cur in
  if c.pending_mask lsr (c.ipl + 1) = 0 then false
  else begin
    let level = top_level c.pending_mask 7 in
    let vector = c.pending.(level) in
    clear_pending c level;
    t.irqs_taken <- t.irqs_taken + 1;
    c.c_irqs <- c.c_irqs + 1;
    (match t.hooks with Some h -> h.h_irq ~level ~vector | None -> ());
    take_exception t ~vector ~new_ipl:(Some level);
    true
  end
[@@inline]

(* ------------------------------------------------------------------ *)
(* Instruction compilation

   Factoring Invariants, applied to the simulator.  Only [set_code]
   writes a code slot, so it resolves everything that cannot change
   until the slot is rewritten — the opcode, the addressing modes, the
   branch condition, the constant operands — into one closure, and
   [step] calls that closure instead of interpreting the instruction.
   The common forms get a closure of their own, with the memory access
   inlined; the rest are composed from per-operand closures.  Either
   way a closure does what the instruction does, in the same order: a
   [Post_inc]/[Pre_dec] register moves before the access that may
   fault, and each reference is charged where it is made ([step]
   charges the base cost and backs the PC up on a fault).  [compile]
   is total and never raises: a pseudo-instruction, an unresolved
   label or a misplaced operand compiles to a closure that raises when
   the slot executes. *)

let post_inc c r =
  let a = c.regs.(r) in
  c.regs.(r) <- word (a + 1);
  a
[@@inline]

let pre_dec c r =
  let a = word (c.regs.(r) - 1) in
  c.regs.(r) <- a;
  a
[@@inline]

let not_memory _ = invalid_arg "effective_addr: not a memory operand"

(* The data address of a memory operand. *)
let compile_ea : Insn.operand -> t -> int = function
  | Insn.Imm _ | Insn.Lbl _ | Insn.Reg _ -> not_memory
  | Insn.Ind r -> fun t -> t.cur.regs.(r)
  | Insn.Idx (r, d) -> fun t -> word (t.cur.regs.(r) + d)
  | Insn.Abs a -> fun _ -> a
  | Insn.Post_inc r -> fun t -> post_inc t.cur r
  | Insn.Pre_dec r -> fun t -> pre_dec t.cur r

let compile_read : Insn.operand -> t -> int = function
  | Insn.Imm v ->
    let v = word v in
    fun _ -> v
  | Insn.Lbl l -> fun _ -> invalid_arg ("read_operand: unresolved label " ^ l)
  | Insn.Reg r -> fun t -> t.cur.regs.(r)
  | Insn.Ind r -> fun t -> read_mem t t.cur.regs.(r)
  | Insn.Idx (r, d) -> fun t -> read_mem t (word (t.cur.regs.(r) + d))
  | Insn.Abs a -> fun t -> read_mem t a
  | Insn.Post_inc r -> fun t -> read_mem t (post_inc t.cur r)
  | Insn.Pre_dec r -> fun t -> read_mem t (pre_dec t.cur r)

let compile_write : Insn.operand -> t -> int -> unit = function
  | Insn.Imm _ -> fun _ _ -> invalid_arg "write_operand: immediate destination"
  | Insn.Lbl _ -> fun _ _ -> not_memory ()
  | Insn.Reg r -> fun t v -> t.cur.regs.(r) <- word v
  | Insn.Ind r -> fun t v -> write_mem t t.cur.regs.(r) v
  | Insn.Idx (r, d) -> fun t v -> write_mem t (word (t.cur.regs.(r) + d)) v
  | Insn.Abs a -> fun t v -> write_mem t a v
  | Insn.Post_inc r -> fun t v -> write_mem t (post_inc t.cur r) v
  | Insn.Pre_dec r -> fun t v -> write_mem t (pre_dec t.cur r) v

(* The code address a control transfer goes to. *)
let compile_target : Insn.target -> t -> int = function
  | Insn.To_addr a -> fun _ -> a
  | Insn.To_reg r -> fun t -> t.cur.regs.(r)
  | Insn.To_mem (Insn.Imm _ | Insn.Lbl _ | Insn.Reg _) -> not_memory
  | Insn.To_mem op -> compile_read op
  | Insn.To_label l -> fun _ -> invalid_arg ("resolve_target: unresolved label " ^ l)

let compile_cond : Insn.cond -> cpu -> bool = function
  | Insn.Always -> fun _ -> true
  | Insn.Eq -> fun c -> c.cc_z
  | Insn.Ne -> fun c -> not c.cc_z
  | Insn.Lt -> fun c -> c.cc_n <> c.cc_v
  | Insn.Ge -> fun c -> c.cc_n = c.cc_v
  | Insn.Le -> fun c -> c.cc_z || c.cc_n <> c.cc_v
  | Insn.Gt -> fun c -> (not c.cc_z) && c.cc_n = c.cc_v
  | Insn.Hi -> fun c -> (not c.cc_c) && not c.cc_z
  | Insn.Ls -> fun c -> c.cc_c || c.cc_z
  | Insn.Cs -> fun c -> c.cc_c
  | Insn.Cc -> fun c -> not c.cc_c
  | Insn.Mi -> fun c -> c.cc_n
  | Insn.Pl -> fun c -> not c.cc_n

(* [f c b a] is [b op a] (destination op source), setting [c]'s flags. *)
let compile_alu : Insn.alu_op -> cpu -> int -> int -> int = function
  | Insn.Add -> add_set_flags
  | Insn.Sub -> sub_set_flags
  | Insn.Mul ->
    fun c b a ->
      let r = Word.mul b a in
      set_nz_clear_cv c r;
      r
  | Insn.Divu ->
    fun c b a ->
      if a = 0 then raise (Cpu_fault Div_zero);
      let r = Word.divu b a in
      set_nz_clear_cv c r;
      r
  | Insn.Divs ->
    fun c b a ->
      if a = 0 then raise (Cpu_fault Div_zero);
      let r = Word.divs b a in
      set_nz_clear_cv c r;
      r
  | Insn.And ->
    fun c b a ->
      let r = Word.logand b a in
      set_nz_clear_cv c r;
      r
  | Insn.Or ->
    fun c b a ->
      let r = Word.logor b a in
      set_nz_clear_cv c r;
      r
  | Insn.Xor ->
    fun c b a ->
      let r = Word.logxor b a in
      set_nz_clear_cv c r;
      r
  | Insn.Lsl ->
    fun c b a ->
      let r = Word.shift_left b a in
      set_nz_clear_cv c r;
      r
  | Insn.Lsr ->
    fun c b a ->
      let r = Word.shift_right_logical b a in
      set_nz_clear_cv c r;
      r
  | Insn.Asr ->
    fun c b a ->
      let r = Word.shift_right_arith b a in
      set_nz_clear_cv c r;
      r

let pseudo _ = invalid_arg "exec: pseudo-instruction in code store"

let require_fp t = if not t.cur.fp_enabled then raise (Cpu_fault Fp_unavailable)
[@@inline]

let compile : Insn.insn -> t -> unit = function
  | Insn.Nop -> fun _ -> ()
  | Insn.Label _ | Insn.Probe _ -> pseudo
  | Insn.Halt -> halt
  (* moves: the forms the serve and UNIX workloads run most, then any
     source to any destination *)
  | Insn.Move (Insn.Reg s, Insn.Reg d) ->
    fun t ->
      let c = t.cur in
      let v = c.regs.(s) in
      c.regs.(d) <- word v;
      set_nz_clear_cv c v
  | Insn.Move (Insn.Imm v, Insn.Reg d) ->
    let v = word v in
    fun t ->
      let c = t.cur in
      c.regs.(d) <- v;
      set_nz_clear_cv c v
  | Insn.Move (Insn.Abs a, Insn.Reg d) ->
    fun t ->
      let v = read_mem t a in
      let c = t.cur in
      c.regs.(d) <- word v;
      set_nz_clear_cv c v
  | Insn.Move (Insn.Ind s, Insn.Reg d) ->
    fun t ->
      let c = t.cur in
      let v = read_mem t c.regs.(s) in
      c.regs.(d) <- word v;
      set_nz_clear_cv c v
  | Insn.Move (Insn.Reg s, Insn.Abs a) ->
    fun t ->
      let c = t.cur in
      let v = c.regs.(s) in
      write_mem t a v;
      set_nz_clear_cv c v
  | Insn.Move (Insn.Reg s, Insn.Ind d) ->
    fun t ->
      let c = t.cur in
      let v = c.regs.(s) in
      write_mem t c.regs.(d) v;
      set_nz_clear_cv c v
  | Insn.Move (Insn.Imm v, Insn.Abs a) ->
    let v = word v in
    fun t ->
      write_mem t a v;
      set_nz_clear_cv t.cur v
  | Insn.Move (Insn.Imm v, Insn.Idx (d, k)) ->
    let v = word v in
    fun t ->
      let c = t.cur in
      write_mem t (word (c.regs.(d) + k)) v;
      set_nz_clear_cv c v
  | Insn.Move (Insn.Post_inc s, Insn.Post_inc d) ->
    (* kpipe's block copy *)
    fun t ->
      let c = t.cur in
      let v = read_mem t (post_inc c s) in
      write_mem t (post_inc c d) v;
      set_nz_clear_cv c v
  | Insn.Move (src, dst) ->
    let src = compile_read src and dst = compile_write dst in
    fun t ->
      let v = src t in
      dst t v;
      set_nz_clear_cv t.cur v
  | Insn.Lea (op, r) ->
    let ea = compile_ea op in
    fun t ->
      let a = ea t in
      t.cur.regs.(r) <- word a
  | Insn.Alu (Insn.Add, Insn.Imm v, rd) ->
    let v = word v in
    fun t ->
      let c = t.cur in
      c.regs.(rd) <- add_set_flags c c.regs.(rd) v
  | Insn.Alu (op, Insn.Imm v, rd) ->
    let f = compile_alu op and v = word v in
    fun t ->
      let c = t.cur in
      c.regs.(rd) <- f c c.regs.(rd) v
  | Insn.Alu (op, Insn.Reg s, rd) ->
    let f = compile_alu op in
    fun t ->
      let c = t.cur in
      c.regs.(rd) <- f c c.regs.(rd) c.regs.(s)
  | Insn.Alu (op, src, rd) ->
    let f = compile_alu op and src = compile_read src in
    fun t ->
      let a = src t in
      let c = t.cur in
      c.regs.(rd) <- f c c.regs.(rd) a
  | Insn.Alu_mem (op, src, dst) ->
    let f = compile_alu op and src = compile_read src and ea = compile_ea dst in
    fun t ->
      let a = src t in
      let addr = ea t in
      let b = read_mem t addr in
      write_mem t addr (f t.cur b a)
  | Insn.Cmp (Insn.Imm v, Insn.Reg d) ->
    let v = word v in
    fun t ->
      let c = t.cur in
      ignore (sub_set_flags c c.regs.(d) v)
  | Insn.Cmp (Insn.Reg s, Insn.Reg d) ->
    fun t ->
      let c = t.cur in
      ignore (sub_set_flags c c.regs.(d) c.regs.(s))
  | Insn.Cmp (src, dst) ->
    let src = compile_read src and dst = compile_read dst in
    fun t ->
      let a = src t in
      let b = dst t in
      ignore (sub_set_flags t.cur b a)
  | Insn.Tst (Insn.Reg r) ->
    fun t ->
      let c = t.cur in
      set_nz_clear_cv c c.regs.(r)
  | Insn.Tst op ->
    let op = compile_read op in
    fun t ->
      let v = op t in
      set_nz_clear_cv t.cur v
  | Insn.Neg r ->
    fun t ->
      let c = t.cur in
      let v = Word.neg c.regs.(r) in
      c.regs.(r) <- v;
      set_nz c v;
      c.cc_c <- v <> 0;
      c.cc_v <- v = Word.sign_bit
  | Insn.Not r ->
    fun t ->
      let c = t.cur in
      let v = Word.lognot c.regs.(r) in
      c.regs.(r) <- v;
      set_nz_clear_cv c v
  (* control transfer *)
  | Insn.B (Insn.Always, Insn.To_addr a) | Insn.Jmp (Insn.To_addr a) ->
    fun t -> t.cur.pc <- a
  | Insn.B (cond, Insn.To_addr a) ->
    let holds = compile_cond cond in
    fun t ->
      let c = t.cur in
      if holds c then c.pc <- a
  | Insn.B (cond, tgt) ->
    let holds = compile_cond cond and tgt = compile_target tgt in
    fun t -> if holds t.cur then t.cur.pc <- tgt t
  | Insn.Dbra (r, Insn.To_addr a) ->
    fun t ->
      let c = t.cur in
      let v = word (c.regs.(r) - 1) in
      c.regs.(r) <- v;
      if v <> word_mask then c.pc <- a
  | Insn.Dbra (r, tgt) ->
    let tgt = compile_target tgt in
    fun t ->
      let c = t.cur in
      let v = word (c.regs.(r) - 1) in
      c.regs.(r) <- v;
      if v <> word_mask then c.pc <- tgt t
  | Insn.Jmp tgt ->
    let tgt = compile_target tgt in
    fun t -> t.cur.pc <- tgt t
  | Insn.Jsr tgt ->
    let tgt = compile_target tgt in
    fun t ->
      let dest = tgt t in
      push t t.cur.pc;
      t.cur.pc <- dest
  | Insn.Rts -> fun t -> t.cur.pc <- pop t
  | Insn.Trap n ->
    let vector = Insn.Vector.trap n in
    fun t -> take_exception t ~vector ~new_ipl:None
  | Insn.Rte ->
    fun t ->
      require_supervisor t;
      let sr = pop t in
      let pc = pop t in
      unpack_sr t sr;
      t.cur.pc <- pc
  | Insn.Cas (rc, ru, ea) ->
    (* Atomic by construction: a core's load-compare-store sequence
       can never be split — interrupts arrive between instructions and
       other cores interleave at instruction granularity (see [step]).
       Cross-core contention is therefore real: another core's
       committed Cas changes the word and this compare simply fails.
       A kfault-forced failure suppresses the store and reports Z
       clear — the same observable outcome, costing the same
       references. *)
    let ea = compile_ea ea in
    fun t ->
      let c = t.cur in
      let addr = ea t in
      let v = read_mem t addr in
      t.cas_count <- t.cas_count + 1;
      let forced = t.cas_count = t.cas_fail_next in
      ignore (sub_set_flags c v c.regs.(rc));
      if v = c.regs.(rc) && not forced then write_mem t addr c.regs.(ru)
      else begin
        c.regs.(rc) <- v;
        if not forced then c.c_cas_lost <- c.c_cas_lost + 1
      end;
      if forced then begin
        c.cc_z <- false;
        c.c_cas_lost <- c.c_cas_lost + 1;
        t.cas_fail_next <- max_int;
        t.cas_fail_hook t
      end
  | Insn.Movem_save (rs, sreg) ->
    let rs = Array.of_list (List.rev rs) in
    fun t ->
      let c = t.cur in
      for i = 0 to Array.length rs - 1 do
        let a = word (c.regs.(sreg) - 1) in
        c.regs.(sreg) <- a;
        write_mem t a c.regs.(rs.(i))
      done
  | Insn.Movem_load (sreg, rs) ->
    let rs = Array.of_list rs in
    fun t ->
      let c = t.cur in
      for i = 0 to Array.length rs - 1 do
        let a = c.regs.(sreg) in
        c.regs.(rs.(i)) <- read_mem t a;
        c.regs.(sreg) <- word (a + 1)
      done
  | Insn.Push op ->
    let op = compile_read op in
    fun t -> push t (op t)
  | Insn.Pop r -> fun t -> t.cur.regs.(r) <- pop t
  (* supervisor state *)
  | Insn.Set_ipl n ->
    let n = n land 7 in
    fun t ->
      require_supervisor t;
      t.cur.ipl <- n
  | Insn.Move_vbr op ->
    let op = compile_read op in
    fun t ->
      require_supervisor t;
      t.cur.vbr <- op t
  | Insn.Move_mmu op ->
    let op = compile_read op in
    fun t ->
      require_supervisor t;
      install_map t t.cur (Word.signed (op t))
  | Insn.Stop_wait ->
    fun t ->
      require_supervisor t;
      (* an interrupt already pending — even one the mask holds off —
         is the wakeup the waiter is waiting for: sleeping through it
         would lose it *)
      if t.cur.pending_mask = 0 then t.cur.stopped <- true
  | Insn.Hcall id ->
    (* looked up when the slot runs: the service may be registered
       after the slot is written *)
    fun t ->
      if id < 0 || id >= t.hcall_len then raise (Cpu_fault Illegal);
      t.hcalls.(id) t
  (* floating point *)
  | Insn.Fmove_imm (f, d) ->
    fun t ->
      require_fp t;
      t.cur.fregs.(d) <- f
  | Insn.Fmove (s, d) ->
    fun t ->
      require_fp t;
      t.cur.fregs.(d) <- t.cur.fregs.(s)
  | Insn.Fop (op, s, d) -> (
    let fop f = fun t ->
      require_fp t;
      let r = t.cur.fregs in
      r.(d) <- f r.(d) r.(s)
    in
    match op with
    | Insn.Fadd -> fop ( +. )
    | Insn.Fsub -> fop ( -. )
    | Insn.Fmul -> fop ( *. )
    | Insn.Fdiv -> fop ( /. ))
  | Insn.Fmovem_save sreg ->
    (* FP context is wide: three memory words per register. *)
    fun t ->
      for i = Insn.num_fregs - 1 downto 0 do
        let bits = Int64.to_int (Int64.logand (Int64.bits_of_float t.cur.fregs.(i)) 0xFFFF_FFFFL) in
        let a = word (t.cur.regs.(sreg) - 3) in
        t.cur.regs.(sreg) <- a;
        write_mem t a bits;
        write_mem t (a + 1)
          (Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float t.cur.fregs.(i)) 32));
        write_mem t (a + 2) i
      done
  | Insn.Fmovem_load sreg ->
    fun t ->
      for i = 0 to Insn.num_fregs - 1 do
        let a = t.cur.regs.(sreg) in
        let lo = read_mem t a in
        let hi = read_mem t (a + 1) in
        let _tag = read_mem t (a + 2) in
        t.cur.regs.(sreg) <- word (a + 3);
        t.cur.fregs.(i) <-
          Int64.float_of_bits
            (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))
      done

(* ------------------------------------------------------------------ *)
(* Code store *)

let ensure_code_capacity t n =
  if t.code_len + n > Array.length t.code then begin
    let cap = ref (Array.length t.code) in
    while t.code_len + n > !cap do
      cap := !cap * 2
    done;
    let code = Array.make !cap halt_slot in
    Array.blit t.code 0 code 0 t.code_len;
    t.code <- code;
    let cost = Array.make !cap (Cost.base Insn.Halt) in
    Array.blit t.code_cost 0 cost 0 t.code_len;
    t.code_cost <- cost;
    let probes = Array.make !cap no_probe in
    Array.blit t.code_probe 0 probes 0 t.code_len;
    t.code_probe <- probes
  end

(* The one writer of a code slot: it stores the instruction with its
   compiled closure and folds its base cost, so patching, repair and
   fault injection need no other invalidation.  Patching keeps the
   slot's probe. *)
let set_code t addr insn =
  t.code.(addr) <- { insn; run = compile insn };
  t.code_cost.(addr) <- Cost.base insn lor (t.code_cost.(addr) land probe_bit)

(* Append resolved instructions; returns the entry address.  Labels
   must have been resolved by [Asm.assemble]. *)
let append_code t insns =
  let n = List.length insns in
  ensure_code_capacity t n;
  let entry = t.code_len in
  List.iteri
    (fun i insn ->
      match insn with
      | Insn.Label l -> invalid_arg ("append_code: unresolved label " ^ l)
      | Insn.Probe p -> invalid_arg ("append_code: unassembled probe " ^ p)
      | _ -> set_code t (entry + i) insn)
    insns;
  t.code_len <- t.code_len + n;
  entry

(* Reserve a patchable region, initially halting. *)
let reserve_code t n =
  ensure_code_capacity t n;
  let entry = t.code_len in
  t.code_len <- t.code_len + n;
  for i = entry to entry + n - 1 do
    set_code t i Insn.Halt
  done;
  entry

let patch_code t addr insn =
  if addr < 0 || addr >= t.code_len then invalid_arg "patch_code: out of range";
  set_code t addr insn

let read_code t addr =
  if addr < 0 || addr >= t.code_len then invalid_arg "read_code: out of range";
  t.code.(addr).insn

let code_size t = t.code_len


(* ------------------------------------------------------------------ *)
(* Stepping and running *)

let set_fp_enabled t b = t.cur.fp_enabled <- b
let fp_enabled t = t.cur.fp_enabled

let record_trace t pc =
  t.trace_ring.(t.trace_pos) <- pc;
  t.trace_pos <- (t.trace_pos + 1) mod Array.length t.trace_ring;
  t.trace_count <- t.trace_count + 1

let trace_enable t b = t.trace_on <- b

(* PC sampling (kperf PMU): every [period] cycles the step loop hands
   the hook the pc it just executed plus the cycles elapsed since the
   previous sample, so sample weights tile the sampled window. *)
let set_sampling t ~period hook =
  if period <= 0 then invalid_arg "set_sampling: period";
  t.sample_period <- period;
  t.sample_hook <- hook;
  t.sample_mark <- t.cur.c_time;
  t.sample_next <- t.cur.c_time + period

let clear_sampling t =
  t.sample_period <- 0;
  t.sample_next <- max_int;
  t.sample_hook <- (fun ~pc:_ ~weight:_ -> ())


(* Most recent executed PCs, oldest first. *)
let trace_window t n =
  let n = min n (min t.trace_count (Array.length t.trace_ring)) in
  List.init n (fun i ->
      let pos =
        (t.trace_pos - n + i + Array.length t.trace_ring) mod Array.length t.trace_ring
      in
      t.trace_ring.(pos))

(* The global clock on N cores: the smallest local clock among
   runnable cores, or — with every core asleep — among all of them.
   Monotone, because [pick_core] always runs the minimum core.  (With
   one core it is that core's clock; [step] reads it directly.) *)
let frontier t =
  let best = ref max_int and any = ref false in
  for i = 0 to Array.length t.cpus - 1 do
    let c = t.cpus.(i) in
    if not c.stopped then begin
      any := true;
      if c.c_time < !best then best := c.c_time
    end
  done;
  if !any then !best
  else Array.fold_left (fun acc c -> min acc c.c_time) max_int t.cpus

(* The id of the next core to step on N cores, or -1 if none is
   runnable: the runnable core with the smallest local clock.  Ties go
   to a rotating start position (seeded by [set_schedule_seed]). *)
let pick_core t =
  let n = Array.length t.cpus in
  let best = ref (-1) and bt = ref max_int in
  let i = ref t.sched_rr in
  for _ = 1 to n do
    let c = t.cpus.(!i) in
    if (not c.stopped) && c.c_time < !bt then begin
      bt := c.c_time;
      best := !i
    end;
    i := if !i = n - 1 then 0 else !i + 1
  done;
  if !best < 0 then -1
  else begin
    t.sched_rr <- (if t.sched_rr = n - 1 then 0 else t.sched_rr + 1);
    !best
  end

(* One step of the machine: a pending interrupt is taken, or the
   picked core runs one instruction.  The instruction is its slot's
   closure, compiled when [set_code] wrote the slot; the step charges
   its base cost before running it, fires the slot's probe, and on a
   CPU fault backs the PC up to the instruction and enters the
   handler. *)
let step t =
  (* cycles charged host-side between steps belong to host services *)
  if t.attr_on then attr_window t owner_host;
  if t.halted then ()
  else
    (* one core: no pick, and the global clock is that core's clock *)
    let single = Array.length t.cpus = 1 in
    let i = if single then (if t.cpus.(0).stopped then -1 else 0) else pick_core t in
    if i < 0 then begin
      (* Every core is stopped: fast-forward simulated time to the
         next device event, warping the sleepers' clocks.  One halted
         core never skips past another's pending work — this path only
         runs when no core anywhere can make progress. *)
      if t.next_device_due = max_int then raise Deadlock;
      if t.next_device_due > t.cycles then t.cycles <- t.next_device_due;
      (* loops, not closures: a sleeping machine passes here on every
         device tick *)
      for j = 0 to Array.length t.cpus - 1 do
        warp_core t t.cpus.(j) t.cycles
      done;
      run_due_devices t;
      attr_window t owner_idle;
      for j = 0 to Array.length t.cpus - 1 do
        let c = t.cpus.(j) in
        if not c.stopped then begin
          switch_cur t c;
          if deliver_pending_interrupt t then attr_window t owner_irq
        end
      done
    end
    else begin
      let c = t.cpus.(i) in
      switch_cur t c;
      if deliver_pending_interrupt t then attr_window t owner_irq
      else begin
        let trace_this = c.trace_bit in
        let at = c.pc in
        if at < 0 || at >= t.code_len then raise (Wild_jump at);
        (* loaded before the probe runs: a probe that patches its own
           slot takes effect on the next pass *)
        let exec = t.code.(at).run in
        let cost = t.code_cost.(at) in
        let cost =
          if cost >= 0 then cost
          else begin
            t.code_probe.(at) t;
            cost land max_int
          end
        in
        if t.trace_on then record_trace t c.pc;
        c.pc <- c.pc + 1;
        t.insns <- t.insns + 1;
        c.c_insns <- c.c_insns + 1;
        c.c_time <- c.c_time + cost;
        (try exec t
         with Cpu_fault f -> (
           c.pc <- c.pc - 1;
           (match t.hooks with Some h -> h.h_fault f | None -> ());
           (* fault PC: re-entrant handlers may fix and retry *)
           try take_exception t ~vector:(fault_vector f) ~new_ipl:None
           with Cpu_fault _ ->
             (* Double fault: exception entry itself faulted (ruined
                supervisor stack or unreadable vector).  There is no
                state left to recover with — halt, like the 68020's
                double bus fault. *)
             t.double_fault <- true;
             t.halted <- true));
        if t.sample_period > 0 && c.c_time >= t.sample_next then begin
          let weight = c.c_time - t.sample_mark in
          t.sample_mark <- c.c_time;
          t.sample_next <- c.c_time + t.sample_period;
          t.sample_hook ~pc:at ~weight
        end;
        if trace_this && not t.halted then
          take_exception t ~vector:Insn.Vector.trace ~new_ipl:None;
        if t.attr_on then attr_window t (owner_at t at)
      end;
      t.cycles <- (if single then c.c_time else frontier t);
      if t.cycles >= t.next_device_due then run_due_devices t;
      (* device ticks charge host-side *)
      if t.attr_on then attr_window t owner_host
    end

type run_result = Halted | Insn_limit

(* Either budget ends the run: instructions executed, or simulated
   cycles on the global clock — the one a machine whose cores all
   sleep still advances, device tick by device tick.  The cycle
   deadline is published to [next_event] (a nested run keeps the
   earlier of the two), so a device that skips idle ticks still
   stops the run where a ticking one would. *)
let run ?(max_insns = max_int) ?(max_cycles = max_int) t =
  let start = t.insns in
  let deadline =
    if max_cycles > max_int - t.cycles then max_int else t.cycles + max_cycles
  in
  let rec loop () =
    if t.halted then Halted
    else if t.insns - start >= max_insns || t.cycles >= deadline then Insn_limit
    else begin
      step t;
      loop ()
    end
  in
  let outer = t.run_deadline in
  t.run_deadline <- min outer deadline;
  Fun.protect ~finally:(fun () -> t.run_deadline <- outer) loop

(* kfault: deterministic transient CAS failure. *)
let cas_executed t = t.cas_count

let set_cas_fail t ~at ~hook =
  if at <= t.cas_count then invalid_arg "set_cas_fail: index already passed";
  t.cas_fail_next <- at;
  t.cas_fail_hook <- hook

let clear_cas_fail t =
  t.cas_fail_next <- max_int;
  t.cas_fail_hook <- (fun _ -> ())

let cas_fail_armed t = t.cas_fail_next <> max_int

let halted t = t.halted
let set_halted t b = t.halted <- b
let double_faulted t = t.double_fault

(* Recovery hosts (Boot.go's double-fault restart path) acknowledge a
   double fault before re-entering the scheduler, so a *subsequent*
   double fault is distinguishable from the one just handled. *)
let clear_double_fault t = t.double_fault <- false
let stopped t = t.cur.stopped
let last_fault_addr t = t.cur.last_fault_addr
let set_vbr t v = t.cur.vbr <- v
let set_ipl t l = t.cur.ipl <- l land 7

let set_supervisor t b =
  if b <> t.cur.supervisor then (
    t.cur.supervisor <- b;
    switch_stacks t)

let other_sp t = t.cur.other_sp
let set_other_sp t v = t.cur.other_sp <- v
let mem_words t = t.mem_words
let cost_model t = t.cost
