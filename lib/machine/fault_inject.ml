(* kfault: seeded, fully deterministic fault injection.

   A fault [plan] is compiled from a seed by a self-contained xorshift
   PRNG, so a (seed, config) pair names one exact fault schedule on
   every host.  Arming a plan registers a host-side machine device
   ("kfault") whose tick fires the scheduled events — spurious
   interrupts, stalled or dropped device completions, and bit flips in
   data regions — and chains transient CAS failures through
   [Machine.set_cas_fail].  Everything happens on the host side of the
   step loop: a machine that never arms a plan executes a
   cycle- and instruction-identical run (the same zero-overhead
   discipline as the PMU; asserted by `bench fault-overhead`). *)

(* ---------------------------------------------------------------- *)
(* Deterministic PRNG: 64-bit xorshift*, independent of Random so
   plans never perturb (or get perturbed by) other randomness. *)

type rng = { mutable s : int64 }

let rng_make seed =
  (* avoid the all-zero fixpoint; fold the seed through splitmix-style
     scrambling so nearby seeds diverge immediately *)
  let z = Int64.add (Int64.of_int seed) 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  { s = (if z = 0L then 0x2545F4914F6CDD1DL else z) }

let rng_next r =
  let x = r.s in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  r.s <- x;
  x

(* uniform int in [0, n) *)
let rng_int r n =
  if n <= 0 then invalid_arg "rng_int";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (rng_next r) 1)
                  (Int64.of_int n))

(* ---------------------------------------------------------------- *)
(* Plans *)

type target = Data | Code

type action =
  | Spurious_irq of { cpu : int option; level : int; vector : int }
      (* [cpu = None] follows the machine's per-level route *)
  | Bit_flip of { target : target; addr : int; bit : int }
  | Stall of { device : string; delay_cycles : int }
  | Drop_completion of { device : string }
  | Power_cut of { device : string; torn_words : int }
  | Core_stall of { cpu : int; stall_cycles : int }
      (* skew one core's local clock: forces a different cross-core
         interleaving without touching any architectural state *)
  | Frame_fault of { device : string; dir : int; kind : int }
      (* kserve: arm a one-shot fault against the named device's next
         frame — dir 0 = rx, 1 = tx; kind 0 = drop, 1 = duplicate,
         2 = reorder.  Devices with no frame hook ignore it. *)

(* The code store is an instruction array, so a "flipped bit" in code
   is modelled at instruction granularity: the word no longer decodes,
   and executing it raises an illegal-instruction fault — exactly what
   a flipped opcode bit does on the real machine.  [Hcall] with a
   negative id is the canonical undecodable word ([Machine] raises
   [Cpu_fault Illegal] before any side effect), and folding [bit] in
   keeps distinct flips distinguishable in listings. *)
let corrupt_insn ~bit = Insn.Hcall (-1 - (bit land 31))

let corrupt_code m ~addr ~bit = Machine.patch_code m addr (corrupt_insn ~bit)

type event = { ev_after : int; ev_action : action }

type plan = {
  seed : int;
  events : event list; (* sorted by ev_after *)
  cas_gaps : int list; (* gaps between forced CAS failures *)
}

type config = {
  horizon_cycles : int;
  n_irqs : int;
  n_flips : int;
  n_stalls : int;
  n_drops : int;
  n_cas_fails : int;
  cas_gap : int;
  irq_choices : (int * int) list;
  stall_devices : string list;
  flip_base : int;
  flip_len : int;
  n_code_flips : int;
  code_regions : (int * int) list;
  (* kSMP: cores eligible for cpu-targeted spurious interrupts (empty =
     follow the machine's routes) and for local-clock stalls. *)
  irq_cpus : int list;
  n_core_stalls : int;
  core_stall_cpus : int list;
  core_stall_cycles : int;
}

let default_config =
  {
    horizon_cycles = 200_000;
    n_irqs = 2;
    n_flips = 2;
    n_stalls = 1;
    n_drops = 1;
    n_cas_fails = 4;
    cas_gap = 16;
    (* timer, disk, alarm autovectors: safe to deliver spuriously —
       their handlers are idempotent.  The tty vector is excluded:
       a spurious tty interrupt would make the handler read a stale
       character register. *)
    irq_choices =
      [
        (Mmio_map.timer_level, Mmio_map.timer_vector);
        (Mmio_map.disk_level, Mmio_map.disk_vector);
        (Mmio_map.alarm_level, Mmio_map.alarm_vector);
      ];
    stall_devices = [ "disk"; "tty" ];
    (* no safe default flip target: data flips need a caller-designated
       scratch window (Layout.fault_scratch_* is the conventional one),
       and code flips need registered synthesized regions *)
    flip_base = 0;
    flip_len = 0;
    n_code_flips = 0;
    code_regions = [];
    irq_cpus = [];
    n_core_stalls = 0;
    core_stall_cpus = [];
    core_stall_cycles = 20_000;
  }

let describe_action = function
  | Spurious_irq { cpu = None; level; vector } ->
    Printf.sprintf "spurious_irq level=%d vector=%d" level vector
  | Spurious_irq { cpu = Some c; level; vector } ->
    Printf.sprintf "spurious_irq cpu=%d level=%d vector=%d" c level vector
  | Bit_flip { target = Data; addr; bit } ->
    Printf.sprintf "bit_flip addr=%d bit=%d" addr bit
  | Bit_flip { target = Code; addr; bit } ->
    Printf.sprintf "code_flip addr=%d bit=%d" addr bit
  | Stall { device; delay_cycles } ->
    Printf.sprintf "stall %s +%d cycles" device delay_cycles
  | Drop_completion { device } -> Printf.sprintf "drop_completion %s" device
  | Power_cut { device; torn_words } ->
    Printf.sprintf "power_cut %s torn=%d" device torn_words
  | Core_stall { cpu; stall_cycles } ->
    Printf.sprintf "core_stall cpu=%d +%d cycles" cpu stall_cycles
  | Frame_fault { device; dir; kind } ->
    Printf.sprintf "frame_fault %s %s %s" device
      (if dir = 0 then "rx" else "tx")
      (match kind with 0 -> "drop" | 1 -> "dup" | _ -> "reorder")

let compile ?(config = default_config) seed =
  let r = rng_make seed in
  let events = ref [] in
  let at () = 1 + rng_int r config.horizon_cycles in
  let add a = events := { ev_after = at (); ev_action = a } :: !events in
  if config.irq_choices <> [] then
    for _ = 1 to config.n_irqs do
      let level, vector =
        List.nth config.irq_choices (rng_int r (List.length config.irq_choices))
      in
      let cpu =
        match config.irq_cpus with
        | [] -> None
        | cs -> Some (List.nth cs (rng_int r (List.length cs)))
      in
      add (Spurious_irq { cpu; level; vector })
    done;
  if config.core_stall_cpus <> [] then
    for _ = 1 to config.n_core_stalls do
      let cpu =
        List.nth config.core_stall_cpus
          (rng_int r (List.length config.core_stall_cpus))
      in
      add
        (Core_stall
           { cpu; stall_cycles = 1000 + rng_int r config.core_stall_cycles })
    done;
  if config.flip_len > 0 then
    for _ = 1 to config.n_flips do
      add
        (Bit_flip
           {
             target = Data;
             addr = config.flip_base + rng_int r config.flip_len;
             bit = rng_int r 31;
           })
    done;
  if config.code_regions <> [] then
    for _ = 1 to config.n_code_flips do
      let base, len =
        List.nth config.code_regions (rng_int r (List.length config.code_regions))
      in
      add
        (Bit_flip
           { target = Code; addr = base + rng_int r (max 1 len); bit = rng_int r 31 })
    done;
  if config.stall_devices <> [] then begin
    for _ = 1 to config.n_stalls do
      let device =
        List.nth config.stall_devices (rng_int r (List.length config.stall_devices))
      in
      add (Stall { device; delay_cycles = 1000 + rng_int r 20_000 })
    done;
    for _ = 1 to config.n_drops do
      let device =
        List.nth config.stall_devices (rng_int r (List.length config.stall_devices))
      in
      add (Drop_completion { device })
    done
  end;
  let cas_gaps =
    List.init config.n_cas_fails (fun _ -> 1 + rng_int r config.cas_gap)
  in
  let events =
    List.sort (fun a b -> compare a.ev_after b.ev_after) !events
  in
  { seed; events; cas_gaps }

(* Hand-built plan for targeted scenarios and tests: same machinery,
   explicitly chosen events instead of seed-expanded ones, and no
   forced CAS failures. *)
let make_plan ~seed events =
  {
    seed;
    events = List.sort (fun a b -> compare a.ev_after b.ev_after) events;
    cas_gaps = [];
  }

(* ---------------------------------------------------------------- *)
(* Arming: a host-side device that fires the plan's events *)

type t = {
  fi_plan : plan;
  mutable fi_pending : event list;
  fi_base_cycle : int; (* plan times are relative to arm time *)
  mutable fi_dev : Machine.device option;
  mutable fi_injected : int;
}

let fire t m action =
  t.fi_injected <- t.fi_injected + 1;
  match action with
  | Spurious_irq { cpu; level; vector } ->
    Machine.post_interrupt ?cpu ~source:"kfault" m ~level ~vector
  | Bit_flip { target = Data; addr; bit } ->
    Machine.poke m addr (Machine.peek m addr lxor (1 lsl bit))
  | Bit_flip { target = Code; addr; bit } -> corrupt_code m ~addr ~bit
  | Stall { device; delay_cycles } -> (
    match Machine.find_device m device with
    | Some d when d.Machine.next_due <> max_int ->
      Machine.device_schedule m d (d.Machine.next_due + delay_cycles)
    | _ -> ())
  | Drop_completion { device } -> (
    match Machine.find_device m device with
    | Some d when d.Machine.next_due <> max_int -> Machine.device_idle m d
    | _ -> ())
  | Power_cut { device; torn_words } -> Machine.power_cut m ~device ~torn_words
  | Core_stall { cpu; stall_cycles } ->
    if cpu >= 0 && cpu < Machine.num_cores m then
      Machine.stall_core m ~cpu ~cycles:stall_cycles
  | Frame_fault { device; dir; kind } ->
    Machine.frame_fault m ~device ~dir ~kind

let rec schedule t m dev =
  match t.fi_pending with
  | [] -> Machine.remove_device m dev; t.fi_dev <- None
  | e :: _ ->
    let due = t.fi_base_cycle + e.ev_after in
    if due > Machine.cycles m then Machine.device_schedule m dev due
    else tick t m dev

and tick t m dev =
  let now = Machine.cycles m in
  let due, rest =
    List.partition (fun e -> t.fi_base_cycle + e.ev_after <= now) t.fi_pending
  in
  t.fi_pending <- rest;
  List.iter (fun e -> fire t m e.ev_action) due;
  schedule t m dev

let arm_cas t m =
  (* chain the gap list: each forced failure's hook arms the next *)
  let rec arm_gap m gaps =
    match gaps with
    | [] -> ()
    | g :: rest ->
      Machine.set_cas_fail m
        ~at:(Machine.cas_executed m + g)
        ~hook:(fun m' ->
          t.fi_injected <- t.fi_injected + 1;
          arm_gap m' rest)
  in
  arm_gap m t.fi_plan.cas_gaps

let arm m plan =
  let t =
    {
      fi_plan = plan;
      fi_pending = plan.events;
      fi_base_cycle = Machine.cycles m;
      fi_dev = None;
      fi_injected = 0;
    }
  in
  (match plan.events with
  | [] -> ()
  | e :: _ ->
    let dev =
      Machine.add_device m ~name:"kfault"
        ~due:(t.fi_base_cycle + e.ev_after)
        ~tick:(fun m' ->
          match t.fi_dev with Some d -> tick t m' d | None -> ())
    in
    t.fi_dev <- Some dev);
  arm_cas t m;
  t

let disarm m t =
  (match t.fi_dev with
  | Some d -> Machine.remove_device m d; t.fi_dev <- None
  | None -> ());
  t.fi_pending <- [];
  Machine.clear_cas_fail m

let injected t = t.fi_injected
