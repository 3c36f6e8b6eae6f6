(* Kernel bring-up.

   Installs the boot-time shared kernel code (default trap and error
   handlers, the thread-operation system calls), creates the idle
   thread, wires up the name space, and transfers control to the first
   thread by jumping into its synthesized switch-in code. *)

open Quamachine
module I = Insn

type t = {
  kernel : Kernel.t;
  vfs : Vfs.t;
  idle : Kernel.tte; (* core 0's idle thread *)
  mutable at_boot : (unit -> unit) list;
      (* run (in registration order) by [go] once the scheduler is
         entered, before user threads get the machine — file-system
         recovery hooks live here *)
  mutable entered : bool;
      (* core 0 holds a live context from an earlier [go]: the next
         one resumes it instead of staging the core again *)
}

let at_boot b f = b.at_boot <- b.at_boot @ [ f ]

(* ---------------------------------------------------------------- *)
(* Termination policy: when the last non-idle thread exits, halt the
   simulation. *)

let live_threads k =
  Hashtbl.fold
    (fun _ t acc -> if t.Kernel.state <> Kernel.Zombie then t :: acc else acc)
    k.Kernel.threads []

(* Are there any non-system, non-zombie threads left at all?  Kernel
   service threads (idle, tty filter, pumps) don't keep the machine
   alive on their own. *)
let work_remaining k =
  List.exists (fun t -> not t.Kernel.is_system) (live_threads k)

(* ---------------------------------------------------------------- *)
(* Shared handlers *)

let install_fault_handlers k =
  let kill reason m =
    (* everything here keys off the *executing* core: its current
       thread dies and its own ready ring supplies the successor *)
    let cpu = Kernel.this_cpu k in
    let cur = Kernel.current_exn k in
    Kernel.log_fault k ~tid:cur.Kernel.tid ~reason;
    let next =
      if Ready_queue.in_queue cur then Some (Ready_queue.next_exn cur)
      else Kernel.anchor k cpu
    in
    Thread.destroy k cur;
    if not (work_remaining k) then Machine.set_halted m true
    else
      match (next, Kernel.anchor k cpu) with
      | Some n, _ when n.Kernel.state = Kernel.Ready && Ready_queue.in_queue n ->
        Machine.set_pc m n.Kernel.sw_in_mmu
      | _, Some a -> Machine.set_pc m a.Kernel.sw_in_mmu
      | _, None -> Machine.set_halted m true
  in
  let install vector reason =
    let id = Machine.register_hcall k.Kernel.machine (kill reason) in
    let entry, _ =
      Ksynth.install k ~name:("fault/" ^ reason) [ I.Set_ipl 7; I.Hcall id ]
    in
    k.Kernel.default_vectors.(vector) <- entry
  in
  install I.Vector.bus_error "bus_error";
  (* kheal detection channel: the machine rewinds the PC to the
     faulting instruction before taking the exception, so the frame at
     [sp+1] names the instruction that failed to decode.  If it lies
     inside a registered synthesized region that no longer matches its
     checksum, the fault *is* code corruption: resynthesize the region
     in place and Rte — the repaired instruction re-executes and the
     thread never notices.  Anything else is a genuine illegal
     instruction and kills the thread as before (the kill path sets
     the PC itself, skipping the Rte). *)
  let heal_id =
    Machine.register_hcall k.Kernel.machine (fun m ->
        let pc = Machine.peek m (Machine.get_reg m I.sp + 1) in
        match Kernel.find_region k pc with
        | Some r when Kernel.region_dirty k r ->
          Kernel.repair_region ~origin:"trap" k r
        | Some _ ->
          (* In a region that checksums clean.  A clean region is the
             synthesizer's own output plus recorded patches, which
             never contains an undecodable instruction — so the
             corruption that trapped was already repaired by the other
             detection channel (the watchdog's checksum walk runs on
             device ticks, which can land between the trap and this
             check).  Rte retries the healed instruction; killing here
             would shoot a thread whose code is already correct. *)
          ()
        | None -> kill (Printf.sprintf "illegal@%d(no region)" pc) m)
  in
  let illegal_entry, _ =
    Ksynth.install k ~name:"fault/illegal"
      [ I.Set_ipl 7; I.Hcall heal_id; I.Rte ]
  in
  k.Kernel.default_vectors.(I.Vector.illegal) <- illegal_entry;
  install I.Vector.div_zero "div_zero";
  install I.Vector.privilege "privilege"

let install_shared_handlers k =
  let m = k.Kernel.machine in
  (* invalid descriptor *)
  let bad_fd, _ =
    Ksynth.install k ~name:"bad_fd" [ I.Move (I.Imm (-1), I.Reg I.r0); I.Rte ]
  in
  ignore bad_fd;
  (* default for unimplemented traps *)
  let unimpl, _ =
    Ksynth.install k ~name:"unimpl_syscall"
      [ I.Move (I.Imm (-1), I.Reg I.r0); I.Rte ]
  in
  for i = 0 to I.Vector.table_size - 1 do
    if k.Kernel.default_vectors.(i) = 0 then k.Kernel.default_vectors.(i) <- unimpl
  done;
  (* Hardware interrupt autovectors must NOT fall back to the trap
     default: returning -1 in r0 is the syscall convention, but an
     interrupt arrives asynchronously and r0 is the interrupted
     thread's live register (kfault found a stray disk irq turning a
     queue op's "would block" into a phantom success).  A stray irq is
     dismissed with a bare Rte, preserving every register. *)
  let stray_irq, _ = Ksynth.install k ~name:"stray_irq" [ I.Rte ] in
  for level = 1 to 7 do
    let v = I.Vector.autovector level in
    if k.Kernel.default_vectors.(v) = unimpl then
      k.Kernel.default_vectors.(v) <- stray_irq
  done;
  install_fault_handlers k;
  (* trap 5: yield — the frame is already on the stack; just switch.
     Shared code, so the switch-out address comes through the per-core
     MMIO window: whichever core yields switches its own thread out. *)
  let yield, _ =
    Ksynth.install k ~name:"syscall/yield"
      [ I.Set_ipl 6; I.Jmp (I.To_mem (I.Abs Mmio_map.cur_sw_out)) ]
  in
  k.Kernel.default_vectors.(I.Vector.trap 5) <- yield;
  (* trap 0: exit — destroy the calling thread and run the next one *)
  let exit_id =
    Machine.register_hcall m (fun m ->
        let cpu = Kernel.this_cpu k in
        let cur = Kernel.current_exn k in
        let next =
          if Ready_queue.in_queue cur then Some (Ready_queue.next_exn cur) else None
        in
        Thread.destroy k cur;
        if not (work_remaining k) then Machine.set_halted m true
        else
          match (next, Kernel.anchor k cpu) with
          | Some n, _ when Ready_queue.in_queue n -> Machine.set_pc m n.Kernel.sw_in_mmu
          | _, Some a -> Machine.set_pc m a.Kernel.sw_in_mmu
          | _, None -> Machine.set_halted m true)
  in
  let exit_h, _ =
    Ksynth.install k ~name:"syscall/exit" [ I.Set_ipl 7; I.Hcall exit_id ]
  in
  k.Kernel.default_vectors.(I.Vector.trap 0) <- exit_h;
  (* trace trap: the debugger's step support — stop the thread again *)
  let trace_stop_id =
    Machine.register_hcall m (fun mm ->
        let cur = Kernel.current_exn k in
        if Ready_queue.in_queue cur then Ready_queue.remove k cur;
        cur.Kernel.state <- Kernel.Stopped;
        (* clear the trace bit in the frame's saved SR *)
        let sp = Machine.get_reg mm I.sp in
        Machine.poke mm sp (Machine.peek mm sp land lnot (1 lsl 15)))
  in
  let trace_h, _ =
    Ksynth.install k ~name:"trap/trace"
      [
        I.Set_ipl 6;
        I.Hcall trace_stop_id;
        I.Jmp (I.To_mem (I.Abs Mmio_map.cur_sw_out));
      ]
  in
  k.Kernel.default_vectors.(I.Vector.trace) <- trace_h;
  (* FP-unavailable: resynthesize the thread's switch code with FP *)
  let fp_id =
    Machine.register_hcall m (fun mm ->
        let cur = Kernel.current_exn k in
        Ctx.resynthesize_with_fp k cur;
        Machine.set_fp_enabled mm true)
  in
  let fp_h, _ =
    Ksynth.install k ~name:"trap/fp_resynth" [ I.Hcall fp_id; I.Rte ]
  in
  k.Kernel.default_vectors.(I.Vector.fp_unavailable) <- fp_h;
  (* trap 6: signal (r1 = target tid) *)
  let signal_id =
    Machine.register_hcall m (fun mm ->
        let tid = Machine.get_reg mm I.r1 in
        match Kernel.thread k tid with
        | Some target ->
          let ok = Thread.deliver_signal k target in
          Machine.set_reg mm I.r0 (if ok then 0 else -1)
        | None -> Machine.set_reg mm I.r0 (-1))
  in
  let signal_h, _ =
    Ksynth.install k ~name:"syscall/signal" [ I.Hcall signal_id; I.Rte ]
  in
  k.Kernel.default_vectors.(I.Vector.trap 6) <- signal_h;
  (* trap 8: register signal handler (r1 = handler address) *)
  let sethandler_id =
    Machine.register_hcall m (fun mm ->
        let cur = Kernel.current_exn k in
        Thread.set_signal_handler k cur (Machine.get_reg mm I.r1);
        Machine.set_reg mm I.r0 0)
  in
  let sethandler_h, _ =
    Ksynth.install k ~name:"syscall/sethandler" [ I.Hcall sethandler_id; I.Rte ]
  in
  k.Kernel.default_vectors.(I.Vector.trap 8) <- sethandler_h;
  (* trap 9: sigreturn — restore the PC stashed at signal delivery,
     or re-enter the trampoline if deliveries were coalesced while the
     handler ran *)
  let sigreturn_id =
    Machine.register_hcall m (fun mm ->
        let cur = Kernel.current_exn k in
        let base = cur.Kernel.base in
        let queued = Machine.peek mm (base + Layout.Tte.off_sig_queued) in
        let sp = Machine.get_reg mm I.sp in
        if queued > 0 then begin
          Machine.poke mm (base + Layout.Tte.off_sig_queued) (queued - 1);
          Machine.poke mm (sp + 1)
            (Machine.peek mm (base + Layout.Tte.off_sig_handler))
        end
        else begin
          Machine.poke mm (base + Layout.Tte.off_sig_inh) 0;
          Machine.poke mm (sp + 1)
            (Machine.peek mm (base + Layout.Tte.off_sig_pending))
        end;
        Machine.charge_refs mm 4)
  in
  let sigreturn, _ =
    Ksynth.install k ~name:"syscall/sigreturn" [ I.Hcall sigreturn_id; I.Rte ]
  in
  k.Kernel.default_vectors.(I.Vector.trap 9) <- sigreturn;
  (* trap 10: read the microsecond clock into r0 *)
  let gettime, _ =
    Ksynth.install k ~name:"syscall/gettime"
      [ I.Move (I.Abs Mmio_map.rtc_us, I.Reg I.r0); I.Rte ]
  in
  k.Kernel.default_vectors.(I.Vector.trap 10) <- gettime;
  (* trap 7: set alarm (r1 = microseconds); Table 5 "Set alarm".
     The arming thread's tid is read through the per-core window
     (whichever core traps) but stashed in the single global chain
     cell: there is one alarm register, so last-armer-wins applies to
     the chained tid exactly as it does to the deadline. *)
  let alarm_set, _ =
    Ksynth.install k ~name:"syscall/alarm"
      [
        I.Move (I.Abs Mmio_map.cur_tid, I.Abs Layout.chain_scratch_cell);
        I.Move (I.Reg I.r1, I.Abs Mmio_map.alarm_set);
        I.Move (I.Imm 0, I.Reg I.r0);
        I.Rte;
      ]
  in
  k.Kernel.default_vectors.(I.Vector.trap 7) <- alarm_set;
  (* alarm interrupt: signal the thread that armed it (Table 5) *)
  let alarm_fired_id =
    Machine.register_hcall m (fun mm ->
        let tid = Machine.peek mm Layout.chain_scratch_cell in
        match Kernel.thread k tid with
        | Some target -> ignore (Thread.deliver_signal k target)
        | None -> ())
  in
  let alarm_irq, _ =
    Ksynth.install k ~name:"irq/alarm" [ I.Hcall alarm_fired_id; I.Rte ]
  in
  k.Kernel.default_vectors.(Mmio_map.alarm_vector) <- alarm_irq;
  (* cross-core signal IPI: re-deliver queued signals on the home core *)
  let sig_ipi_id =
    Machine.register_hcall m (fun _ -> Thread.drain_cross_signals k)
  in
  let sig_ipi_h, _ =
    Ksynth.install k ~name:"irq/sig_ipi" [ I.Hcall sig_ipi_id; I.Rte ]
  in
  k.Kernel.default_vectors.(Thread.sig_ipi_vector) <- sig_ipi_h;
  (* NIC interrupt: the serving pumps poll their mailbox cells and take
     the wake of a sleeping pump inside their own wait handler, so this
     entry runs only when the card's level reaches a core that is
     busy — a pump that yielded its core still armed, or a shutdown
     wake.  There is nothing to read: return. *)
  let nic_irq, _ = Ksynth.install k ~name:"irq/nic" [ I.Rte ] in
  k.Kernel.default_vectors.(Mmio_map.nic_vector) <- nic_irq

(* ---------------------------------------------------------------- *)
(* The idle thread: waits for interrupts in supervisor mode. *)

(* Each core gets its own idle thread, pinned there; the idle *code*
   is one shared page ([Ksynth.install] memoizes on name + body). *)
let create_idle ?(cpu = 0) k =
  let idle_code, _ =
    Ksynth.install k ~name:"idle_loop"
      [ I.Label "idle"; I.Stop_wait; I.B (I.Always, I.To_label "idle") ]
  in
  let idle =
    Thread.create k ~cpu ~quantum_us:10_000 ~system:true ~entry:idle_code ()
  in
  (* the idle loop needs supervisor state for Stop_wait *)
  Machine.poke k.Kernel.machine
    (idle.Kernel.base + Layout.Tte.off_regs + 16)
    Ctx.kernel_sr;
  Kernel.set_idle k cpu idle;
  idle

(* ---------------------------------------------------------------- *)

let boot ?(cost = Cost.sun3_emulation) ?(cores = 1) () =
  let k = Kernel.create ~cost ~cores () in
  install_shared_handlers k;
  let vfs = Vfs.install k in
  Fs.register_null vfs;
  let idle = create_idle k in
  for c = 1 to cores - 1 do
    ignore (create_idle ~cpu:c k)
  done;
  (* crash recovery: make Thread.restart reachable from layers below
     Thread (Kernel.restart_thread) *)
  k.Kernel.restart_hook <- Some (fun t -> Thread.restart k t);
  { kernel = k; vfs; idle; at_boot = []; entered = false }

(* Bring one secondary core up: stage its supervisor context on a
   private boot stack, aim it at its ring's switch-in, and wake it. *)
let start_secondary k cpu =
  let m = k.Kernel.machine in
  match Kernel.anchor k cpu with
  | None -> invalid_arg "Boot.start_secondary: empty ready ring"
  | Some t ->
    let stack = Kalloc.alloc k.Kernel.alloc 64 in
    Machine.set_active_core m cpu;
    Machine.set_supervisor m true;
    Machine.set_reg m I.sp (stack + 64);
    Machine.set_ipl m 7;
    Machine.set_pc m t.Kernel.sw_in_mmu;
    Machine.start_core m cpu

(* Point core 0 at [t]'s switch-in from a fresh boot stack, in
   supervisor mode at [ipl]. *)
let stage_core0_on k ~ipl (t : Kernel.tte) =
  let m = k.Kernel.machine in
  Machine.set_active_core m 0;
  Machine.set_supervisor m true;
  Machine.set_reg m I.sp Layout.boot_stack_top;
  Machine.set_ipl m ipl;
  Machine.set_pc m t.Kernel.sw_in_mmu

(* Enter the scheduler: each secondary core not yet started is staged
   and woken on its own ready ring, then (with [stage_core0]) core 0
   jumps into its ring's switch-in from a fresh boot stack. *)
let enter_scheduler ?(stage_core0 = true) k =
  let m = k.Kernel.machine in
  for c = 1 to Kernel.cores k - 1 do
    if (not (Machine.core_started m c)) && Kernel.anchor k c <> None then
      start_secondary k c
  done;
  if stage_core0 then
    match Kernel.anchor k 0 with
    | None -> invalid_arg "Boot.go: no runnable threads"
    | Some t -> stage_core0_on k ~ipl:7 t

(* Park core 0 on its idle thread with interrupts open, so host-driven
   synchronous waits (disk reads, recovery hooks) can take completion
   interrupts. *)
let park_on_idle k =
  match Kernel.idle_of k 0 with
  | Some idle -> stage_core0_on k ~ipl:0 idle
  | None -> invalid_arg "Boot.park_on_idle: no idle thread"

(* How many double-fault recoveries one [go] will attempt before
   giving up: a thread that double-faults right back from its entry
   point must not keep the machine alive forever. *)
let double_fault_restart_cap = 3

(* Transfer control to the thread scheduler and run the machine.

   A double fault halts the machine directly (the exception entry
   itself faulted; there is no frame left to recover with); it is
   always recorded so post-mortems see why.  With
   [restart_on_double_fault] the faulting thread is additionally
   restarted through [Kernel.restart_thread] — fresh initial context,
   front of the ready queue — and the scheduler re-entered from a
   clean boot stack, at most [double_fault_restart_cap] times. *)
let go ?(max_insns = max_int) ?(max_cycles = max_int)
    ?(restart_on_double_fault = false) b =
  let k = b.kernel in
  let m = k.Kernel.machine in
  let start = Machine.insns_executed m in
  let start_cycles = Machine.cycles m in
  (* core 0 is staged on the first entry and after a halt; a run that
     spent its budget stopped mid-thread (or asleep) and resumes as it
     was — staging it again would restart the core's anchor from its
     saved context, which is stale if that thread is the one running *)
  let stage = (not b.entered) || Machine.halted m || b.at_boot <> [] in
  (* a previous [go] on this boot may have exited through the idle
     thread's halt; new runnable work means the machine must run again *)
  Machine.set_halted m false;
  (* boot-time hooks (log replay, mounts) may step the machine through
     [read_block_sync]-style waits, so they run parked on the idle
     thread: recovery must finish before any user thread can look at
     the file system *)
  (match b.at_boot with
  | [] -> ()
  | hooks ->
    b.at_boot <- [];
    park_on_idle k;
    List.iter (fun f -> f ()) hooks;
    (* a boot that exists only to recover has no user work to run *)
    if not (work_remaining k) then Machine.set_halted m true);
  enter_scheduler ~stage_core0:stage k;
  b.entered <- true;
  let rec drive restarts =
    let budget = max_insns - (Machine.insns_executed m - start) in
    let cycle_budget = max_cycles - (Machine.cycles m - start_cycles) in
    let r =
      Machine.run ~max_insns:(max budget 0) ~max_cycles:(max cycle_budget 0) m
    in
    if not (Machine.double_faulted m) then r
    else begin
      let cur = Kernel.current k in
      let tid = match cur with Some t -> t.Kernel.tid | None -> 0 in
      Kernel.log_fault k ~tid ~reason:"double_fault";
      (* flight recorder: capture the black box while the wreckage is
         fresh (retrievable from [Kernel.last_postmortem]) *)
      ignore (Kernel.postmortem ~reason:(Fmt.str "double fault (tid %d)" tid) k);
      match cur with
      | Some t
        when restart_on_double_fault
             && restarts < double_fault_restart_cap
             && budget > 0 && cycle_budget > 0 ->
        Machine.clear_double_fault m;
        Machine.set_halted m false;
        Kernel.restart_thread k t;
        enter_scheduler k;
        drive (restarts + 1)
      | _ -> r
    end
  in
  drive 0
