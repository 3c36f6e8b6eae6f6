(* Synthesis threads (§4).

   A thread's whole state lives in its TTE.  Creation fills the
   ~1 KiB TTE block and synthesizes the thread's private kernel code:
   context-switch procedures and per-thread read/write syscall
   dispatchers with the TTE's addresses folded in.  The thread
   operations — signal, start, stop, step, destroy — are cheap because
   they manipulate only the TTE and the executable ready queue. *)

open Quamachine
module I = Insn
module L = Layout.Tte

(* -------------------------------------------------------------- *)
(* Per-thread syscall dispatchers.

   `open` stores synthesized routine addresses in the caller's fd
   tables; the dispatcher for read (or write) is three instructions of
   bound check plus an indirect jump straight into the specialized
   routine (§5.3: "system calls are frequently customized for each
   thread"). *)

let dispatcher_template ~fdtab =
  Template.make ~name:"fd_dispatch" (fun () ->
      [
        I.Cmp (I.Imm L.max_fds, I.Reg I.r1); (* flags from fd - max *)
        I.B (I.Cc, I.To_label "bad"); (* unsigned fd >= max *)
        I.Move (I.Reg I.r1, I.Reg I.r4);
        I.Alu (I.Add, I.Imm fdtab, I.r4);
        I.Jmp (I.To_mem (I.Ind I.r4)); (* into the synthesized routine *)
        I.Label "bad";
        I.Move (I.Imm (-1), I.Reg I.r0);
        I.Rte;
      ])

(* -------------------------------------------------------------- *)
(* Creation (Table 3: ~142 us — ~100 us to fill the TTE, the rest is
   code synthesis) *)

(* every thread's user stack *)
let ustack_words = 512

let create k ?cpu ?(quantum_us = 200) ?(uses_fp = false) ?(segments = [])
    ?(system = false) ?share_map ~entry () =
  let m = k.Kernel.machine in
  (* home core: the creating core unless pinned explicitly *)
  let cpu =
    match cpu with
    | Some c ->
      if c < 0 || c >= Kernel.cores k then invalid_arg "Thread.create: bad cpu";
      c
    | None -> Kernel.this_cpu k
  in
  let tid = k.Kernel.next_tid in
  k.Kernel.next_tid <- tid + 1;
  let base = Kalloc.alloc_zeroed k.Kernel.alloc L.size_words in
  (* user stacks are not zero-filled: only the ~1 KiB TTE is (§6.3) *)
  let ustack = Kalloc.alloc k.Kernel.alloc ustack_words in
  (* Threads may share a quaspace (§2.1); sharing also selects the
     cheaper non-MMU switch-in path between them (§4.2). *)
  let map_id =
    match share_map with
    | Some (other : Kernel.tte) ->
      let id = other.Kernel.map_id in
      let existing = Machine.map_segments m ~id in
      Machine.define_map m ~id (((ustack, ustack_words) :: segments) @ existing);
      id
    | None ->
      Machine.define_map m ~id:tid ((ustack, ustack_words) :: segments);
      tid
  in
  let save = base + L.off_regs in
  let kstack_top = base + L.off_kstack + L.kstack_words in
  (* initial register image: user mode, empty stacks, PC at entry *)
  Machine.poke m (save + 15) kstack_top;
  Machine.poke m (save + 16) 0; (* SR: user mode, IPL 0 *)
  Machine.poke m (save + 17) entry;
  Machine.poke m (save + 18) (ustack + ustack_words);
  Machine.poke m (base + L.off_tid) tid;
  Machine.poke m (base + L.off_map) map_id;
  Machine.poke m (base + L.off_quantum) quantum_us;
  Machine.poke m (base + L.off_flags) (if uses_fp then 1 else 0);
  Machine.charge_refs m 8;
  (* vector table: the boot-time defaults *)
  for i = 0 to Insn.Vector.table_size - 1 do
    Machine.poke m (base + L.off_vectors + i) k.Kernel.default_vectors.(i)
  done;
  Machine.charge_refs m Insn.Vector.table_size;
  (* fd tables: all descriptors invalid *)
  let bad_fd = Ksynth.lookup k "bad_fd" in
  for i = 0 to (2 * L.max_fds) - 1 do
    Machine.poke m (base + L.off_fd_read + i) bad_fd
  done;
  Machine.charge_refs m (2 * L.max_fds);
  let t =
    {
      Kernel.tid;
      base;
      map_id;
      cpu;
      state = Kernel.Stopped;
      sw_out = 0;
      sw_in = 0;
      sw_in_mmu = 0;
      jmp_slot = 0;
      quantum_slot = 0;
      uses_fp;
      quantum_us;
      rq_next = None;
      rq_prev = None;
      waiting_on = None;
      owned_blocks = [ base; ustack ];
      owned_pages = [];
      is_system = system;
      entry;
      ustack;
    }
  in
  Hashtbl.replace k.Kernel.threads tid t;
  Hashtbl.replace k.Kernel.by_base base t;
  (* synthesize the thread's private kernel code *)
  let c = Ctx.synthesize k ~cpu ~tte_base:base ~tid ~map_id ~quantum_us ~uses_fp () in
  Ctx.apply_switch_code k t c;
  let dispatcher which off =
    let h =
      Ksynth.instantiate k
        ~name:(Printf.sprintf "thread/t%d/%s_dispatch" tid which)
        ~template:(dispatcher_template ~fdtab:(base + off))
    in
    t.Kernel.owned_pages <- Ksynth.entry h :: t.Kernel.owned_pages;
    Ksynth.entry h
  in
  Kernel.set_vector k t (Insn.Vector.trap 1) (dispatcher "read" L.off_fd_read);
  Kernel.set_vector k t (Insn.Vector.trap 2) (dispatcher "write" L.off_fd_write);
  (* make it runnable on its home core's ring *)
  Ready_queue.insert_front k t;
  t

(* -------------------------------------------------------------- *)
(* Destroy, stop, start, step (Table 3) *)

let destroy k t =
  if Ready_queue.in_queue t then Ready_queue.remove k t;
  t.Kernel.state <- Kernel.Zombie;
  Hashtbl.remove k.Kernel.threads t.Kernel.tid;
  Hashtbl.remove k.Kernel.by_base t.Kernel.base;
  List.iter (fun b -> Kalloc.free k.Kernel.alloc b) t.Kernel.owned_blocks;
  t.Kernel.owned_blocks <- [];
  (* drop the thread's claims on its synthesized pages: detached pages
     (switch code, patched by the ready ring) free and recycle, cached
     ones stay warm for the next same-shape thread *)
  List.iter (fun e -> Ksynth.release_entry k e) t.Kernel.owned_pages;
  t.Kernel.owned_pages <- [];
  (* map teardown and table bookkeeping *)
  Machine.charge k.Kernel.machine 110

(* Suspend: unlink the TTE from the ready queue (§4.3).

   Two fixes from the kfault ready-queue sweep:
   - the state flips to Stopped *before* the unlink, so the rebalance
     inside [Ready_queue.remove] never re-inserts a thread that is
     being stopped (pre-fix, stopping the idle thread put it back in
     the ring Ready and then marked the in-ring thread Stopped);
   - stopping the *running* thread arms the quantum timer, mirroring
     [start]: its eventual switch-out lands in the ring within
     microseconds instead of whenever the old quantum expires. *)
let stop k t =
  if t.Kernel.state = Kernel.Ready then t.Kernel.state <- Kernel.Stopped;
  let is_current =
    match Kernel.current ~cpu:t.Kernel.cpu k with
    | Some c -> c == t
    | None -> false
  in
  if Ready_queue.in_queue t then Ready_queue.remove k t;
  if is_current then Devices.Timer.arm (Kernel.timer_for k t.Kernel.cpu) ~us:2.0;
  Machine.charge k.Kernel.machine 90

(* Resume: put the TTE back, at the front. *)
let start k t =
  if not (Ready_queue.in_queue t) then begin
    Ready_queue.insert_front k t;
    t.Kernel.state <- Kernel.Ready;
    (* front of the queue means immediate access to the home CPU (§4.4) *)
    Devices.Timer.arm (Kernel.timer_for k t.Kernel.cpu) ~us:2.0
  end;
  Machine.charge k.Kernel.machine 90

let saved_sr k t = Machine.peek k.Kernel.machine (t.Kernel.base + L.off_regs + 16)
let saved_pc k t = Machine.peek k.Kernel.machine (t.Kernel.base + L.off_pc)

let set_saved_reg k t r v = Machine.poke k.Kernel.machine (t.Kernel.base + L.off_regs + r) v
let saved_reg k t r = Machine.peek k.Kernel.machine (t.Kernel.base + L.off_regs + r)

(* Single-step a stopped thread: set the trace bit in its saved SR and
   start it; the trace-trap handler stops it again after one
   instruction (§4.3: debugger support). *)
let step k t =
  let m = k.Kernel.machine in
  let sr = saved_sr k t in
  Machine.poke m (t.Kernel.base + L.off_regs + 16) (sr lor (1 lsl 15));
  start k t;
  Machine.charge m 20

(* A stopped thread's context is only in its TTE once the trace/stop
   handler has switched it out; until then the save area is stale.
   Debugger-style hosts must wait for this before reading registers or
   stepping again. *)
let fully_stopped k t =
  t.Kernel.state = Kernel.Stopped
  &&
  match Kernel.current ~cpu:t.Kernel.cpu k with
  | Some c -> not (c == t)
  | None -> true

(* -------------------------------------------------------------- *)
(* Crash restart.

   The flow-rate watchdog restarts stalled *flows*; this restarts a
   crashed *thread*: rebuild the initial register image from the
   creation parameters kept in the TTE (entry point, stack extents),
   clear any half-delivered signal state, and reinsert at the front of
   the ready queue.  The synthesized switch code, vector table, and fd
   tables survive — only the context is re-created, so a restart costs
   about a TTE refill, not a full create.  Exposed to lower layers as
   [Kernel.restart_thread] (hook installed at boot). *)

let restart k t =
  if t.Kernel.state = Kernel.Zombie then
    invalid_arg "Thread.restart: thread was destroyed";
  let m = k.Kernel.machine in
  let save = t.Kernel.base + L.off_regs in
  for i = 0 to 14 do
    Machine.poke m (save + i) 0
  done;
  Machine.poke m (save + 15) (t.Kernel.base + L.off_kstack + L.kstack_words);
  (* the idle threads are the one kind of context that starts in
     kernel mode *)
  let sr = if Kernel.is_idle k t then Ctx.kernel_sr else 0 in
  Machine.poke m (save + 16) sr;
  Machine.poke m (save + 17) t.Kernel.entry;
  Machine.poke m (save + 18) (t.Kernel.ustack + ustack_words);
  Machine.poke m (t.Kernel.base + L.off_sig_inh) 0;
  Machine.poke m (t.Kernel.base + L.off_sig_queued) 0;
  Machine.charge_refs m 23;
  t.Kernel.waiting_on <- None;
  t.Kernel.state <- Kernel.Ready;
  if not (Ready_queue.in_queue t) then Ready_queue.insert_front k t;
  Devices.Timer.arm (Kernel.timer_for k t.Kernel.cpu) ~us:2.0;
  Metrics.bump k.Kernel.metrics "kernel.thread_restarts_total";
  Kernel.trace k (Ktrace.Fault "thread_restart");
  (* TTE refill without allocation or code synthesis *)
  Machine.charge m 100

(* -------------------------------------------------------------- *)
(* Signals (§4.3)

   Delivery rewrites a return address — the TTE's saved PC for a
   thread suspended in user mode, the deepest exception frame on the
   thread's kernel stack for a thread inside a kernel operation
   (Procedure Chaining: "changing the return addresses on the
   stack").  The original PC is stashed in the TTE; the trampoline's
   final `sigreturn` trap restores it. *)

let deepest_frame_pc_slot t =
  (* the first trap on an empty kernel stack pushed PC then SR *)
  t.Kernel.base + L.off_kstack + L.kstack_words - 1

(* SMP: interrupt level of the cross-core signal IPI.  A thread that
   is running on another core *right now* has its context in that
   core's registers — neither its TTE save area nor the signalling
   core's live frame is valid to rewrite.  Delivery queues the target
   on [k.sig_xc] and interrupts the home core; the boot-installed IPI
   handler re-runs delivery there, where the target is current with a
   live exception frame. *)
let sig_ipi_level = 1
let sig_ipi_vector = I.Vector.autovector sig_ipi_level

let rec deliver_signal k t =
  let m = k.Kernel.machine in
  let tramp = Machine.peek m (t.Kernel.base + L.off_sig_handler) in
  if tramp = 0 then false (* no handler registered: ignored *)
  else if Machine.peek m (t.Kernel.base + L.off_sig_inh) <> 0 then begin
    (* a handler is already running (or pending): coalesce — the
       sigreturn path re-runs the handler for queued deliveries *)
    Machine.poke m (t.Kernel.base + L.off_sig_queued)
      (Machine.peek m (t.Kernel.base + L.off_sig_queued) + 1);
    Machine.charge_refs m 2;
    Machine.charge m 30;
    true
  end
  else begin
    let home = t.Kernel.cpu in
    let running_on_home =
      match Kernel.current ~cpu:home k with Some c -> c == t | None -> false
    in
    if running_on_home && home <> Kernel.this_cpu k then begin
      if not (List.memq t k.Kernel.sig_xc) then
        k.Kernel.sig_xc <- t :: k.Kernel.sig_xc;
      Machine.post_interrupt ~source:"sig_ipi" ~cpu:home m ~level:sig_ipi_level
        ~vector:sig_ipi_vector;
      Machine.charge m 30;
      true
    end
    else deliver_here k t tramp
  end

and deliver_here k t tramp =
  let m = k.Kernel.machine in
  begin
    let is_current = match Kernel.current k with Some c -> c == t | None -> false in
    let slot =
      if is_current then
        (* live trap frame of the in-progress syscall: SP -> [SR][PC] *)
        Machine.get_reg m I.sp + 1
      else if saved_sr k t land (1 lsl 13) <> 0 then
        (* suspended inside a kernel continuation: chain the signal to
           the end of the kernel operation via the original frame *)
        deepest_frame_pc_slot t
      else t.Kernel.base + L.off_pc
    in
    Machine.poke m (t.Kernel.base + L.off_sig_pending) (Machine.peek m slot);
    Machine.poke m slot tramp;
    Machine.poke m (t.Kernel.base + L.off_sig_inh) 1;
    Machine.charge_refs m 5;
    Machine.charge m 90;
    true
  end

(* IPI drain, run by the boot-installed handler on the interrupted
   core: re-deliver every queued signal whose target calls this core
   home.  By now the target is either current here (live-frame path)
   or switched out (save-area path) — both valid. *)
let drain_cross_signals k =
  let mine, rest =
    List.partition (fun t -> t.Kernel.cpu = Kernel.this_cpu k) k.Kernel.sig_xc
  in
  k.Kernel.sig_xc <- rest;
  List.iter (fun t -> ignore (deliver_signal k t)) mine

(* Register a signal handler for thread [t]: synthesizes the user-mode
   trampoline with the handler address folded in. *)
let set_signal_handler k t handler =
  let tramp_template =
    Template.make ~name:"sig_tramp" (fun () ->
        [
          I.Movem_save ([ 0; 1; 2; 3; 4; 5; 6; 7 ], I.sp);
          I.Jsr (I.To_addr handler);
          I.Movem_load (I.sp, [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
          I.Trap 9; (* sigreturn *)
        ])
  in
  let h =
    Ksynth.instantiate k
      ~name:(Printf.sprintf "signal/t%d/tramp" t.Kernel.tid)
      ~template:tramp_template
  in
  (* re-registering drops the claim on the previous trampoline *)
  let old = Machine.peek k.Kernel.machine (t.Kernel.base + L.off_sig_handler) in
  if old <> 0 then begin
    Ksynth.release_entry k old;
    t.Kernel.owned_pages <- List.filter (fun e -> e <> old) t.Kernel.owned_pages
  end;
  t.Kernel.owned_pages <- Ksynth.entry h :: t.Kernel.owned_pages;
  Machine.poke k.Kernel.machine (t.Kernel.base + L.off_sig_handler) (Ksynth.entry h)

(* -------------------------------------------------------------- *)
(* Error traps (§4.3).

   "To allow arbitrarily complex error handling in user mode, we send
   an error signal to the interrupted thread itself": the synthesized
   per-thread error trap handler copies the exception frame onto the
   user stack, rewrites the kernel frame to enter the user error
   procedure, and returns from the exception.  The user procedure
   finds the faulting PC and SR on its stack — enough to emulate an
   unimplemented instruction and resume past it. *)

let error_trap_template ~user_proc =
  Template.make ~name:"error_trap" (fun () ->
      [
        I.Pop I.r4; (* SR of the faulting context *)
        I.Pop I.r5; (* PC of the faulting instruction *)
        (* copy the frame onto the user stack *)
        I.Move (I.Abs Mmio_map.usp, I.Reg I.r6);
        I.Alu (I.Sub, I.Imm 2, I.r6);
        I.Move (I.Reg I.r5, I.Ind I.r6); (* faulting PC *)
        I.Move (I.Reg I.r4, I.Idx (I.r6, 1)); (* faulting SR *)
        I.Move (I.Reg I.r6, I.Abs Mmio_map.usp);
        (* re-enter user mode at the error procedure *)
        I.Push (I.Imm user_proc);
        I.Push (I.Reg I.r4); (* the faulting context's own SR *)
        I.Rte;
      ])

(* Install a user-mode error procedure for [t]: synthesizes the trap
   handler once and points the thread's error vectors at it. *)
let set_error_handler k t ~user_proc =
  let h =
    Ksynth.instantiate k
      ~name:(Printf.sprintf "error/t%d/trap" t.Kernel.tid)
      ~template:(error_trap_template ~user_proc)
  in
  let entry = Ksynth.entry h in
  t.Kernel.owned_pages <- entry :: t.Kernel.owned_pages;
  List.iter
    (fun v -> Kernel.set_vector k t v entry)
    [
      Insn.Vector.bus_error;
      Insn.Vector.illegal;
      Insn.Vector.div_zero;
      Insn.Vector.privilege;
    ];
  entry

(* -------------------------------------------------------------- *)
(* Blocking protocol.

   A synthesized kernel path that must wait emits [block_code]: a host
   call moves the TTE to the resource's wait queue and unlinks it from
   the ready queue; the code then pushes a kernel continuation frame
   (resume at [retry] in supervisor mode) and jumps through the
   current thread's switch-out.  Unblocking reinserts at the front of
   the ready queue.  Cost: ~4 us each way (Table 4). *)

let block_hcall k (wq : Kernel.waitq) =
  if wq.Kernel.wq_block_hcall >= 0 then wq.Kernel.wq_block_hcall
  else begin
    let id =
      Machine.register_hcall k.Kernel.machine (fun m ->
          let cur = Kernel.current_exn k in
          if Ready_queue.in_queue cur then Ready_queue.remove k cur;
          cur.Kernel.state <- Kernel.Blocked;
          cur.Kernel.waiting_on <- Some wq.Kernel.wq_name;
          wq.Kernel.waiters <- wq.Kernel.waiters @ [ cur ];
          Kernel.trace k (Ktrace.Block (wq.Kernel.wq_name, cur.Kernel.tid));
          Machine.charge m 20)
    in
    wq.Kernel.wq_block_hcall <- id;
    id
  end

let unblock k (wq : Kernel.waitq) =
  match wq.Kernel.waiters with
  | [] -> None
  | t :: rest ->
    wq.Kernel.waiters <- rest;
    t.Kernel.state <- Kernel.Ready;
    t.Kernel.waiting_on <- None;
    (* a restarted thread may have been pulled back into the ring
       while its stale waitq entry survived; inserting again would
       corrupt the executable chain *)
    if not (Ready_queue.in_queue t) then Ready_queue.insert_front k t;
    (* Minimize response time to the event (section 4.4).  The arm is
       a little longer than any interrupt handler so that a wake-up
       performed from handler context never preempts the handler
       itself mid-flight; it targets the woken thread's home core. *)
    Devices.Timer.arm (Kernel.timer_for k t.Kernel.cpu) ~us:30.0;
    Kernel.trace k (Ktrace.Unblock (wq.Kernel.wq_name, t.Kernel.tid));
    Machine.charge k.Kernel.machine 20;
    Some t

(* Wake every waiter (completion events where any sleeper may now be
   able to make progress; each re-checks its condition on resume). *)
let rec unblock_all k wq =
  match unblock k wq with None -> () | Some _ -> unblock_all k wq

let unblock_hcall k (wq : Kernel.waitq) =
  if wq.Kernel.wq_unblock_hcall >= 0 then wq.Kernel.wq_unblock_hcall
  else begin
    let id = Machine.register_hcall k.Kernel.machine (fun _ -> ignore (unblock k wq)) in
    wq.Kernel.wq_unblock_hcall <- id;
    id
  end

(* Instruction fragment that blocks the current thread on [wq] and
   resumes at [retry] (a label in the enclosing fragment). *)
let block_code k wq ~retry =
  [
    I.Set_ipl 6; (* keep the timer out of the voluntary switch *)
    I.Hcall (block_hcall k wq);
    I.Push (I.Lbl retry);
    I.Push (I.Imm Ctx.kernel_sr);
    (* through the MMIO window: this fragment is shared kernel code and
       must switch out whichever core is executing it *)
    I.Jmp (I.To_mem (I.Abs Mmio_map.cur_sw_out));
  ]
