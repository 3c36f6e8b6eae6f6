(* Context-switch code synthesis (§4.2).

   Every thread owns specialized switch-out/switch-in procedures with
   all the thread's invariants — TTE save-area addresses, vector-table
   address, CPU quantum, address-space map — folded in as constants.
   The timer vector of the thread's private vector table points
   directly at its sw_out: there is no dispatcher.

   Threads that have never executed a floating-point instruction get
   switch code without the (expensive) FP save/restore; the first FP
   instruction traps and [resynthesize] rebuilds the switch code with
   FP handling included (lazy-FP, §4.2). *)

open Quamachine
module I = Insn

type switch_code = {
  c_sw_out : int;
  c_sw_in : int;
  c_sw_in_mmu : int;
  c_jmp_slot : int;
  c_quantum_slot : int;
  c_pages : int list; (* ksynth page entries backing the code *)
}

(* SR value for kernel-mode continuations: supervisor, IPL 0. *)
let kernel_sr = 1 lsl 13

(* -------------------------------------------------------------- *)
(* Templates *)

(* sw_out runs as the timer-interrupt handler: the CPU has pushed
   [SR][PC] on the thread's kernel stack.  It stores the entire
   context into the TTE and jumps — through the ready queue's
   patchable jmp — into the next thread's sw_in. *)
let sw_out_template ~uses_fp =
  Template.make ~name:"sw_out" ~params:[ "save"; "fp_save_end" ] (fun p ->
      let save = p "save" in
      List.concat
        [
          [ I.Probe "switch_out" ];
          (* r0..r14 into the register save area *)
          List.init 15 (fun i -> I.Move (I.Reg i, I.Abs (save + i)));
          [
            I.Pop I.r0; (* SR of the interrupted context *)
            I.Move (I.Reg I.r0, I.Abs (save + 16));
            I.Pop I.r0; (* PC of the interrupted context *)
            I.Move (I.Reg I.r0, I.Abs (save + 17));
            I.Move (I.Reg I.sp, I.Abs (save + 15)); (* kernel SP, frame popped *)
            I.Move (I.Abs Mmio_map.usp, I.Abs (save + 18)); (* user SP *)
          ];
          (if uses_fp then
             [ I.Lea (I.Abs (p "fp_save_end"), I.r0); I.Fmovem_save I.r0 ]
           else []);
          [ I.Label "jmp_slot"; I.Jmp (I.To_addr 0) (* patched by Ready_queue *) ];
        ])

(* sw_in restores a thread.  Entered at "sw_in_mmu" when the address
   space must change, at "sw_in" otherwise.

   SMP: the quantum-timer register and the current-thread kernel cells
   are invariants bound to the thread's home core — on core 0 they are
   exactly the uniprocessor's constants, so one-core switch code is
   byte-identical to what the uniprocessor synthesized. *)
let sw_in_template ~uses_fp =
  Template.make ~name:"sw_in"
    ~params:
      [
        "save"; "map_id"; "quantum"; "vtable"; "tte_base"; "tid"; "sw_out";
        "fp_save"; "timer_reg"; "tte_cell"; "tid_cell"; "sw_out_cell";
      ]
    (fun p ->
      let save = p "save" in
      List.concat
        [
          [
            I.Label "sw_in_mmu";
            I.Move_mmu (I.Imm (p "map_id"));
            I.Label "sw_in";
            I.Label "quantum_slot";
            I.Probe "switch_in";
            I.Move (I.Imm (p "quantum"), I.Abs (p "timer_reg"));
            I.Move_vbr (I.Imm (p "vtable"));
            I.Move (I.Imm (p "tte_base"), I.Abs (p "tte_cell"));
            I.Move (I.Imm (p "tid"), I.Abs (p "tid_cell"));
            I.Move (I.Imm (p "sw_out"), I.Abs (p "sw_out_cell"));
            I.Move (I.Imm (if uses_fp then 1 else 0), I.Abs Mmio_map.fp_control);
            I.Move (I.Abs (save + 18), I.Abs Mmio_map.usp); (* user SP *)
            I.Move (I.Abs (save + 15), I.Reg I.sp); (* kernel SP *)
            I.Push (I.Abs (save + 17)); (* PC *)
            I.Push (I.Abs (save + 16)); (* SR *)
          ];
          (if uses_fp then [ I.Lea (I.Abs (p "fp_save"), I.r0); I.Fmovem_load I.r0 ]
           else []);
          List.init 15 (fun i -> I.Move (I.Abs (save + i), I.Reg i));
          [ I.Rte ];
        ])

(* -------------------------------------------------------------- *)
(* Synthesis *)

let synthesize k ?(cpu = 0) ~(tte_base : int) ~tid ~map_id ~quantum_us ~uses_fp
    () =
  let save = tte_base + Layout.Tte.off_regs in
  let vtable = tte_base + Layout.Tte.off_vectors in
  let fp_save = tte_base + Layout.Tte.off_fp_save in
  let fp_save_end = fp_save + (Insn.num_fregs * 3) in
  let label = Printf.sprintf "ctx/t%d" tid in
  let h_out =
    Ksynth.instantiate k ~name:(label ^ "/sw_out")
      ~probes:[ ("switch_out", Kernel.Trace (fun _ -> Ktrace.Switch_out tid)) ]
      ~template:(sw_out_template ~uses_fp)
      ~invariants:[ ("save", save); ("fp_save_end", fp_save_end) ]
  in
  let sw_out = Ksynth.entry h_out in
  let h_in =
    Ksynth.instantiate k ~name:(label ^ "/sw_in")
      ~probes:[ ("switch_in", Kernel.Trace (fun _ -> Ktrace.Switch_in tid)) ]
      ~template:(sw_in_template ~uses_fp)
      ~invariants:
        [
          ("save", save);
          ("map_id", map_id);
          ("quantum", quantum_us);
          ("vtable", vtable);
          ("tte_base", tte_base);
          ("tid", tid);
          ("sw_out", sw_out);
          ("fp_save", fp_save);
          ("timer_reg", Mmio_map.timer_alarm_for cpu);
          ("tte_cell", Layout.cur_tte_cell_for cpu);
          ("tid_cell", Layout.cur_tid_cell_for cpu);
          ("sw_out_cell", Layout.cur_sw_out_cell_for cpu);
        ]
  in
  let c =
    {
      c_sw_out = sw_out;
      c_sw_in = Ksynth.sym h_in "sw_in";
      c_sw_in_mmu = Ksynth.sym h_in "sw_in_mmu";
      c_jmp_slot = Ksynth.sym h_out "jmp_slot";
      c_quantum_slot = Ksynth.sym h_in "quantum_slot";
      c_pages = [ Ksynth.entry h_out; Ksynth.entry h_in ];
    }
  in
  (* the ready ring and the scheduler patch these at run time: they
     hold scheduling state, not template content *)
  Kernel.region_mark_mutable k ~addr:c.c_jmp_slot;
  Kernel.region_mark_mutable k ~addr:c.c_quantum_slot;
  c

(* Install freshly synthesized switch code into [t] and reconnect the
   ready queue around the new entry points. *)
let apply_switch_code k t (c : switch_code) =
  (* resynthesis replaces the thread's claim on its previous switch
     pages (lazy-FP rebuild); at creation there is nothing to drop *)
  List.iter
    (fun e ->
      if e <> 0 && not (List.mem e c.c_pages) then begin
        Ksynth.release_entry k e;
        t.Kernel.owned_pages <- List.filter (fun x -> x <> e) t.Kernel.owned_pages
      end)
    [ t.Kernel.sw_out; t.Kernel.sw_in_mmu ];
  t.Kernel.owned_pages <-
    List.filter (fun e -> not (List.mem e t.Kernel.owned_pages)) c.c_pages
    @ t.Kernel.owned_pages;
  t.Kernel.sw_out <- c.c_sw_out;
  t.Kernel.sw_in <- c.c_sw_in;
  t.Kernel.sw_in_mmu <- c.c_sw_in_mmu;
  t.Kernel.jmp_slot <- c.c_jmp_slot;
  t.Kernel.quantum_slot <- c.c_quantum_slot;
  Kernel.set_vector k t Mmio_map.timer_vector c.c_sw_out;
  if Ready_queue.in_queue t then begin
    let p = Ready_queue.prev_exn t and n = Ready_queue.next_exn t in
    Ready_queue.relink k p t;
    Ready_queue.relink k t n
  end

(* Resynthesize the switch code after the thread's first FP
   instruction trapped: from now on this thread pays for FP state. *)
let resynthesize_with_fp k t =
  t.Kernel.uses_fp <- true;
  let cpu = t.Kernel.cpu in
  let c =
    synthesize k ~cpu ~tte_base:t.Kernel.base ~tid:t.Kernel.tid
      ~map_id:t.Kernel.map_id ~quantum_us:t.Kernel.quantum_us ~uses_fp:true ()
  in
  apply_switch_code k t c;
  (* the running thread's cur_sw_out cell must track the new code *)
  (match Kernel.current ~cpu k with
  | Some cur when cur == t ->
    Machine.poke k.Kernel.machine (Layout.cur_sw_out_cell_for cpu) c.c_sw_out
  | _ -> ())

(* SMP migration: rebuild the switch code with the destination core's
   cell addresses and quantum-timer register bound in.  The thread
   must be off every ready ring — the caller removes it, rehomes it
   here, and reinserts it on the new core's ring. *)
let resynthesize_for_cpu k t ~cpu =
  if Ready_queue.in_queue t then
    invalid_arg "Ctx.resynthesize_for_cpu: thread still queued";
  t.Kernel.cpu <- cpu;
  let c =
    synthesize k ~cpu ~tte_base:t.Kernel.base ~tid:t.Kernel.tid
      ~map_id:t.Kernel.map_id ~quantum_us:t.Kernel.quantum_us
      ~uses_fp:t.Kernel.uses_fp ()
  in
  apply_switch_code k t c

(* -------------------------------------------------------------- *)
(* Partial context switch (§4.2, Table 4: ~3 us).

   Cooperative transfer between kernel siblings sharing a quaspace:
   "we switch only the part of the context being used" — here the
   callee-context registers and the stack pointer; no vector table, no
   MMU, no FP, no exception frame.  The switch routine is synthesized
   per coroutine pair with both stack cells folded in; calling it
   returns on the other context's stack. *)

let partial_switch_template =
  Template.make ~name:"partial_switch" ~params:[ "from_cell"; "to_cell" ] (fun p ->
      [
        I.Movem_save ([ 9; 10; 11; 12; 13; 14 ], I.sp);
        I.Move (I.Reg I.sp, I.Abs (p "from_cell"));
        I.Move (I.Abs (p "to_cell"), I.Reg I.sp);
        I.Movem_load (I.sp, [ 9; 10; 11; 12; 13; 14 ]);
        I.Rts;
      ])

let synthesize_partial_switch k ~name ~from_cell ~to_cell =
  Ksynth.entry
    (Ksynth.instantiate k ~name ~template:partial_switch_template
       ~invariants:[ ("from_cell", from_cell); ("to_cell", to_cell) ])

(* Retune the CPU quantum by patching the immediate in the thread's
   sw_in code (fine-grain scheduling, §4.4).  The patched instruction
   must keep targeting the thread's home-core timer register. *)
let set_quantum k t quantum_us =
  t.Kernel.quantum_us <- quantum_us;
  Kernel.patch_code k t.Kernel.quantum_slot
    (I.Move (I.Imm quantum_us, I.Abs (Mmio_map.timer_alarm_for t.Kernel.cpu)));
  Kernel.trace k (Ktrace.Patched t.Kernel.quantum_slot);
  Machine.charge k.Kernel.machine 4
