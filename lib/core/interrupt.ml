(* Interrupt-handling machinery (§5.3–5.4, Table 5).

   Procedure Chaining: instead of synchronizing with a running
   interrupt handler, a new procedure is chained to run when the
   handler finishes, by rewriting the return address in the exception
   frame.  The pending procedures sit in an optimistic MP-SC queue, so
   chaining from nested interrupt levels needs no locking — the queue
   put *is* the measured "chain to a procedure" cost.

   The A/D buffered queue: at 44,100 interrupts per second, queue
   bookkeeping per element would dominate.  Code synthesis generates
   eight tiny handlers, each storing the sample into a different slot
   of the *same* queue element with the slot address folded in; the
   interrupt vector rotates through them, and only the eighth does the
   queue-element bookkeeping.  The per-interrupt path is a handful of
   instructions (Table 5: 3 us). *)

open Quamachine
module I = Insn

(* ---------------------------------------------------------------- *)
(* Procedure chaining *)

type chain = {
  ch_queue : Kqueue.t;
  ch_saved : int; (* original return address during a chained run *)
  ch_chain : int; (* entry: Jsr with proc address in r1 *)
  ch_runner : int;
}

let install_chain k =
  let queue = Kqueue.create ~kind:Kqueue.Mpsc k ~name:"chain/q" ~size:32 in
  let saved = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  (* The runner executes in the interrupted (kernel) context after the
     handler's Rte: drain the queue, then resume where the interrupt
     hit. *)
  let runner, _ =
    Ksynth.install k ~name:"chain/runner"
      [
        I.Push (I.Reg I.r0);
        I.Push (I.Reg I.r1);
        I.Push (I.Reg I.r4);
        I.Push (I.Reg I.r5);
        I.Label "loop";
        I.Jsr (I.To_addr queue.Kqueue.q_get);
        I.Tst (I.Reg I.r0);
        I.B (I.Eq, I.To_label "out");
        I.Jsr (I.To_reg I.r1); (* run the chained procedure *)
        I.B (I.Always, I.To_label "loop");
        I.Label "out";
        I.Pop I.r5;
        I.Pop I.r4;
        I.Pop I.r1;
        I.Pop I.r0;
        I.Jmp (I.To_mem (I.Abs saved));
      ]
  in
  (* chain(r1 = proc): called with Jsr from inside a handler whose
     exception frame is on top of the stack.  After our return address
     is pushed, the frame PC slot is at sp+2. *)
  let chain, _ =
    Ksynth.install k ~name:"chain/chain"
      [
        I.Jsr (I.To_addr queue.Kqueue.q_put); (* optimistic insert *)
        I.Tst (I.Reg I.r0);
        I.B (I.Eq, I.To_label "drop"); (* chain queue overflow *)
        I.Move (I.Idx (I.sp, 2), I.Reg I.r4);
        I.Cmp (I.Imm runner, I.Reg I.r4);
        I.B (I.Eq, I.To_label "done"); (* already redirected *)
        I.Move (I.Reg I.r4, I.Abs saved);
        I.Move (I.Imm runner, I.Idx (I.sp, 2)); (* rewrite return addr *)
        I.Label "done";
        I.Rts;
        I.Label "drop";
        I.Rts;
      ]
  in
  { ch_queue = queue; ch_saved = saved; ch_chain = chain; ch_runner = runner }

(* ---------------------------------------------------------------- *)
(* The A/D buffered queue *)

type adq = {
  adq_factor : int; (* samples per element (the blocking factor) *)
  adq_elems : int; (* element array: n * factor words *)
  adq_flags : int; (* per-element valid flags *)
  adq_n : int;
  adq_desc : int; (* [0]=head element, [1]=tail element, [2]=cwait *)
  adq_stage_cell : int; (* current stage handler, used by the vector stub *)
  adq_stages : int array; (* stage entry points *)
  adq_store_slots : int array; (* code addr of each stage's store insn *)
  adq_get : int; (* consumer routine: r0=status, r1=element address *)
  adq_consumer_wq : Kernel.waitq;
  mutable adq_overruns : int;
}

(* The paper's production configuration (§5.4). *)
let blocking_factor = 8

let stage_template ~slot_addr ~next_stage ~stage_cell ~is_last ~advance_hcall =
  Template.make ~name:"ad_stage" (fun () ->
      [
        I.Push (I.Reg I.r4);
        I.Move (I.Abs Mmio_map.ad_data, I.Reg I.r4);
        I.Label "store"; (* patched to the current element's slot *)
        I.Move (I.Reg I.r4, I.Abs slot_addr);
        I.Move (I.Imm next_stage, I.Abs stage_cell);
      ]
      @ (if is_last then [ I.Hcall advance_hcall ] else [])
      @ [ I.Pop I.r4; I.Rte ])

let elem_addr adq i = adq.adq_elems + (i * adq.adq_factor)

let install_adq k ?(factor = blocking_factor) ~n_elems () =
  if factor < 1 then invalid_arg "Interrupt.install_adq: factor";
  let alloc = k.Kernel.alloc in
  let elems = Kalloc.alloc_zeroed alloc (n_elems * factor) in
  let flags = Kalloc.alloc_zeroed alloc n_elems in
  let desc = Kalloc.alloc_zeroed alloc 16 in
  let stage_cell = Kalloc.alloc_zeroed alloc 16 in
  let consumer_wq = Kernel.waitq ~name:"adq/consumer" in
  let adq =
    {
      adq_factor = factor;
      adq_elems = elems;
      adq_flags = flags;
      adq_n = n_elems;
      adq_desc = desc;
      adq_stage_cell = stage_cell;
      adq_stages = Array.make factor 0;
      adq_store_slots = Array.make factor 0;
      adq_get = 0;
      adq_consumer_wq = consumer_wq;
      adq_overruns = 0;
    }
  in
  let m = k.Kernel.machine in
  let wake_consumer = Thread.unblock_hcall k consumer_wq in
  (* element-boundary bookkeeping: mark the element valid, advance to
     the next one (dropping the oldest on overrun), and re-specialize
     the eight store instructions for the new element's slots *)
  let advance_hcall =
    Machine.register_hcall m (fun m ->
        let head = Machine.peek m desc in
        Machine.poke m (flags + head) 1;
        let next = if head + 1 = n_elems then 0 else head + 1 in
        (* overrun: drop the oldest element by advancing the tail *)
        if Machine.peek m (flags + next) = 1 then begin
          adq.adq_overruns <- adq.adq_overruns + 1;
          Machine.poke m (flags + next) 0;
          let tail = Machine.peek m (desc + 1) in
          Machine.poke m (desc + 1) (if tail + 1 = n_elems then 0 else tail + 1)
        end;
        Machine.poke m desc next;
        let base = elem_addr adq next in
        Array.iteri
          (fun i slot ->
            Kernel.patch_code k slot (I.Move (I.Reg I.r4, I.Abs (base + i))))
          adq.adq_store_slots;
        (* fixed element bookkeeping (flag, head, overrun and wake
           checks) plus one code patch per slot re-specialized *)
        Machine.charge m (30 + (4 * factor));
        (* wake the consumer if it flagged itself waiting *)
        if Machine.peek m (desc + 2) = 1 then begin
          Machine.poke m (desc + 2) 0;
          ignore (Thread.unblock k consumer_wq)
        end;
        ignore wake_consumer)
  in
  (* synthesize the eight stage handlers, last stage first so each can
     point at its successor; stage 0's successor is patched below *)
  let stage_entries = adq.adq_stages and store_slots = adq.adq_store_slots in
  for i = factor - 1 downto 0 do
    let next_stage = if i = factor - 1 then 0 else stage_entries.(i + 1) in
    let is_last = i = factor - 1 in
    let h =
      Ksynth.instantiate k
        ~name:(Printf.sprintf "adq/stage%d" i)
        ~template:
          (stage_template ~slot_addr:(elem_addr adq 0 + i) ~next_stage ~stage_cell
             ~is_last ~advance_hcall)
    in
    stage_entries.(i) <- Ksynth.entry h;
    store_slots.(i) <- Ksynth.sym h "store"
  done;
  (* close the ring: the last stage rotates back to stage 0 *)
  let last = factor - 1 in
  (match Machine.read_code m (store_slots.(last) + 1) with
  | I.Move (I.Imm _, I.Abs cell) when cell = stage_cell ->
    Kernel.patch_code k (store_slots.(last) + 1)
      (I.Move (I.Imm stage_entries.(0), I.Abs stage_cell))
  | _ -> failwith "adq: unexpected stage layout");
  (* the store slots are re-specialized per element at run time *)
  Array.iter
    (fun slot -> Kernel.region_mark_mutable k ~addr:slot)
    store_slots;
  Kernel.region_mark_mutable k ~addr:(store_slots.(last) + 1);
  Machine.poke m stage_cell stage_entries.(0);
  (* the shared A/D vector: one indirection through the stage cell *)
  let ad_irq, _ =
    Ksynth.install k ~name:"adq/irq" [ I.Jmp (I.To_mem (I.Abs stage_cell)) ]
  in
  Kernel.set_vector_all k Mmio_map.ad_vector ad_irq;
  (* consumer routine: r0 = status, r1 = address of a valid element *)
  let get, _ =
    Ksynth.install k ~name:"adq/get"
      [
        I.Move (I.Abs (desc + 1), I.Reg I.r4); (* tail element *)
        I.Move (I.Reg I.r4, I.Reg I.r5);
        I.Alu (I.Add, I.Imm flags, I.r5);
        I.Tst (I.Ind I.r5);
        I.B (I.Eq, I.To_label "empty");
        I.Move (I.Imm 0, I.Ind I.r5);
        I.Move (I.Reg I.r4, I.Reg I.r1);
        I.Alu (I.Mul, I.Imm factor, I.r1);
        I.Alu (I.Add, I.Imm elems, I.r1);
        I.Alu (I.Add, I.Imm 1, I.r4);
        I.Cmp (I.Imm n_elems, I.Reg I.r4);
        I.B (I.Ne, I.To_label "nowrap");
        I.Move (I.Imm 0, I.Reg I.r4);
        I.Label "nowrap";
        I.Move (I.Reg I.r4, I.Abs (desc + 1));
        I.Move (I.Imm 1, I.Reg I.r0);
        I.Rts;
        I.Label "empty";
        I.Move (I.Imm 0, I.Reg I.r0);
        I.Rts;
      ]
  in
  { adq with adq_get = get }

(* Consumer-side guarded block fragment (the cwait flag is desc+2). *)
let consumer_block_code k adq ~retry =
  [
    I.Set_ipl 6;
    I.Move (I.Imm 1, I.Abs (adq.adq_desc + 2));
    I.Move (I.Abs (adq.adq_desc + 1), I.Reg I.r4);
    I.Alu (I.Add, I.Imm adq.adq_flags, I.r4);
    I.Tst (I.Ind I.r4);
    I.B (I.Ne, I.To_label "adq_race");
  ]
  @ Thread.block_code k adq.adq_consumer_wq ~retry
  @ [
      I.Label "adq_race";
      I.Move (I.Imm 0, I.Abs (adq.adq_desc + 2));
      I.Set_ipl 0;
      I.B (I.Always, I.To_label retry);
    ]
