(* The TTY pipeline (§5.1, §5.4).

   raw keyboard server --(dedicated queue)--> cooked filter thread
                                                   |  erase/kill/echo
                                                   v
                                 cooked queue --> /dev/tty readers
   echo + user writes --(optimistic MP-SC queue)--> screen pump --> device

   The raw interrupt handler "simply picks up the character" and puts
   it in a dedicated queue — the kernel knows the handler is the only
   producer and the filter thread the only consumer, so the queue has
   no synchronization code at all (Code Isolation).  The screen queue
   has two producers (echo and user writes), so the §5.2 case analysis
   picks an optimistic MP-SC queue (§5.1). *)

open Quamachine
module I = Insn
module L = Layout.Tte

type server = {
  srv_raw : Kqueue.t; (* dedicated SP-SC: irq -> filter *)
  srv_cooked : Kqueue.t; (* SP-SC: filter -> readers *)
  srv_screen : Kqueue.t; (* optimistic MP-SC: echo + writes -> pump *)
  srv_lbuf : int; (* line buffer *)
  srv_lbuf_cap : int;
  srv_len_cell : int; (* current line length *)
  srv_fwait : int; (* filter-waiting flag cell *)
  srv_rwait : int; (* reader-waiting flag cell *)
  srv_swait : int; (* screen-pump-waiting flag cell *)
  srv_filter_wq : Kernel.waitq;
  srv_reader_wq : Kernel.waitq;
  srv_pump_wq : Kernel.waitq;
  mutable srv_filter : Kernel.tte option;
  mutable srv_pump : Kernel.tte option;
}

(* Fragment: wake a flagged waiter.  [prefix] keeps labels unique. *)
let wake ~prefix ~flag ~hcall =
  [
    I.Tst (I.Abs flag);
    I.B (I.Eq, I.To_label (prefix ^ "_nowake"));
    I.Move (I.Imm 0, I.Abs flag);
    I.Hcall hcall;
    I.Label (prefix ^ "_nowake");
  ]

(* Fragment: guarded block — set the waiting flag under raised IPL,
   re-check emptiness of [q], and only then sleep; resume at [retry]. *)
let guarded_block k q ~flag ~wq ~retry ~prefix =
  [
    I.Set_ipl 6;
    I.Move (I.Imm 1, I.Abs flag);
    I.Move (I.Abs (Kqueue.head_cell q), I.Reg I.r4);
    I.Cmp (I.Abs (Kqueue.tail_cell q), I.Reg I.r4);
    I.B (I.Ne, I.To_label (prefix ^ "_race"));
  ]
  @ Thread.block_code k wq ~retry
  @ [
      I.Label (prefix ^ "_race");
      I.Move (I.Imm 0, I.Abs flag);
      I.Set_ipl 0;
      I.B (I.Always, I.To_label retry);
    ]

(* ---------------------------------------------------------------- *)
(* The raw TTY interrupt handler (Table 5: "Service raw TTY
   interrupt").  Saves the few registers it uses (§5.3), picks up the
   character, puts it into the dedicated queue and wakes the filter. *)

let irq_template srv ~unblock =
  Template.make ~name:"tty_irq" (fun () ->
      [
        (* The dedicated queue's put is lock-free only against its one
           consumer.  The scheduler (timer, level 6) nesting over this
           handler can switch threads mid-put and let a later tty
           interrupt run a complete put first; the suspended put then
           resumes with a stale head and overwrites the newer item.
           Mask the scheduler for the handler body; Rte restores SR. *)
        I.Set_ipl 6;
        I.Push (I.Reg I.r0);
        I.Push (I.Reg I.r1);
        I.Push (I.Reg I.r4);
        I.Push (I.Reg I.r5);
        I.Move (I.Abs Mmio_map.tty_data_in, I.Reg I.r1);
        I.Jsr (I.To_addr srv.srv_raw.Kqueue.q_put); (* dedicated put *)
      ]
      @ wake ~prefix:"irq" ~flag:srv.srv_fwait ~hcall:unblock
      @ [ I.Pop I.r5; I.Pop I.r4; I.Pop I.r1; I.Pop I.r0; I.Rte ])

(* ---------------------------------------------------------------- *)
(* The cooked filter thread: erase (^H) / kill (^U) processing, echo,
   line flush on newline (the Synthesis equivalent of the UNIX cooked
   tty driver, §5.1). *)

let filter_code k srv ~wake_reader ~wake_pump =
  let screen_put = srv.srv_screen.Kqueue.q_put in
  let cooked_put = srv.srv_cooked.Kqueue.q_put in
  [
    I.Label "retry";
    I.Jsr (I.To_addr srv.srv_raw.Kqueue.q_get);
    I.Tst (I.Reg I.r0);
    I.B (I.Eq, I.To_label "wait");
    (* dispatch on the character class — a switch building block *)
    I.Cmp (I.Imm 8, I.Reg I.r1); (* ^H erase *)
    I.B (I.Eq, I.To_label "erase");
    I.Cmp (I.Imm 21, I.Reg I.r1); (* ^U kill *)
    I.B (I.Eq, I.To_label "kill");
    I.Cmp (I.Imm 10, I.Reg I.r1); (* newline *)
    I.B (I.Eq, I.To_label "newline");
    (* ordinary character: append to the line buffer and echo *)
    I.Move (I.Abs srv.srv_len_cell, I.Reg I.r4);
    I.Cmp (I.Imm srv.srv_lbuf_cap, I.Reg I.r4);
    I.B (I.Eq, I.To_label "retry"); (* line full: drop *)
    I.Move (I.Reg I.r4, I.Reg I.r5);
    I.Alu (I.Add, I.Imm srv.srv_lbuf, I.r5);
    I.Move (I.Reg I.r1, I.Ind I.r5);
    I.Alu (I.Add, I.Imm 1, I.r4);
    I.Move (I.Reg I.r4, I.Abs srv.srv_len_cell);
    I.Jsr (I.To_addr screen_put); (* echo *)
  ]
  @ wake ~prefix:"echo" ~flag:srv.srv_swait ~hcall:wake_pump
  @ [
      I.B (I.Always, I.To_label "retry");
      I.Label "erase";
      I.Move (I.Abs srv.srv_len_cell, I.Reg I.r4);
      I.Tst (I.Reg I.r4);
      I.B (I.Eq, I.To_label "retry"); (* nothing to erase *)
      I.Alu (I.Sub, I.Imm 1, I.r4);
      I.Move (I.Reg I.r4, I.Abs srv.srv_len_cell);
      I.Move (I.Imm 8, I.Reg I.r1);
      I.Jsr (I.To_addr screen_put); (* echo the erase *)
    ]
  @ wake ~prefix:"erz" ~flag:srv.srv_swait ~hcall:wake_pump
  @ [
      I.B (I.Always, I.To_label "retry");
      I.Label "kill";
      I.Move (I.Imm 0, I.Abs srv.srv_len_cell);
      I.B (I.Always, I.To_label "retry");
      I.Label "newline";
      (* flush the line plus the newline into the cooked queue *)
      I.Move (I.Imm 0, I.Reg I.r6);
      I.Label "flush";
      I.Cmp (I.Abs srv.srv_len_cell, I.Reg I.r6);
      I.B (I.Eq, I.To_label "flushed");
      I.Move (I.Reg I.r6, I.Reg I.r5);
      I.Alu (I.Add, I.Imm srv.srv_lbuf, I.r5);
      I.Move (I.Ind I.r5, I.Reg I.r1);
      I.Jsr (I.To_addr cooked_put); (* full cooked queue drops *)
      I.Alu (I.Add, I.Imm 1, I.r6);
      I.B (I.Always, I.To_label "flush");
      I.Label "flushed";
      I.Move (I.Imm 10, I.Reg I.r1);
      I.Jsr (I.To_addr cooked_put);
      I.Move (I.Imm 0, I.Abs srv.srv_len_cell);
      I.Move (I.Imm 10, I.Reg I.r1);
      I.Jsr (I.To_addr screen_put); (* echo newline *)
    ]
  @ wake ~prefix:"nl1" ~flag:srv.srv_swait ~hcall:wake_pump
  @ wake ~prefix:"nl2" ~flag:srv.srv_rwait ~hcall:wake_reader
  @ [ I.B (I.Always, I.To_label "retry"); I.Label "wait" ]
  @ guarded_block k srv.srv_raw ~flag:srv.srv_fwait ~wq:srv.srv_filter_wq
      ~retry:"retry" ~prefix:"fw"

(* ---------------------------------------------------------------- *)
(* Screen pump: an active consumer draining the optimistic queue into
   the output device (a pump quaject connecting a passive producer's
   buffer to the passive screen, §5.2). *)

let pump_code k srv =
  [
    I.Label "retry";
    I.Jsr (I.To_addr srv.srv_screen.Kqueue.q_get);
    I.Tst (I.Reg I.r0);
    I.B (I.Eq, I.To_label "wait");
    I.Move (I.Reg I.r1, I.Abs Mmio_map.tty_data_out);
    I.B (I.Always, I.To_label "retry");
    I.Label "wait";
  ]
  @ guarded_block k srv.srv_screen ~flag:srv.srv_swait ~wq:srv.srv_pump_wq
      ~retry:"retry" ~prefix:"pw"

(* ---------------------------------------------------------------- *)
(* /dev/tty: synthesized per-open read (from the cooked queue) and
   write (into the screen queue). *)

let tty_read_template k srv ~gauge =
  Template.make ~name:"tty_read" (fun () ->
      [
        I.Alu_mem (I.Add, I.Imm 1, I.Abs gauge);
        I.Move (I.Imm 0, I.Reg I.r8); (* words read so far *)
        I.Label "retry";
        I.Jsr (I.To_addr srv.srv_cooked.Kqueue.q_get);
        I.Tst (I.Reg I.r0);
        I.B (I.Eq, I.To_label "drained");
        I.Move (I.Reg I.r1, I.Post_inc I.r2);
        I.Alu (I.Add, I.Imm 1, I.r8);
        I.Cmp (I.Reg I.r3, I.Reg I.r8); (* read - wanted *)
        I.B (I.Cs, I.To_label "retry"); (* read < wanted *)
        I.Move (I.Reg I.r8, I.Reg I.r0);
        I.Rte;
        I.Label "drained";
        I.Tst (I.Reg I.r8);
        I.B (I.Eq, I.To_label "block"); (* nothing yet: wait for input *)
        I.Move (I.Reg I.r8, I.Reg I.r0); (* return the partial line *)
        I.Rte;
        I.Label "block";
      ]
      @ guarded_block k srv.srv_cooked ~flag:srv.srv_rwait ~wq:srv.srv_reader_wq
          ~retry:"retry" ~prefix:"tr")

let tty_write_template srv ~gauge ~wake_pump =
  Template.make ~name:"tty_write" (fun () ->
      [
        I.Alu_mem (I.Add, I.Imm 1, I.Abs gauge);
        I.Move (I.Reg I.r3, I.Reg I.r0); (* return n *)
        I.Move (I.Reg I.r3, I.Reg I.r8);
        I.Tst (I.Reg I.r8);
        I.B (I.Eq, I.To_label "out");
        I.Label "next";
        I.Move (I.Post_inc I.r2, I.Reg I.r1);
        I.Label "again";
        I.Jsr (I.To_addr srv.srv_screen.Kqueue.q_put);
        I.Tst (I.Reg I.r0);
        I.B (I.Ne, I.To_label "stored");
        (* screen queue full: let the pump run, then retry this char *)
        I.Trap 5; (* yield *)
        I.B (I.Always, I.To_label "again");
        I.Label "stored";
      ]
      @ wake ~prefix:"tw" ~flag:srv.srv_swait ~hcall:wake_pump
      @ [
          I.Alu (I.Sub, I.Imm 1, I.r8);
          I.B (I.Ne, I.To_label "next");
          I.Move (I.Reg I.r3, I.Reg I.r0); (* r0 clobbered by q_put *)
          I.Label "out";
          I.Rte;
        ])

(* ---------------------------------------------------------------- *)

let install vfs =
  let k = vfs.Vfs.kernel in
  let alloc = k.Kernel.alloc in
  let lbuf_cap = 128 in
  (* queues and cells first; the service threads that animate them are
     created afterwards *)
  let srv =
    {
      srv_raw = Kqueue.create ~kind:Kqueue.Spsc k ~name:"tty/rawq" ~size:64;
      srv_cooked = Kqueue.create ~kind:Kqueue.Spsc k ~name:"tty/cookedq" ~size:512;
      srv_screen =
        Kqueue.create ~kind:Kqueue.Mpsc k ~name:"tty/screenq" ~size:1024;
      srv_lbuf = Kalloc.alloc_zeroed alloc lbuf_cap;
      srv_lbuf_cap = lbuf_cap;
      srv_len_cell = Kalloc.alloc_zeroed alloc 16;
      srv_fwait = Kalloc.alloc_zeroed alloc 16;
      srv_rwait = Kalloc.alloc_zeroed alloc 16;
      srv_swait = Kalloc.alloc_zeroed alloc 16;
      srv_filter_wq = Kernel.waitq ~name:"tty/filter";
      srv_reader_wq = Kernel.waitq ~name:"tty/readers";
      srv_pump_wq = Kernel.waitq ~name:"tty/pump";
      srv_filter = None;
      srv_pump = None;
    }
  in
  let wake_reader = Thread.unblock_hcall k srv.srv_reader_wq in
  let wake_pump = Thread.unblock_hcall k srv.srv_pump_wq in
  let wake_filter = Thread.unblock_hcall k srv.srv_filter_wq in
  (* the filter and pump service threads (run in supervisor state) *)
  let filter_entry, _ =
    Ksynth.install k ~name:"tty/filter"
      (filter_code k srv ~wake_reader ~wake_pump)
  in
  let pump_entry, _ = Ksynth.install k ~name:"tty/pump" (pump_code k srv) in
  let mk_system entry =
    let t = Thread.create k ~quantum_us:300 ~system:true ~entry () in
    Machine.poke k.Kernel.machine (t.Kernel.base + L.off_regs + 16) Ctx.kernel_sr;
    t
  in
  srv.srv_filter <- Some (mk_system filter_entry);
  srv.srv_pump <- Some (mk_system pump_entry);
  (* the raw interrupt handler, shared by every thread's vector table *)
  let irq =
    Ksynth.entry
      (Ksynth.instantiate k ~name:"tty/irq"
         ~template:(irq_template srv ~unblock:wake_filter))
  in
  Kernel.set_vector_all k Mmio_map.tty_vector irq;
  (* the /dev/tty node: open synthesizes reader/writer code (the extra
     ~19 us over /dev/null in Table 2) *)
  Vfs.register vfs ~name:"/dev/tty" (fun tte ~fd ->
      let gauge = tte.Kernel.base + L.off_gauge in
      let tag = Printf.sprintf "open/t%d/fd%d/tty" tte.Kernel.tid fd in
      let r =
        Ksynth.entry
          (Ksynth.instantiate k ~name:(tag ^ "/read")
             ~template:(tty_read_template k srv ~gauge))
      in
      let w =
        Ksynth.entry
          (Ksynth.instantiate k ~name:(tag ^ "/write")
             ~template:(tty_write_template srv ~gauge ~wake_pump))
      in
      {
        Vfs.h_read = r;
        h_write = w;
        h_pos_cell = None;
        h_close =
          (fun () ->
            Ksynth.release_entry k r;
            Ksynth.release_entry k w);
        h_fsync = (fun () -> ()); (* character device: nothing to write back *)
      });
  srv
