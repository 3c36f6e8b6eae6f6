(* Pipes (§6.2, Table 1 programs 2–4).

   A pipe is a power-of-two ring of words plus synthesized read/write
   routines for each attached thread.  The producer and consumer
   operate on different parts of the buffer (SP-SC optimistic
   discipline): the writer publishes `head` only after the copy, the
   reader publishes `tail` only after the copy, so neither end ever
   observes half-moved data.  Data moves in unrolled 8-word bursts —
   the generated code achieves the paper's "8 MB/s" shape.

   Blocking uses the standard protocol: flag the waiting side, move
   the TTE to the pipe's wait queue, and retry from the top on
   wake-up. *)

open Quamachine
module I = Insn
module L = Layout.Tte

type t = {
  p_name : string;
  p_desc : int; (* [0]=head [1]=tail [2]=rwait [3]=wwait [4]=weof *)
  p_buf : int;
  p_cap : int; (* power of two *)
  p_readers : Kernel.waitq;
  p_writers : Kernel.waitq;
  mutable p_ends : int; (* open descriptors; 0 after the last close *)
}

let head_cell p = p.p_desc
let tail_cell p = p.p_desc + 1
let rwait_cell p = p.p_desc + 2
let wwait_cell p = p.p_desc + 3
let weof_cell p = p.p_desc + 4

(* The same unrolled copy as the file system, src r5 -> dst r2, count
   r6, scratch r4. *)
let burst_copy ~prefix =
  let lbl s = prefix ^ s in
  [
    I.Move (I.Reg I.r6, I.Reg I.r4);
    I.Alu (I.Lsr, I.Imm 3, I.r4);
    I.B (I.Eq, I.To_label (lbl "tail"));
    I.Alu (I.Sub, I.Imm 1, I.r4);
    I.Label (lbl "blk");
  ]
  @ List.init 8 (fun _ -> I.Move (I.Post_inc I.r5, I.Post_inc I.r2))
  @ [
      I.Dbra (I.r4, I.To_label (lbl "blk"));
      I.Label (lbl "tail");
      I.Move (I.Reg I.r6, I.Reg I.r4);
      I.Alu (I.And, I.Imm 7, I.r4);
      I.B (I.Eq, I.To_label (lbl "done"));
      I.Alu (I.Sub, I.Imm 1, I.r4);
      I.Label (lbl "t1");
      I.Move (I.Post_inc I.r5, I.Post_inc I.r2);
      I.Dbra (I.r4, I.To_label (lbl "t1"));
      I.Label (lbl "done");
    ]

(* write(fd, buf, n): r2 = source, r3 = count; writes everything,
   blocking while the pipe is full; returns n in r0. *)
let write_template k pipe ~gauge =
  let mask = pipe.p_cap - 1 in
  Template.make ~name:"pipe_write" (fun () ->
      [
        I.Probe "enter";
        I.Move (I.Reg I.r3, I.Reg I.r8); (* remaining *)
        I.Move (I.Reg I.r3, I.Reg I.r0); (* return value *)
        I.Tst (I.Reg I.r8);
        I.B (I.Eq, I.To_label "out");
        I.Label "retry";
        I.Move (I.Abs (head_cell pipe), I.Reg I.r4);
        I.Move (I.Abs (tail_cell pipe), I.Reg I.r5);
        I.Alu (I.Sub, I.Reg I.r4, I.r5);
        I.Alu (I.Sub, I.Imm 1, I.r5);
        I.Alu (I.And, I.Imm mask, I.r5); (* r5 = space *)
        I.B (I.Ne, I.To_label "space_ok");
        (* Full: flag ourselves waiting and block.  The flag-set and
           the block must be atomic against the reader, or a drain
           between them loses the wake-up — mask preemption and
           re-check before committing to sleep. *)
        I.Set_ipl 6;
        I.Move (I.Imm 1, I.Abs (wwait_cell pipe));
        I.Move (I.Abs (head_cell pipe), I.Reg I.r4);
        I.Move (I.Abs (tail_cell pipe), I.Reg I.r5);
        I.Alu (I.Sub, I.Reg I.r4, I.r5);
        I.Alu (I.Sub, I.Imm 1, I.r5);
        I.Alu (I.And, I.Imm mask, I.r5);
        I.B (I.Ne, I.To_label "race_retry");
      ]
      @ Thread.block_code k pipe.p_writers ~retry:"retry"
      @ [
          I.Label "race_retry";
          I.Move (I.Imm 0, I.Abs (wwait_cell pipe));
          I.Set_ipl 0;
          I.B (I.Always, I.To_label "retry");
          I.Label "space_ok";
          (* m = min(remaining, space, contiguous run to wrap) *)
          I.Cmp (I.Reg I.r8, I.Reg I.r5);
          I.B (I.Cs, I.To_label "use_space"); (* space < remaining *)
          I.Move (I.Reg I.r8, I.Reg I.r5);
          I.Label "use_space";
          I.Move (I.Imm pipe.p_cap, I.Reg I.r6);
          I.Alu (I.Sub, I.Reg I.r4, I.r6); (* run = cap - head *)
          I.Cmp (I.Reg I.r5, I.Reg I.r6);
          I.B (I.Cc, I.To_label "use_m"); (* run >= m *)
          I.Move (I.Reg I.r6, I.Reg I.r5);
          I.Label "use_m";
          I.Move (I.Reg I.r5, I.Reg I.r6); (* r6 = m for the copy *)
          I.Alu (I.Sub, I.Reg I.r6, I.r8); (* remaining -= m *)
          (* dst = buf + head; new head deferred to r7 *)
          I.Move (I.Reg I.r4, I.Reg I.r7);
          I.Alu (I.Add, I.Reg I.r6, I.r7);
          I.Alu (I.And, I.Imm mask, I.r7);
          I.Move (I.Reg I.r4, I.Reg I.r5);
          I.Alu (I.Add, I.Imm pipe.p_buf, I.r5);
          (* burst_copy wants src in r5, dst in r2 — swap roles here:
             source is the user buffer (r2), destination the pipe *)
          I.Move (I.Reg I.r2, I.Reg I.r4);
          I.Move (I.Reg I.r5, I.Reg I.r2); (* dst = pipe *)
          I.Move (I.Reg I.r4, I.Reg I.r5); (* src = user *)
        ]
      @ burst_copy ~prefix:"w"
      @ [
          (* r5 is now the advanced user pointer: keep it in r2 *)
          I.Move (I.Reg I.r2, I.Reg I.r4); (* advanced pipe ptr (unused) *)
          I.Move (I.Reg I.r5, I.Reg I.r2); (* restore user ptr *)
          I.Move (I.Reg I.r7, I.Abs (head_cell pipe)); (* publish *)
          I.Alu_mem (I.Add, I.Imm 1, I.Abs gauge);
          I.Probe "publish";
          (* wake a waiting reader *)
          I.Tst (I.Abs (rwait_cell pipe));
          I.B (I.Eq, I.To_label "nowake");
          I.Move (I.Imm 0, I.Abs (rwait_cell pipe));
          I.Hcall (Thread.unblock_hcall k pipe.p_readers);
          I.Label "nowake";
          I.Tst (I.Reg I.r8);
          I.B (I.Ne, I.To_label "retry");
          I.Label "out";
          I.Rte;
        ])

(* read(fd, buf, n): r2 = destination, r3 = count; returns up to n
   words as soon as at least one is available, 0 at EOF (all writers
   closed and the pipe drained). *)
let read_template k pipe ~gauge =
  let mask = pipe.p_cap - 1 in
  Template.make ~name:"pipe_read" (fun () ->
      [
        I.Label "retry";
        I.Move (I.Abs (head_cell pipe), I.Reg I.r4);
        I.Move (I.Abs (tail_cell pipe), I.Reg I.r5);
        I.Move (I.Reg I.r4, I.Reg I.r6);
        I.Alu (I.Sub, I.Reg I.r5, I.r6);
        I.Alu (I.And, I.Imm mask, I.r6); (* r6 = available *)
        I.B (I.Ne, I.To_label "avail");
        (* empty: EOF if no writers remain.  The availability above is
           stale by the time weof is tested — a writer may publish its
           last burst and close in between.  weof is monotonic and set
           only after the final publish, so re-reading head/tail after
           observing it closes the race: data seen now is final. *)
        I.Tst (I.Abs (weof_cell pipe));
        I.B (I.Eq, I.To_label "do_block");
        I.Move (I.Abs (head_cell pipe), I.Reg I.r4);
        I.Move (I.Abs (tail_cell pipe), I.Reg I.r5);
        I.Move (I.Reg I.r4, I.Reg I.r6);
        I.Alu (I.Sub, I.Reg I.r5, I.r6);
        I.Alu (I.And, I.Imm mask, I.r6);
        I.B (I.Ne, I.To_label "avail");
        I.Move (I.Imm 0, I.Reg I.r0);
        I.Rte;
        I.Label "do_block";
        (* same lost-wakeup guard as the writer side *)
        I.Set_ipl 6;
        I.Move (I.Imm 1, I.Abs (rwait_cell pipe));
        I.Move (I.Abs (head_cell pipe), I.Reg I.r4);
        I.Move (I.Abs (tail_cell pipe), I.Reg I.r5);
        I.Move (I.Reg I.r4, I.Reg I.r6);
        I.Alu (I.Sub, I.Reg I.r5, I.r6);
        I.Alu (I.And, I.Imm mask, I.r6);
        I.B (I.Ne, I.To_label "race_retry");
        I.Tst (I.Abs (weof_cell pipe));
        I.B (I.Ne, I.To_label "race_retry");
      ]
      @ Thread.block_code k pipe.p_readers ~retry:"retry"
      @ [
          I.Label "race_retry";
          I.Move (I.Imm 0, I.Abs (rwait_cell pipe));
          I.Set_ipl 0;
          I.B (I.Always, I.To_label "retry");
          I.Label "avail";
          (* m = min(n, available, contiguous run from tail) *)
          I.Cmp (I.Reg I.r3, I.Reg I.r6);
          I.B (I.Cs, I.To_label "use_avail"); (* avail < n *)
          I.Move (I.Reg I.r3, I.Reg I.r6);
          I.Label "use_avail";
          I.Move (I.Imm pipe.p_cap, I.Reg I.r4);
          I.Alu (I.Sub, I.Reg I.r5, I.r4); (* run = cap - tail *)
          I.Cmp (I.Reg I.r6, I.Reg I.r4);
          I.B (I.Cc, I.To_label "use_m"); (* run >= m *)
          I.Move (I.Reg I.r4, I.Reg I.r6);
          I.Label "use_m";
          I.Move (I.Reg I.r6, I.Reg I.r0); (* return m *)
          (* new tail in r7, published after the copy *)
          I.Move (I.Reg I.r5, I.Reg I.r7);
          I.Alu (I.Add, I.Reg I.r6, I.r7);
          I.Alu (I.And, I.Imm mask, I.r7);
          I.Alu (I.Add, I.Imm pipe.p_buf, I.r5); (* src = buf + tail *)
        ]
      @ burst_copy ~prefix:"r"
      @ [
          I.Move (I.Reg I.r7, I.Abs (tail_cell pipe)); (* publish *)
          I.Alu_mem (I.Add, I.Imm 1, I.Abs gauge);
          I.Probe "drain";
          I.Tst (I.Abs (wwait_cell pipe));
          I.B (I.Eq, I.To_label "nowake");
          I.Move (I.Imm 0, I.Abs (wwait_cell pipe));
          I.Hcall (Thread.unblock_hcall k pipe.p_writers);
          I.Label "nowake";
          I.Rte;
        ])

(* ---------------------------------------------------------------- *)

let next_pipe_id = ref 0

(* Carcasses kept for reuse: unbounded churn must not grow the list,
   and an overflowing carcass frees its cells normally. *)
let carcass_cap = 8

(* Return a dead pipe's cells and wait queues to the kernel.  The next
   same-capacity pipe reuses them, which keeps its synthesized
   read/write code — descriptor and buffer addresses, memoized
   block/unblock host-call ids — byte-identical with this one's.
   Byte-identity is what lets the synthesis cache hit on reopen. *)
let recycle k pipe =
  (* any spans still parked in this pipe's side-table are going away
     with it *)
  Kernel.span k (fun sp -> Kspan.slot_reset sp ~queue:pipe.p_desc);
  if List.length k.Kernel.pipe_carcasses < carcass_cap then
    k.Kernel.pipe_carcasses <-
      (pipe.p_cap, pipe.p_desc, pipe.p_buf, pipe.p_readers, pipe.p_writers)
      :: k.Kernel.pipe_carcasses
  else begin
    Kalloc.free k.Kernel.alloc pipe.p_desc;
    Kalloc.free k.Kernel.alloc pipe.p_buf
  end

let create k ?(cap = 8192) () =
  if cap land (cap - 1) <> 0 then invalid_arg "Kpipe.create: cap must be a power of 2";
  let id = !next_pipe_id in
  incr next_pipe_id;
  let name = Printf.sprintf "pipe%d" id in
  let rec take acc = function
    | [] -> None
    | (c, desc, buf, readers, writers) :: rest when c = cap ->
      k.Kernel.pipe_carcasses <- List.rev_append acc rest;
      Some (desc, buf, readers, writers)
    | carcass :: rest -> take (carcass :: acc) rest
  in
  match take [] k.Kernel.pipe_carcasses with
  | Some (desc, buf, readers, writers) ->
    (* reset the descriptor; stale buffer words are dead data *)
    let m = k.Kernel.machine in
    for i = 0 to 4 do
      Machine.poke m (desc + i) 0
    done;
    Machine.charge_refs m 5;
    {
      p_name = name;
      p_desc = desc;
      p_buf = buf;
      p_cap = cap;
      p_readers = readers;
      p_writers = writers;
      p_ends = 0;
    }
  | None ->
    let desc = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
    let buf = Kalloc.alloc_zeroed k.Kernel.alloc cap in
    {
      p_name = name;
      p_desc = desc;
      p_buf = buf;
      p_cap = cap;
      p_readers = Kernel.waitq ~name:(name ^ "/readers");
      p_writers = Kernel.waitq ~name:(name ^ "/writers");
      p_ends = 0;
    }

(* The pipe ends' probes.  ktrace sees each successful burst, once the
   writer has published head (reader: tail).  kspan: a request is one
   published burst.  Write entry stamps where writer service starts;
   the publish probe opens the span back at that stamp, books the
   service hop, and parks it in the side-table weighted by the burst's
   word count (r6 at the publish point).  On the drain side r6 holds
   the word count just copied; every parked burst it covers gets its
   queue-wait hop and closes. *)
let write_probes pipe =
  [
    ("enter", Kernel.Span (fun sp _ -> Kspan.stage_enter sp ~queue:pipe.p_desc));
    ("publish", Kernel.Trace (fun _ -> Ktrace.Queue_put (pipe.p_name, true)));
    ( "publish",
      Kernel.Span
        (fun sp m ->
          Kspan.enqueue sp ~queue:pipe.p_desc ~pipeline:"pipe" ~detail:pipe.p_name
            ~stage:"write" ~weight:(Machine.get_reg m I.r6)) );
  ]

let read_probes pipe =
  [
    ("drain", Kernel.Trace (fun _ -> Ktrace.Queue_get (pipe.p_name, true)));
    ( "drain",
      Kernel.Span
        (fun sp m ->
          Kspan.dequeue sp ~queue:pipe.p_desc ~stage:"read"
            ~phase:Kspan.Queue_wait ~weight:(Machine.get_reg m I.r6)) );
  ]

(* Synthesize pipe ends for [tte] and install them as descriptors.
   Returns (read_fd, write_fd). *)
let attach vfs pipe (tte : Kernel.tte) =
  let k = vfs.Vfs.kernel in
  let gauge = tte.Kernel.base + L.off_gauge in
  let tag = Printf.sprintf "pipe/%s/t%d" pipe.p_name tte.Kernel.tid in
  let read_entry =
    Ksynth.entry
      (Ksynth.instantiate k ~name:(tag ^ "/read") ~probes:(read_probes pipe)
         ~template:(read_template k pipe ~gauge))
  in
  let write_entry =
    Ksynth.entry
      (Ksynth.instantiate k ~name:(tag ^ "/write") ~probes:(write_probes pipe)
         ~template:(write_template k pipe ~gauge))
  in
  pipe.p_ends <- pipe.p_ends + 2;
  (* closing an end drops its claim on the synthesized page; the last
     close recycles the pipe's cells for the next [create] *)
  let release_end entry =
    Ksynth.release_entry k entry;
    pipe.p_ends <- pipe.p_ends - 1;
    if pipe.p_ends = 0 then recycle k pipe
  in
  let mk_handlers ~read ~write ~close =
    {
      Vfs.h_read = read;
      h_write = write;
      h_pos_cell = None;
      h_close = close;
      h_fsync = (fun () -> ()); (* pipes have no backing store *)
    }
  in
  let bad = Ksynth.lookup k "bad_fd" in
  let rfd =
    match Vfs.free_fd vfs tte with
    | Some fd ->
      Vfs.install_fd vfs tte ~fd
        (mk_handlers ~read:read_entry ~write:bad ~close:(fun () ->
             release_end read_entry));
      fd
    | None -> invalid_arg "Kpipe.attach: no free read fd"
  in
  let wfd =
    match Vfs.free_fd vfs tte with
    | Some fd ->
      Vfs.install_fd vfs tte ~fd
        (mk_handlers ~read:bad ~write:write_entry ~close:(fun () ->
             (* last writer gone: wake readers so they can see EOF *)
             Machine.poke k.Kernel.machine (weof_cell pipe) 1;
             ignore (Thread.unblock k pipe.p_readers);
             release_end write_entry));
      fd
    | None -> invalid_arg "Kpipe.attach: no free write fd"
  in
  (rfd, wfd)

(* The pipe(2)-style system call: trap 11, returns read fd in r0 and
   write fd in r1. *)
let install_syscall vfs =
  let k = vfs.Vfs.kernel in
  let m = k.Kernel.machine in
  let pipe_id =
    Machine.register_hcall m (fun mm ->
        let tte = Kernel.current_exn k in
        let pipe = create k () in
        let rfd, wfd = attach vfs pipe tte in
        Machine.set_reg mm I.r0 rfd;
        Machine.set_reg mm I.r1 wfd;
        Machine.charge mm 80)
  in
  let entry, _ =
    Ksynth.install k ~name:"syscall/pipe" [ I.Hcall pipe_id; I.Rte ]
  in
  Kernel.set_vector_all k (I.Vector.trap 11) entry
