(* Synthesis kernel subsystem tests: VM-level optimistic queues,
   pipes, signals, lazy-FP resynthesis, error traps, the executable
   ready queue under random churn, and the fine-grain scheduler. *)

open Quamachine
open Synthesis
module I = Insn

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_call m ~entry ?(r1 = 0) ?(r2 = 0) ?(r3 = 0) () =
  let frag = [ I.Jsr (I.To_addr entry); I.Halt ] in
  let start, _ = Asm.assemble m frag in
  Machine.set_halted m false;
  Machine.set_supervisor m true;
  Machine.set_reg m I.sp 0xE00;
  Machine.set_reg m I.r1 r1;
  Machine.set_reg m I.r2 r2;
  Machine.set_reg m I.r3 r3;
  Machine.set_pc m start;
  (match Machine.run ~max_insns:10_000 m with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> failwith "run_call: did not return");
  (Machine.get_reg m I.r0, Machine.get_reg m I.r1)

(* ------------------------------------------------------------------ *)
(* VM-level queues (Figures 1-2) *)

let test_kqueue_spsc () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let q = Kqueue.create ~kind:Kqueue.Spsc k ~name:"t/spsc" ~size:4 in
  (* fill to capacity (size-1 = 3) through the synthesized code *)
  for i = 1 to 3 do
    let st, _ = run_call m ~entry:q.Kqueue.q_put ~r1:(i * 11) () in
    check_int "put accepted" 1 st
  done;
  let st, _ = run_call m ~entry:q.Kqueue.q_put ~r1:99 () in
  check_int "put rejected when full" 0 st;
  for i = 1 to 3 do
    let st, item = run_call m ~entry:q.Kqueue.q_get () in
    check_int "get ok" 1 st;
    check_int "fifo order" (i * 11) item
  done;
  let st, _ = run_call m ~entry:q.Kqueue.q_get () in
  check_int "get rejected when empty" 0 st

let test_kqueue_mpsc_wrap () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let q = Kqueue.create ~kind:Kqueue.Mpsc k ~name:"t/mpsc" ~size:4 in
  (* repeated put/get cycles across the wrap boundary *)
  for round = 1 to 10 do
    let st, _ = run_call m ~entry:q.Kqueue.q_put ~r1:round () in
    check_int "put" 1 st;
    let st, _ = run_call m ~entry:q.Kqueue.q_put ~r1:(round + 100) () in
    check_int "put2" 1 st;
    let st, v = run_call m ~entry:q.Kqueue.q_get () in
    check_int "get" 1 st;
    check_int "value" round v;
    let st, v = run_call m ~entry:q.Kqueue.q_get () in
    check_int "get2" 1 st;
    check_int "value2" (round + 100) v
  done

let test_kqueue_put_many_atomic () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let q = Kqueue.create ~kind:Kqueue.Mpsc k ~name:"t/mpscm" ~size:8 in
  let src = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  for i = 0 to 5 do
    Machine.poke m (src + i) (50 + i)
  done;
  (* a 6-item burst fits (capacity 7) *)
  let st, _ = run_call m ~entry:q.Kqueue.q_put_many ~r2:src ~r3:6 () in
  check_int "burst accepted" 1 st;
  (* a 2-item burst does not (1 slot left): must fail without effect *)
  let st, _ = run_call m ~entry:q.Kqueue.q_put_many ~r2:src ~r3:2 () in
  check_int "oversized burst rejected" 0 st;
  for i = 0 to 5 do
    let st, v = run_call m ~entry:q.Kqueue.q_get () in
    check_int "get" 1 st;
    check_int "burst order" (50 + i) v
  done;
  check_int "queue drained" 0 (Kqueue.host_length k q)

let test_kqueue_interrupt_producer () =
  (* A producer running in interrupt context interleaves with a
     consumer thread on the same MP-SC queue: nothing lost. *)
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let q = Kqueue.create ~kind:Kqueue.Mpsc k ~name:"t/mpsci" ~size:64 in
  let produced = ref 0 in
  let feeder = Machine.register_hcall m (fun m ->
      if !produced < 40 then begin
        incr produced;
        if not (Kqueue.host_put k q !produced) then failwith "queue full"
      end;
      ignore m)
  in
  (* alarm-driven producer at high rate *)
  let irq, _ =
    Ksynth.install k ~name:"t/irq"
      [
        I.Push (I.Reg I.r4);
        I.Hcall feeder;
        I.Move (I.Imm 20, I.Abs Mmio_map.alarm_set); (* re-arm *)
        I.Pop I.r4;
        I.Rte;
      ]
  in
  Kernel.set_vector_all k Mmio_map.alarm_vector irq;
  (* this test drives the machine directly with VBR = 0, so install
     the handler in the low vector table as well *)
  Machine.poke m Mmio_map.alarm_vector irq;
  (* consumer: a user-visible count of drained items *)
  let out = Kalloc.alloc_zeroed k.Kernel.alloc 64 in
  let entry, _ =
    Ksynth.install k ~name:"t/consumer"
      ([ I.Move (I.Imm out, I.Reg I.r9); I.Move (I.Imm 20, I.Abs Mmio_map.alarm_set) ]
      @ [
          I.Label "loop";
          I.Jsr (I.To_addr q.Kqueue.q_get);
          I.Tst (I.Reg I.r0);
          I.B (I.Eq, I.To_label "loop");
          I.Move (I.Reg I.r1, I.Post_inc I.r9);
          I.Cmp (I.Imm (out + 40), I.Reg I.r9);
          I.B (I.Ne, I.To_label "loop");
          I.Halt;
        ])
  in
  Machine.set_supervisor m true;
  Machine.set_reg m I.sp 0xE00;
  Machine.set_ipl m 0;
  Machine.set_pc m entry;
  (match Machine.run ~max_insns:10_000_000 m with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "consumer never finished");
  for i = 0 to 39 do
    check_int "item in order" (i + 1) (Machine.peek m (out + i))
  done

let test_kqueue_spmc_consumer_race () =
  (* force the consumer's stale-claim path: between our tail read and
     our flag CAS, a competitor drains slot 0 and the producer laps
     the ring and republishes it.  We then claim a publication that is
     no longer ours (tail has moved on), must back the claim out, and
     retry cleanly onto the real tail slot. *)
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let q = Kqueue.create ~kind:Kqueue.Spmc k ~name:"t/spmc" ~size:8 in
  ignore (run_call m ~entry:q.Kqueue.q_put ~r1:11 ());
  ignore (run_call m ~entry:q.Kqueue.q_put ~r1:22 ());
  (* start a get, stop at its CAS (tail already read as 0) *)
  let rec find_cas a =
    match Machine.read_code m a with I.Cas _ -> a | _ -> find_cas (a + 1)
  in
  let cas_pc = find_cas q.Kqueue.q_get in
  let frag = [ I.Jsr (I.To_addr q.Kqueue.q_get); I.Halt ] in
  let start, _ = Asm.assemble m frag in
  Machine.set_halted m false;
  Machine.set_supervisor m true;
  Machine.set_reg m I.sp 0xE00;
  Machine.set_pc m start;
  let rec step_to_cas n =
    if n = 0 then Alcotest.fail "CAS not reached"
    else if Machine.get_pc m = cas_pc then ()
    else begin
      Machine.step m;
      step_to_cas (n - 1)
    end
  in
  step_to_cas 1000;
  (* competitor drains slot 0 (tail -> 1, flag[0] -> 0) and a lapping
     producer republishes it (flag[0] -> 1, new item in buf[0]) *)
  let tail = Kqueue.tail_cell q in
  Machine.poke m tail 1;
  Machine.poke m (q.Kqueue.q_buf + 0) 33;
  (match Machine.run ~max_insns:1000 m with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "get stuck after retry");
  check_int "retry claimed the real tail slot" 22 (Machine.get_reg m I.r1);
  check_int "get succeeded" 1 (Machine.get_reg m I.r0);
  check_int "stale claim was backed out" 1 (Machine.peek m (q.Kqueue.q_flag + 0));
  check_int "tail advanced past the consumed slot" 2 (Machine.peek m tail);
  (* the backed-out publication is intact for its eventual owner *)
  check_int "republished item untouched" 33 (Machine.peek m (q.Kqueue.q_buf + 0))

let test_kqueue_mpmc_flag_guard () =
  (* MP-MC: with tail advanced but the flag still set (a consumer
     mid-read), the producer must refuse the slot *)
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let q = Kqueue.create ~kind:Kqueue.Mpmc k ~name:"t/mpmc" ~size:4 in
  (* fill three slots (capacity): head wraps to slot 3 next *)
  List.iter (fun v -> ignore (run_call m ~entry:q.Kqueue.q_put ~r1:v ())) [ 1; 2; 3 ];
  let st, _ = run_call m ~entry:q.Kqueue.q_put ~r1:99 () in
  check_int "full by distance" 0 st;
  (* a consumer claimed slots 0 and 1, finished slot 1, but is still
     reading slot 0: tail = 2, flag[0] still set *)
  Machine.poke m (Kqueue.tail_cell q) 2;
  Machine.poke m (q.Kqueue.q_flag + 1) 0;
  (* slot 3 is genuinely free: accepted *)
  let st, _ = run_call m ~entry:q.Kqueue.q_put ~r1:99 () in
  check_int "free slot accepted" 1 st;
  (* head now wraps onto slot 0, which is mid-read: must refuse even
     though the head/tail distance says there is room *)
  let st, _ = run_call m ~entry:q.Kqueue.q_put ~r1:88 () in
  check_int "slot mid-read refused despite free tail distance" 0 st;
  (* the consumer finishes: the same put now succeeds *)
  Machine.poke m (q.Kqueue.q_flag + 0) 0;
  let st, _ = run_call m ~entry:q.Kqueue.q_put ~r1:88 () in
  check_int "accepted once released" 1 st;
  (* drain from tail = 2: 3, 99, 88 *)
  List.iter
    (fun exp ->
      let st, v = run_call m ~entry:q.Kqueue.q_get () in
      check_int "get ok" 1 st;
      check_int "order" exp v)
    [ 3; 99; 88 ]

(* ------------------------------------------------------------------ *)
(* Pipes *)

let test_pipe_two_threads () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let vfs = b.Boot.vfs in
  let pipe = Kpipe.create k ~cap:32 () in
  let total = 500 in
  let sum_cell = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let src = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let dst = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let producer = Thread.create k ~quantum_us:100 ~entry:0 ~segments:[ (src, 16) ] () in
  let consumer =
    Thread.create k ~quantum_us:100 ~entry:0 ~segments:[ (dst, 16); (sum_cell, 16) ] ()
  in
  let _, wfd = Kpipe.attach vfs pipe producer in
  let rfd, _ = Kpipe.attach vfs pipe consumer in
  let pprog =
    [
      I.Move (I.Imm 1, I.Reg I.r9);
      I.Label "loop";
      I.Move (I.Reg I.r9, I.Abs src);
      I.Move (I.Imm wfd, I.Reg I.r1);
      I.Move (I.Imm src, I.Reg I.r2);
      I.Move (I.Imm 1, I.Reg I.r3);
      I.Trap 2;
      I.Alu (I.Add, I.Imm 1, I.r9);
      I.Cmp (I.Imm (total + 1), I.Reg I.r9);
      I.B (I.Ne, I.To_label "loop");
      I.Trap 0;
    ]
  in
  let cprog =
    [
      I.Move (I.Imm 0, I.Reg I.r9); (* sum *)
      I.Move (I.Imm 0, I.Reg I.r10); (* count *)
      I.Label "loop";
      I.Move (I.Imm rfd, I.Reg I.r1);
      I.Move (I.Imm dst, I.Reg I.r2);
      I.Move (I.Imm 1, I.Reg I.r3);
      I.Trap 1;
      I.Alu (I.Add, I.Abs dst, I.r9);
      I.Alu (I.Add, I.Imm 1, I.r10);
      I.Cmp (I.Imm total, I.Reg I.r10);
      I.B (I.Ne, I.To_label "loop");
      I.Move (I.Reg I.r9, I.Abs sum_cell);
      I.Trap 0;
    ]
  in
  let pentry, _ = Asm.assemble m pprog in
  let centry, _ = Asm.assemble m cprog in
  Machine.poke m (producer.Kernel.base + Layout.Tte.off_pc) pentry;
  Machine.poke m (consumer.Kernel.base + Layout.Tte.off_pc) centry;
  (match Boot.go ~max_insns:100_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "pipe threads did not finish");
  check_int "all data flowed through the pipe" (total * (total + 1) / 2)
    (Machine.peek m sum_cell)

let test_pipe_eof () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let vfs = b.Boot.vfs in
  let region = Kalloc.alloc_zeroed k.Kernel.alloc 64 in
  let t = Thread.create k ~entry:0 ~segments:[ (region, 64) ] () in
  let pipe = Kpipe.create k ~cap:32 () in
  let rfd, wfd = Kpipe.attach vfs pipe t in
  let prog =
    [
      (* write 3 words, close the writer, read 8 (-> 3), read again (-> EOF) *)
      I.Move (I.Imm wfd, I.Reg I.r1);
      I.Move (I.Imm region, I.Reg I.r2);
      I.Move (I.Imm 3, I.Reg I.r3);
      I.Trap 2;
      I.Move (I.Imm wfd, I.Reg I.r1);
      I.Trap 4; (* close writer *)
      I.Move (I.Imm rfd, I.Reg I.r1);
      I.Move (I.Imm (region + 16), I.Reg I.r2);
      I.Move (I.Imm 8, I.Reg I.r3);
      I.Trap 1;
      I.Move (I.Reg I.r0, I.Abs (region + 40));
      I.Move (I.Imm rfd, I.Reg I.r1);
      I.Move (I.Imm (region + 16), I.Reg I.r2);
      I.Move (I.Imm 8, I.Reg I.r3);
      I.Trap 1;
      I.Move (I.Reg I.r0, I.Abs (region + 41));
      I.Trap 0;
    ]
  in
  let entry, _ = Asm.assemble m prog in
  Machine.poke m (t.Kernel.base + Layout.Tte.off_pc) entry;
  (match Boot.go ~max_insns:10_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  check_int "partial read returns available" 3 (Machine.peek m (region + 40));
  check_int "read after close = EOF" 0 (Machine.peek m (region + 41))

(* generator -> +1 -> *2 -> sum: four threads over three pipes, each
   middle stage holding the read end of one pipe and the write end of
   the next *)
let test_pipe_four_stages () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let vfs = b.Boot.vfs in
  let n = 40 in
  let result = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let c1 = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let c2 = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let c3 = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let gen ~wfd =
    [
      I.Move (I.Imm 1, I.Reg I.r9);
      I.Label "loop";
      I.Move (I.Reg I.r9, I.Abs c1);
      I.Move (I.Imm wfd, I.Reg I.r1);
      I.Move (I.Imm c1, I.Reg I.r2);
      I.Move (I.Imm 1, I.Reg I.r3);
      I.Trap 2;
      I.Alu (I.Add, I.Imm 1, I.r9);
      I.Cmp (I.Imm (n + 1), I.Reg I.r9);
      I.B (I.Ne, I.To_label "loop");
      I.Trap 0;
    ]
  in
  let xform cell f ~rfd ~wfd =
    [
      I.Move (I.Imm n, I.Reg I.r9);
      I.Label "loop";
      I.Move (I.Imm rfd, I.Reg I.r1);
      I.Move (I.Imm cell, I.Reg I.r2);
      I.Move (I.Imm 1, I.Reg I.r3);
      I.Trap 1;
      I.Move (I.Abs cell, I.Reg I.r10);
    ]
    @ f
    @ [
        I.Move (I.Reg I.r10, I.Abs cell);
        I.Move (I.Imm wfd, I.Reg I.r1);
        I.Move (I.Imm cell, I.Reg I.r2);
        I.Move (I.Imm 1, I.Reg I.r3);
        I.Trap 2;
        I.Alu (I.Sub, I.Imm 1, I.r9);
        I.B (I.Ne, I.To_label "loop");
        I.Trap 0;
      ]
  in
  let sum ~rfd =
    [
      I.Move (I.Imm 0, I.Reg I.r9);
      I.Move (I.Imm n, I.Reg I.r10);
      I.Label "loop";
      I.Move (I.Imm rfd, I.Reg I.r1);
      I.Move (I.Imm result, I.Reg I.r2);
      I.Move (I.Imm 1, I.Reg I.r3);
      I.Trap 1;
      I.Alu (I.Add, I.Abs result, I.r9);
      I.Alu (I.Sub, I.Imm 1, I.r10);
      I.B (I.Ne, I.To_label "loop");
      I.Move (I.Reg I.r9, I.Abs result);
      I.Trap 0;
    ]
  in
  let stage cell = Thread.create k ~quantum_us:150 ~entry:0 ~segments:[ (cell, 16) ] () in
  let threads = [| stage c1; stage c2; stage c3; stage result |] in
  let pipes = Array.init 3 (fun _ -> Kpipe.create k ~cap:256 ()) in
  (* stage i writes pipe i, stage i+1 reads it *)
  let ends =
    Array.mapi
      (fun i p ->
        let _, w = Kpipe.attach vfs p threads.(i) in
        let r, _ = Kpipe.attach vfs p threads.(i + 1) in
        (r, w))
      pipes
  in
  let rfd i = fst ends.(i - 1) and wfd i = snd ends.(i) in
  let programs =
    [|
      gen ~wfd:(wfd 0);
      xform c2 [ I.Alu (I.Add, I.Imm 1, I.r10) ] ~rfd:(rfd 1) ~wfd:(wfd 1);
      xform c3 [ I.Alu (I.Mul, I.Imm 2, I.r10) ] ~rfd:(rfd 2) ~wfd:(wfd 2);
      sum ~rfd:(rfd 3);
    |]
  in
  Array.iteri
    (fun i prog ->
      let entry, _ = Asm.assemble m prog in
      Machine.poke m (threads.(i).Kernel.base + Layout.Tte.off_pc) entry)
    programs;
  (match Boot.go ~max_insns:200_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "four-stage pipeline stuck");
  (* sum of 2*(i+1) for i in 1..n *)
  let expected = 2 * ((n * (n + 1) / 2) + n) in
  check_int "transformed sum" expected (Machine.peek m result)

(* Property: random chunk schedules through a two-thread pipe deliver
   every word intact and in order.  The writer sends 1..total in
   chunks from the schedule; the reader drains with its own chunk
   sizes; a final checksum and order flag are compared. *)

let prop_pipe_random_chunks =
  QCheck.Test.make ~name:"pipe preserves data under random chunking" ~count:12
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 2 8) (int_range 1 48))
           (int_range 1 48))
       ~print:(fun (ws, r) ->
         Fmt.str "writer chunks %a, reader chunk %d" Fmt.(Dump.list int) ws r))
    (fun (wchunks, rchunk) ->
      let total = List.fold_left ( + ) 0 wchunks in
      let b = Boot.boot () in
      let k = b.Boot.kernel in
      let m = k.Kernel.machine in
      let vfs = b.Boot.vfs in
      let pipe = Kpipe.create k ~cap:64 () in
      let src = Kalloc.alloc_zeroed k.Kernel.alloc 64 in
      let dst = Kalloc.alloc_zeroed k.Kernel.alloc 64 in
      let out = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
      let writer = Thread.create k ~quantum_us:80 ~entry:0 ~segments:[ (src, 64) ] () in
      let reader =
        Thread.create k ~quantum_us:80 ~entry:0 ~segments:[ (dst, 64); (out, 16) ] ()
      in
      let _, wfd = Kpipe.attach vfs pipe writer in
      let rfd, _ = Kpipe.attach vfs pipe reader in
      (* writer: next value in r9; per chunk, fill src then write;
         labels made unique by the chunk's position *)
      let wprog =
        [ I.Move (I.Imm 1, I.Reg I.r9) ]
        @ List.concat
            (List.mapi
               (fun i n ->
                 let lbl = Fmt.str "fill_%d" i in
                 [
                   I.Move (I.Imm src, I.Reg I.r10);
                   I.Move (I.Imm (n - 1), I.Reg I.r11);
                   I.Label lbl;
                   I.Move (I.Reg I.r9, I.Post_inc I.r10);
                   I.Alu (I.Add, I.Imm 1, I.r9);
                   I.Dbra (I.r11, I.To_label lbl);
                   I.Move (I.Imm wfd, I.Reg I.r1);
                   I.Move (I.Imm src, I.Reg I.r2);
                   I.Move (I.Imm n, I.Reg I.r3);
                   I.Trap 2;
                 ])
               wchunks)
        @ [ I.Trap 0 ]
      in
      (* reader: drain [total] words, checking order and summing *)
      let rprog =
        [
          I.Move (I.Imm 0, I.Reg I.r9); (* received *)
          I.Move (I.Imm 1, I.Reg I.r10); (* expected next *)
          I.Move (I.Imm 1, I.Reg I.r12); (* in-order flag *)
          I.Label "loop";
          I.Move (I.Imm rfd, I.Reg I.r1);
          I.Move (I.Imm dst, I.Reg I.r2);
          I.Move (I.Imm rchunk, I.Reg I.r3);
          I.Trap 1;
          I.Move (I.Reg I.r0, I.Reg I.r11); (* words this time *)
          I.Move (I.Imm dst, I.Reg I.r13);
          I.Tst (I.Reg I.r11);
          I.B (I.Eq, I.To_label "loop");
          I.Alu (I.Add, I.Reg I.r11, I.r9);
          I.Alu (I.Sub, I.Imm 1, I.r11);
          I.Label "chk";
          I.Cmp (I.Post_inc I.r13, I.Reg I.r10); (* expected - got *)
          I.B (I.Eq, I.To_label "ok");
          I.Move (I.Imm 0, I.Reg I.r12);
          I.Label "ok";
          I.Alu (I.Add, I.Imm 1, I.r10);
          I.Dbra (I.r11, I.To_label "chk");
          I.Cmp (I.Imm total, I.Reg I.r9);
          I.B (I.Ne, I.To_label "loop");
          I.Move (I.Reg I.r12, I.Abs out);
          I.Trap 0;
        ]
      in
      let wentry, _ = Asm.assemble m wprog in
      let rentry, _ = Asm.assemble m rprog in
      Machine.poke m (writer.Kernel.base + Layout.Tte.off_pc) wentry;
      Machine.poke m (reader.Kernel.base + Layout.Tte.off_pc) rentry;
      (match Boot.go ~max_insns:100_000_000 b with
      | Machine.Halted -> ()
      | Machine.Insn_limit -> failwith "pipe property stuck");
      Machine.peek m out = 1)

(* ------------------------------------------------------------------ *)
(* Signals *)

let test_signal_delivery () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  (* the handler bumps a counter (user-mode code) *)
  let handler_prog = [ I.Alu_mem (I.Add, I.Imm 1, I.Abs cell); I.Rts ] in
  let handler, _ = Asm.assemble m handler_prog in
  (* target: spins until signalled twice, then exits *)
  let tprog =
    [
      I.Move (I.Imm handler, I.Reg I.r1);
      I.Trap 8; (* register handler *)
      I.Label "spin";
      I.Cmp (I.Imm 2, I.Abs cell);
      I.B (I.Ne, I.To_label "spin");
      I.Trap 0;
    ]
  in
  let tentry, _ = Asm.assemble m tprog in
  let target = Thread.create k ~quantum_us:100 ~entry:tentry ~segments:[ (cell, 16) ] () in
  (* signaller: sends two signals with pauses, then exits *)
  let sprog =
    [
      I.Move (I.Imm 500, I.Reg I.r9);
      I.Label "d1";
      I.Dbra (I.r9, I.To_label "d1");
      I.Move (I.Imm target.Kernel.tid, I.Reg I.r1);
      I.Trap 6;
      I.Move (I.Imm 500, I.Reg I.r9);
      I.Label "d2";
      I.Dbra (I.r9, I.To_label "d2");
      I.Move (I.Imm target.Kernel.tid, I.Reg I.r1);
      I.Trap 6;
      I.Trap 0;
    ]
  in
  let sentry, _ = Asm.assemble m sprog in
  let _s = Thread.create k ~quantum_us:100 ~entry:sentry () in
  (match Boot.go ~max_insns:50_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  check_int "both signals handled" 2 (Machine.peek m cell)

(* ------------------------------------------------------------------ *)
(* Lazy FP *)

let test_fp_resynthesis () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  Machine.set_fp_enabled m false;
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let prog =
    [
      I.Fmove_imm (2.0, 0);
      I.Fmove_imm (3.0, 1);
      I.Fop (I.Fadd, 1, 0); (* f0 = 5.0 *)
      I.Move (I.Imm 1, I.Abs cell);
      I.Trap 0;
    ]
  in
  let entry, _ = Asm.assemble m prog in
  let t = Thread.create k ~entry ~segments:[ (cell, 16) ] () in
  check_bool "created without FP" false t.Kernel.uses_fp;
  (match Boot.go ~max_insns:10_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  check_int "program completed" 1 (Machine.peek m cell);
  check_bool "switch code resynthesized with FP" true t.Kernel.uses_fp

let test_fp_state_preserved_across_switch () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  (* FP thread: set f0, spin across several quanta, verify f0 *)
  let prog =
    [
      I.Fmove_imm (42.0, 0);
      I.Move (I.Imm 20_000, I.Reg I.r9);
      I.Label "spin";
      I.Dbra (I.r9, I.To_label "spin");
      I.Fmove_imm (42.0, 1);
      I.Fop (I.Fsub, 1, 0); (* f0 = f0 - 42 = 0 iff preserved *)
      I.Move (I.Imm 1, I.Abs cell); (* mark completion *)
      I.Trap 0;
    ]
  in
  let entry, _ = Asm.assemble m prog in
  let _fp_thread = Thread.create k ~quantum_us:50 ~uses_fp:true ~entry ~segments:[ (cell, 16) ] () in
  (* competitor that also uses FP with a different value *)
  let prog2 =
    [
      I.Fmove_imm (7.0, 0);
      I.Move (I.Imm 2_000, I.Reg I.r9); (* exits well before the fp thread *)
      I.Label "spin";
      I.Dbra (I.r9, I.To_label "spin");
      I.Trap 0;
    ]
  in
  let entry2, _ = Asm.assemble m prog2 in
  let _t2 = Thread.create k ~quantum_us:50 ~uses_fp:true ~entry:entry2 () in
  (match Boot.go ~max_insns:50_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  check_int "fp thread completed" 1 (Machine.peek m cell);
  check_bool "f0 preserved across switches" true (Machine.get_freg m 0 = 0.0)

(* Regression pinning [Ctx.resynthesize_with_fp]: the FP trap
   resynthesizes the switch code mid-run, and every subsequent switch
   uses the new code — twin runs must agree cycle for cycle, and the
   kheal registry must track the replacement (newest region wins the
   name lookup, the whole store audits clean). *)
let test_fp_resynthesis_pins_switch_cycles () =
  let run () =
    let b = Boot.boot () in
    let k = b.Boot.kernel in
    let m = k.Kernel.machine in
    let cell = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
    let prog =
      [
        I.Fmove_imm (2.5, 0); (* traps; switch code resynthesized *)
        I.Move (I.Imm 6_000, I.Reg I.r9);
        I.Label "spin"; (* then crosses many quanta on the new code *)
        I.Dbra (I.r9, I.To_label "spin");
        I.Move (I.Imm 1, I.Abs cell);
        I.Trap 0;
      ]
    in
    let entry, _ = Asm.assemble m prog in
    let t = Thread.create k ~quantum_us:50 ~entry ~segments:[ (cell, 16) ] () in
    let prog2 =
      [
        I.Move (I.Imm 6_000, I.Reg I.r8);
        I.Label "s";
        I.Dbra (I.r8, I.To_label "s");
        I.Trap 0;
      ]
    in
    let entry2, _ = Asm.assemble m prog2 in
    ignore (Thread.create k ~quantum_us:50 ~entry:entry2 ());
    (match Boot.go ~max_insns:50_000_000 b with
    | Machine.Halted -> ()
    | Machine.Insn_limit -> Alcotest.fail "did not halt");
    check_int "fp thread completed" 1 (Machine.peek m cell);
    check_bool "switch code resynthesized" true t.Kernel.uses_fp;
    (k, t, Machine.cycles m, Machine.insns_executed m)
  in
  let k1, t1, cy1, in1 = run () in
  let _, _, cy2, in2 = run () in
  check_int "twin runs agree on cycles" cy1 cy2;
  check_int "twin runs agree on instructions" in1 in2;
  let name = Printf.sprintf "ctx/t%d/sw_out" t1.Kernel.tid in
  (* the thread exited: destroy released its claim on the switch
     pages, and since the ready queue had patched their jmp slots they
     detached from the synthesis cache and their registry entries were
     reclaimed with the storage *)
  check_bool "dead thread's switch code left the registry" true
    (Kernel.find_region_by_name k1 name = None);
  check_int "registry audits clean after resynthesis" 0 (Kernel.audit_code k1)

(* ------------------------------------------------------------------ *)
(* Error traps *)

let test_fault_kills_thread () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let prog = [ I.Move (I.Imm 1, I.Abs 0x5_0000); I.Trap 0 ] (* out of map *) in
  let entry, _ = Asm.assemble m prog in
  let t = Thread.create k ~entry () in
  (match Boot.go ~max_insns:1_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  (match k.Kernel.fault_log with
  | [ { Kernel.f_tid = tid; f_reason = "bus_error"; _ } ] ->
    check_int "right thread died" t.Kernel.tid tid
  | _ -> Alcotest.fail "expected one bus_error in the fault log");
  check_bool "ready queue still valid" true (Ready_queue.verify k)

let test_div_zero_fault () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let prog =
    [ I.Move (I.Imm 0, I.Reg I.r1); I.Alu (I.Divu, I.Reg I.r1, I.r2); I.Trap 0 ]
  in
  let entry, _ = Asm.assemble m prog in
  let _t = Thread.create k ~entry () in
  (match Boot.go ~max_insns:1_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  match k.Kernel.fault_log with
  | [ { Kernel.f_reason = "div_zero"; _ } ] -> ()
  | _ -> Alcotest.fail "expected div_zero in the fault log"

(* Error signal to self (§4.3): a user-mode error procedure emulates
   an unimplemented instruction and resumes past it. *)
let test_error_trap_emulation () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  (* the user error procedure: count the fault, skip the bad insn *)
  let user_err_prog =
    [
      I.Pop I.r4; (* faulting PC *)
      I.Pop I.r5; (* faulting SR (unused) *)
      I.Alu_mem (I.Add, I.Imm 1, I.Abs cell);
      I.Alu (I.Add, I.Imm 1, I.r4); (* skip the unimplemented insn *)
      I.Jmp (I.To_reg I.r4);
    ]
  in
  let user_err, _ = Asm.assemble m user_err_prog in
  (* Set_ipl is privileged: from user mode it faults — our stand-in
     for an unimplemented instruction *)
  let prog =
    [
      I.Move (I.Imm 7, I.Reg I.r9);
      I.Set_ipl 3; (* privilege fault -> user error procedure *)
      I.Alu (I.Add, I.Imm 1, I.r9); (* resumes here *)
      I.Set_ipl 3; (* and again *)
      I.Alu (I.Add, I.Imm 1, I.r9);
      I.Move (I.Reg I.r9, I.Abs (cell + 1));
      I.Trap 0;
    ]
  in
  let entry, _ = Asm.assemble m prog in
  let t = Thread.create k ~entry ~segments:[ (cell, 16) ] () in
  let _handler = Thread.set_error_handler k t ~user_proc:user_err in
  (match Boot.go ~max_insns:1_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  check_int "no thread was killed" 0 (List.length k.Kernel.fault_log);
  check_int "both faults handled in user mode" 2 (Machine.peek m cell);
  check_int "execution resumed past each fault" 9 (Machine.peek m (cell + 1))

(* The error procedure also sees faulting memory accesses. *)
let test_error_trap_bus_error () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let user_err_prog =
    [
      I.Pop I.r4;
      I.Pop I.r5;
      I.Move (I.Reg I.r4, I.Abs cell); (* record the faulting PC *)
      I.Alu (I.Add, I.Imm 1, I.r4);
      I.Jmp (I.To_reg I.r4);
    ]
  in
  let user_err, _ = Asm.assemble m user_err_prog in
  let prog =
    [
      I.Label "bad";
      I.Move (I.Imm 5, I.Abs 0x70000); (* outside the quaspace *)
      I.Move (I.Imm 1, I.Abs (cell + 1));
      I.Trap 0;
    ]
  in
  let entry, syms = Asm.assemble m prog in
  let t = Thread.create k ~entry ~segments:[ (cell, 16) ] () in
  ignore (Thread.set_error_handler k t ~user_proc:user_err);
  (match Boot.go ~max_insns:1_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  check_int "faulting PC delivered to user mode" (Asm.symbol syms "bad")
    (Machine.peek m cell);
  check_int "program continued" 1 (Machine.peek m (cell + 1))

(* ------------------------------------------------------------------ *)
(* Signals (§2.3) *)

(* A burst of signals while the handler is mid-flight coalesces: the
   handler runs once per delivery, never loses the thread's original
   continuation, and the thread exits cleanly. *)
let test_signal_burst_coalesces () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let handler, _ =
    Asm.assemble m [ I.Alu_mem (I.Add, I.Imm 1, I.Abs cell); I.Rts ]
  in
  let tprog =
    [
      I.Move (I.Imm handler, I.Reg I.r1);
      I.Trap 8;
      I.Label "spin";
      I.Cmp (I.Imm 5, I.Abs cell);
      I.B (I.Ne, I.To_label "spin");
      I.Move (I.Imm 1, I.Abs (cell + 1)); (* proof of clean return *)
      I.Trap 0;
    ]
  in
  let tentry, _ = Asm.assemble m tprog in
  let target = Thread.create k ~quantum_us:100 ~entry:tentry ~segments:[ (cell, 16) ] () in
  (* burst all five signals host-side while the target is switched out *)
  let burst = Machine.register_hcall m (fun _ ->
      for _ = 1 to 5 do
        ignore (Thread.deliver_signal k target)
      done)
  in
  let sprog =
    [
      I.Move (I.Imm 8000, I.Reg I.r9);
      I.Label "wait";
      I.Dbra (I.r9, I.To_label "wait");
      I.Hcall burst;
      I.Trap 0;
    ]
  in
  let sentry, _ = Asm.assemble m sprog in
  let _s = Thread.create k ~quantum_us:100 ~entry:sentry () in
  (match Boot.go ~max_insns:50_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "burst test stuck");
  check_int "handler ran once per delivery" 5 (Machine.peek m cell);
  check_int "original continuation restored" 1 (Machine.peek m (cell + 1))

(* ------------------------------------------------------------------ *)
(* Property: the synthesized queue code agrees with a FIFO model on
   random put/get sequences (one machine per flavour, fresh queue per
   case). *)

let kqueue_model_prop name create =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let counter = ref 0 in
  QCheck.Test.make ~name ~count:40
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 5 60)
           (frequency [ (3, map (fun v -> `Put (v + 1)) (int_bound 999)); (2, return `Get) ])))
    (fun ops ->
      incr counter;
      let q = create k ~name:(Printf.sprintf "prop/%s%d" name !counter) ~size:8 in
      let model = Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | `Put v ->
            let st, _ = run_call m ~entry:q.Kqueue.q_put ~r1:v () in
            let fits = Queue.length model < 7 in
            if st = 1 then Queue.push v model;
            (st = 1) = fits
          | `Get -> (
            let st, item = run_call m ~entry:q.Kqueue.q_get () in
            match (st, Queue.is_empty model) with
            | 0, true -> true
            | 1, false -> item = Queue.pop model
            | _ -> false))
        ops)

let kqueue_of_kind kind k ~name ~size = Kqueue.create ~kind k ~name ~size
let prop_spsc_model = kqueue_model_prop "spsc vm queue matches FIFO model" (kqueue_of_kind Kqueue.Spsc)
let prop_mpsc_model = kqueue_model_prop "mpsc vm queue matches FIFO model" (kqueue_of_kind Kqueue.Mpsc)
let prop_spmc_model = kqueue_model_prop "spmc vm queue matches FIFO model" (kqueue_of_kind Kqueue.Spmc)
let prop_mpmc_model = kqueue_model_prop "mpmc vm queue matches FIFO model" (kqueue_of_kind Kqueue.Mpmc)

(* ------------------------------------------------------------------ *)
(* Ready queue churn property *)

let prop_ready_queue_churn =
  QCheck.Test.make ~name:"ready queue consistent under random churn" ~count:60
    (QCheck.make QCheck.Gen.(list_size (int_range 5 40) (int_bound 9)))
    (fun ops ->
      let b = Boot.boot () in
      let k = b.Boot.kernel in
      let spin, _ =
        Ksynth.install k ~name:"churn/spin"
          [ I.Label "s"; I.B (I.Always, I.To_label "s") ]
      in
      let threads = Array.init 5 (fun _ -> Thread.create k ~entry:spin ()) in
      List.iter
        (fun op ->
          let t = threads.(op mod 5) in
          if op < 5 then Thread.stop k t else Thread.start k t)
        ops;
      Ready_queue.verify k
      && List.for_all
           (fun t -> Ready_queue.in_queue t || t.Kernel.state = Kernel.Stopped)
           (Array.to_list threads))

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let test_scheduler_proportionality () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  Scheduler.install k ~epoch_us:1_000 ();
  let spin, _ =
    Ksynth.install k ~name:"sched/spin"
      [ I.Label "s"; I.B (I.Always, I.To_label "s") ]
  in
  let busy = Thread.create k ~quantum_us:200 ~entry:spin () in
  let io = Thread.create k ~quantum_us:200 ~entry:spin () in
  (* simulate I/O activity on [io]'s gauge, then run a few epochs *)
  let m = k.Kernel.machine in
  Boot.enter_scheduler k;
  (* keep the io thread's gauge hot through several whole epochs *)
  let epochs () = Metrics.read k.Kernel.metrics "sched.rebalances" in
  let target = epochs () + 4 in
  while epochs () < target do
    Machine.poke m
      (io.Kernel.base + Layout.Tte.off_gauge)
      (Machine.peek m (io.Kernel.base + Layout.Tte.off_gauge) + 50);
    ignore (Machine.run ~max_insns:1_000 m)
  done;
  check_bool "epochs ran" true (epochs () >= 2);
  check_bool "io thread got a bigger quantum" true
    (io.Kernel.quantum_us > busy.Kernel.quantum_us)

let test_quantum_patching () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let spin, _ =
    Ksynth.install k ~name:"qp/spin" [ I.Label "s"; I.B (I.Always, I.To_label "s") ]
  in
  let t = Thread.create k ~quantum_us:200 ~entry:spin () in
  Ctx.set_quantum k t 555;
  check_int "quantum field" 555 t.Kernel.quantum_us;
  match Machine.read_code k.Kernel.machine t.Kernel.quantum_slot with
  | I.Move (I.Imm 555, I.Abs a) when a = Mmio_map.timer_alarm -> ()
  | _ -> Alcotest.fail "quantum immediate not patched in sw_in"

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "synthesis"
    [
      ( "kqueue",
        [
          Alcotest.test_case "spsc synthesized code" `Quick test_kqueue_spsc;
          Alcotest.test_case "mpsc wrap-around" `Quick test_kqueue_mpsc_wrap;
          Alcotest.test_case "multi-insert atomicity" `Quick test_kqueue_put_many_atomic;
          Alcotest.test_case "interrupt producer vs thread consumer" `Quick
            test_kqueue_interrupt_producer;
          Alcotest.test_case "spmc consumer CAS race" `Quick
            test_kqueue_spmc_consumer_race;
          Alcotest.test_case "mpmc flag guard on wrap" `Quick
            test_kqueue_mpmc_flag_guard;
        ] );
      ( "pipe",
        [
          Alcotest.test_case "two threads stream with blocking" `Quick
            test_pipe_two_threads;
          Alcotest.test_case "EOF after writer close" `Quick test_pipe_eof;
          Alcotest.test_case "four-stage transform pipeline" `Quick test_pipe_four_stages;
        ] );
      ("signal", [ Alcotest.test_case "delivery to running thread" `Quick test_signal_delivery ]);
      ("pipe-property", qcheck [ prop_pipe_random_chunks ]);
      ( "fp",
        [
          Alcotest.test_case "first FP insn resynthesizes" `Quick test_fp_resynthesis;
          Alcotest.test_case "FP state survives switches" `Quick
            test_fp_state_preserved_across_switch;
          Alcotest.test_case "resynthesis pins switch cycles" `Quick
            test_fp_resynthesis_pins_switch_cycles;
        ] );
      ( "faults",
        [
          Alcotest.test_case "bus error kills thread" `Quick test_fault_kills_thread;
          Alcotest.test_case "divide by zero" `Quick test_div_zero_fault;
          Alcotest.test_case "user-mode emulation of faulting insns" `Quick
            test_error_trap_emulation;
          Alcotest.test_case "bus-error PC delivered to user mode" `Quick
            test_error_trap_bus_error;
        ] );
      ( "async-queue",
        [
          Alcotest.test_case "signal bursts coalesce" `Quick
            test_signal_burst_coalesces;
        ] );
      ( "kqueue-model",
        qcheck [ prop_spsc_model; prop_mpsc_model; prop_spmc_model; prop_mpmc_model ] );
      ("ready-queue", qcheck [ prop_ready_queue_churn ]);
      ( "scheduler",
        [
          Alcotest.test_case "quanta follow I/O rate" `Quick test_scheduler_proportionality;
          Alcotest.test_case "quantum code patching" `Quick test_quantum_patching;
        ] );
    ]
