(* I/O subsystem tests: the cooked TTY pipeline, the A/D buffered
   queue, procedure chaining, VFS edge cases, and the §5.2 connection
   analysis checked against the live queues. *)

open Quamachine
open Synthesis
module I = Insn

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let poke_string m addr s =
  String.iteri (fun i c -> Machine.poke m (addr + i) (Char.code c)) s;
  Machine.poke m (addr + String.length s) 0

let read_words m addr n =
  String.init n (fun i -> Char.chr (Machine.peek m (addr + i) land 0x7F))

(* Boot + tty + a reader program; feed [typed], return what the reader
   got and what was echoed. *)
let tty_roundtrip typed =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let _srv = Tty.install b.Boot.vfs in
  let region = Kalloc.alloc_zeroed k.Kernel.alloc 256 in
  poke_string m region "/dev/tty";
  let buf = region + 64 in
  let len_cell = region + 200 in
  let prog =
    [
      I.Move (I.Imm region, I.Reg I.r1);
      I.Trap 3;
      I.Move (I.Reg I.r0, I.Reg I.r13);
      I.Move (I.Reg I.r13, I.Reg I.r1);
      I.Move (I.Imm buf, I.Reg I.r2);
      I.Move (I.Imm 64, I.Reg I.r3);
      I.Trap 1;
      I.Move (I.Reg I.r0, I.Abs len_cell);
      I.Trap 0;
    ]
  in
  let entry, _ = Asm.assemble m prog in
  let _t = Thread.create k ~entry ~segments:[ (region, 256) ] () in
  Devices.Tty.feed k.Kernel.tty typed;
  (match Boot.go ~max_insns:100_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "tty roundtrip stuck");
  let len = Machine.peek m len_cell in
  (read_words m buf len, Devices.Tty.output k.Kernel.tty)

let test_tty_plain_line () =
  let got, echo = tty_roundtrip "hi there\n" in
  check_str "line delivered" "hi there\n" got;
  check_str "echoed" "hi there" echo

let test_tty_erase () =
  let got, _ = tty_roundtrip "hxx\b\bi\n" in
  check_str "erase applied" "hi\n" got

let test_tty_kill () =
  (* ^U wipes the line; only what follows survives *)
  let got, _ = tty_roundtrip "garbage\x15ok\n" in
  check_str "kill applied" "ok\n" got

let test_tty_erase_empty_line () =
  let got, _ = tty_roundtrip "\b\bok\n" in
  check_str "erase on empty line ignored" "ok\n" got

(* ------------------------------------------------------------------ *)
(* A/D buffered queue *)

let test_adq_data_integrity () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let adq = Interrupt.install_adq k ~n_elems:32 () in
  let out = Kalloc.alloc_zeroed k.Kernel.alloc 256 in
  (* consumer thread drains 16 elements (128 samples) into [out] *)
  let consumer_code =
    [
      I.Move (I.Imm out, I.Reg I.r10);
      I.Label "retry";
      I.Jsr (I.To_addr adq.Interrupt.adq_get);
      I.Tst (I.Reg I.r0);
      I.B (I.Eq, I.To_label "wait");
      I.Move (I.Imm 7, I.Reg I.r9);
      I.Label "elem";
      I.Move (I.Post_inc I.r1, I.Reg I.r4);
      I.Move (I.Reg I.r4, I.Post_inc I.r10);
      I.Dbra (I.r9, I.To_label "elem");
      I.Cmp (I.Imm (out + 128), I.Reg I.r10);
      I.B (I.Ne, I.To_label "retry");
      I.Hcall 0; (* placeholder: replaced below *)
      I.Label "wait";
    ]
    @ Interrupt.consumer_block_code k adq ~retry:"retry"
  in
  let done_flag = ref false in
  let done_id = Machine.register_hcall m (fun m ->
      done_flag := true;
      Machine.set_halted m true)
  in
  let code =
    List.map (function I.Hcall 0 -> I.Hcall done_id | i -> i) consumer_code
  in
  let entry, _ = Ksynth.install k ~name:"t/adconsumer" code in
  let t = Thread.create k ~quantum_us:300 ~system:true ~entry () in
  Machine.poke m (t.Kernel.base + Layout.Tte.off_regs + 16) Ctx.kernel_sr;
  (* At 44.1 kHz the inter-sample gap (22.7 us) is barely longer than a
     context switch; a sample arriving while the switch masks level 5
     is coalesced in the device's data register — real hardware
     behaviour.  Test strict lossless integrity at half rate, where
     every masking window is comfortably shorter than the gap. *)
  Devices.Ad.set_rate k.Kernel.ad 22_050;
  Boot.enter_scheduler k;
  ignore (Machine.run ~max_insns:50_000_000 m);
  check_bool "consumer finished" true !done_flag;
  (* verify the samples match the device's deterministic sequence *)
  let expected =
    let seq = ref 1 in
    Array.init 128 (fun _ ->
        seq := (!seq * 1_103_515_245) + 12_345;
        (!seq lsr 8) land 0xFFFF)
  in
  let ok = ref true in
  for i = 0 to 127 do
    if Machine.peek m (out + i) <> expected.(i) then ok := false
  done;
  check_bool "samples in order, none lost" true !ok;
  check_int "no overruns" 0 adq.Interrupt.adq_overruns

(* At full 44.1 kHz rate: what arrives must still be an ordered
   subsequence of the source (drops from register coalescing allowed,
   corruption and reordering not). *)
let test_adq_full_rate_subsequence () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let adq = Interrupt.install_adq k ~n_elems:32 () in
  let out = Kalloc.alloc_zeroed k.Kernel.alloc 256 in
  let done_flag = ref false in
  let done_id = Machine.register_hcall m (fun m ->
      done_flag := true;
      Machine.set_halted m true)
  in
  let consumer_code =
    [
      I.Move (I.Imm out, I.Reg I.r10);
      I.Label "retry";
      I.Jsr (I.To_addr adq.Interrupt.adq_get);
      I.Tst (I.Reg I.r0);
      I.B (I.Eq, I.To_label "wait");
      I.Move (I.Imm 7, I.Reg I.r9);
      I.Label "elem";
      I.Move (I.Post_inc I.r1, I.Reg I.r4);
      I.Move (I.Reg I.r4, I.Post_inc I.r10);
      I.Dbra (I.r9, I.To_label "elem");
      I.Cmp (I.Imm (out + 128), I.Reg I.r10);
      I.B (I.Ne, I.To_label "retry");
      I.Hcall done_id;
      I.Label "wait";
    ]
    @ Interrupt.consumer_block_code k adq ~retry:"retry"
  in
  let entry, _ = Ksynth.install k ~name:"t/adconsumer2" consumer_code in
  let t = Thread.create k ~quantum_us:300 ~system:true ~entry () in
  Machine.poke m (t.Kernel.base + Layout.Tte.off_regs + 16) Ctx.kernel_sr;
  Devices.Ad.set_rate k.Kernel.ad 44_100;
  Boot.enter_scheduler k;
  ignore (Machine.run ~max_insns:50_000_000 m);
  check_bool "consumer finished" true !done_flag;
  let source =
    let seq = ref 1 in
    Array.init 400 (fun _ ->
        seq := (!seq * 1_103_515_245) + 12_345;
        (!seq lsr 8) land 0xFFFF)
  in
  (* two-pointer subsequence match *)
  let si = ref 0 and matched = ref 0 in
  (try
     for i = 0 to 127 do
       let v = Machine.peek m (out + i) in
       while source.(!si) <> v do
         incr si;
         if !si >= 400 then raise Exit
       done;
       incr si;
       incr matched
     done
   with Exit -> ());
  check_int "all received samples in source order" 128 !matched

(* ------------------------------------------------------------------ *)
(* Procedure chaining *)

let test_chain_runs_after_handler () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let chain = Interrupt.install_chain k in
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let proc1, _ =
    Ksynth.install k ~name:"t/p1" [ I.Alu_mem (I.Add, I.Imm 1, I.Abs cell); I.Rts ]
  in
  let proc2, _ =
    Ksynth.install k ~name:"t/p2" [ I.Alu_mem (I.Add, I.Imm 10, I.Abs cell); I.Rts ]
  in
  (* a fake handler chains two procedures, then returns; the runner
     must execute both, in order, before resuming the frame *)
  let frag =
    [
      I.Push (I.Lbl "after");
      I.Push (I.Imm Ctx.kernel_sr);
      I.Move (I.Imm proc1, I.Reg I.r1);
      I.Jsr (I.To_addr chain.Interrupt.ch_chain);
      I.Move (I.Imm proc2, I.Reg I.r1);
      I.Jsr (I.To_addr chain.Interrupt.ch_chain);
      I.Move (I.Abs cell, I.Abs (cell + 1)); (* not yet run: still 0 *)
      I.Rte;
      I.Label "after";
      I.Move (I.Abs cell, I.Abs (cell + 2)); (* after the runner: 11 *)
      I.Halt;
    ]
  in
  let entry, _ = Asm.assemble m frag in
  Machine.set_supervisor m true;
  Machine.set_reg m I.sp Layout.boot_stack_top;
  Machine.set_pc m entry;
  ignore (Machine.run ~max_insns:10_000 m);
  check_int "procedures delayed until handler end" 0 (Machine.peek m (cell + 1));
  check_int "both chained procedures ran in order" 11 (Machine.peek m (cell + 2))

let test_chain_overflow_drops () =
  (* the chain queue holds 31 procedures; the 32nd chain call must be
     dropped without corrupting the frame *)
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let chain = Interrupt.install_chain k in
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let proc, _ =
    Ksynth.install k ~name:"t/ovproc"
      [ I.Alu_mem (I.Add, I.Imm 1, I.Abs cell); I.Rts ]
  in
  let frag =
    [
      I.Push (I.Lbl "after");
      I.Push (I.Imm Ctx.kernel_sr);
      I.Move (I.Imm 39, I.Reg I.r9); (* 40 chain attempts *)
      I.Label "loop";
      I.Move (I.Imm proc, I.Reg I.r1);
      I.Jsr (I.To_addr chain.Interrupt.ch_chain);
      I.Dbra (I.r9, I.To_label "loop");
      I.Rte;
      I.Label "after";
      I.Halt;
    ]
  in
  let entry, _ = Asm.assemble m frag in
  Machine.set_supervisor m true;
  Machine.set_reg m I.sp Layout.boot_stack_top;
  Machine.set_pc m entry;
  (match Machine.run ~max_insns:100_000 m with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "overflow test stuck");
  (* the queue holds size-1 = 31; the rest were dropped *)
  check_int "31 chained procedures ran" 31 (Machine.peek m cell)

(* ------------------------------------------------------------------ *)
(* VFS edge cases *)

let test_open_nonexistent () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let region = Kalloc.alloc_zeroed k.Kernel.alloc 64 in
  poke_string m region "/no/such";
  let prog =
    [
      I.Move (I.Imm region, I.Reg I.r1);
      I.Trap 3;
      I.Move (I.Reg I.r0, I.Abs (region + 32));
      (* close of a never-opened fd *)
      I.Move (I.Imm 7, I.Reg I.r1);
      I.Trap 4;
      I.Move (I.Reg I.r0, I.Abs (region + 33));
      (* read on a bad fd *)
      I.Move (I.Imm 31, I.Reg I.r1);
      I.Trap 1;
      I.Move (I.Reg I.r0, I.Abs (region + 34));
      (* read on an out-of-range fd *)
      I.Move (I.Imm 1000, I.Reg I.r1);
      I.Trap 1;
      I.Move (I.Reg I.r0, I.Abs (region + 35));
      I.Trap 0;
    ]
  in
  let entry, _ = Asm.assemble m prog in
  let _t = Thread.create k ~entry ~segments:[ (region, 64) ] () in
  (match Boot.go ~max_insns:10_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "stuck");
  let err = Word.of_int (-1) in
  check_int "open missing = -1" err (Machine.peek m (region + 32));
  check_int "close bad fd = -1" err (Machine.peek m (region + 33));
  check_int "read bad fd = -1" err (Machine.peek m (region + 34));
  check_int "read out-of-range fd = -1" err (Machine.peek m (region + 35))

let test_fd_reuse_after_close () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let region = Kalloc.alloc_zeroed k.Kernel.alloc 64 in
  poke_string m region "/dev/null";
  let prog =
    [
      (* open twice: fds 0 and 1; close 0; open again: fd 0 reused *)
      I.Move (I.Imm region, I.Reg I.r1);
      I.Trap 3;
      I.Move (I.Reg I.r0, I.Abs (region + 32));
      I.Move (I.Imm region, I.Reg I.r1);
      I.Trap 3;
      I.Move (I.Reg I.r0, I.Abs (region + 33));
      I.Move (I.Imm 0, I.Reg I.r1);
      I.Trap 4;
      I.Move (I.Imm region, I.Reg I.r1);
      I.Trap 3;
      I.Move (I.Reg I.r0, I.Abs (region + 34));
      I.Trap 0;
    ]
  in
  let entry, _ = Asm.assemble m prog in
  let _t = Thread.create k ~entry ~segments:[ (region, 64) ] () in
  (match Boot.go ~max_insns:10_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "stuck");
  check_int "first fd" 0 (Machine.peek m (region + 32));
  check_int "second fd" 1 (Machine.peek m (region + 33));
  check_int "freed fd reused" 0 (Machine.peek m (region + 34))

(* ------------------------------------------------------------------ *)
(* File system model check: random op sequences against a reference *)

let test_fs_against_model () =
  let b = Boot.boot () in
  let vfs = b.Boot.vfs in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let file = Fs.create_file vfs ~name:"/data/model" ~capacity:128 () in
  (* drive the synthesized routines host-side through a thread fd *)
  let region = Kalloc.alloc_zeroed k.Kernel.alloc 64 in
  poke_string m region "/data/model";
  let t = Thread.create k ~entry:0 ~segments:[ (region, 64) ] () in
  let fd =
    match Vfs.open_named vfs t "/data/model" with
    | Some fd -> fd
    | None -> Alcotest.fail "open failed"
  in
  ignore fd;
  (* model: an int array + position *)
  let model = Array.make 128 0 in
  let model_size = ref 0 and model_pos = ref 0 in
  let scratch = Kalloc.alloc_zeroed k.Kernel.alloc 64 in
  let h = Hashtbl.find vfs.Vfs.opens (t.Kernel.tid, fd) in
  let call entry ~r2 ~r3 =
    (* run the synthesized routine as if dispatched from a trap *)
    let frag = [ I.Push (I.Lbl "ret"); I.Push (I.Imm Ctx.kernel_sr);
                 I.B (I.Always, I.To_addr entry); I.Label "ret"; I.Halt ] in
    let start, _ = Asm.assemble m frag in
    Machine.set_halted m false;
    Machine.set_supervisor m true;
    Machine.set_reg m I.sp 0xE00;
    Machine.set_reg m I.r2 r2;
    Machine.set_reg m I.r3 r3;
    Machine.set_pc m start;
    (match Machine.run ~max_insns:100_000 m with
    | Machine.Halted -> ()
    | Machine.Insn_limit -> Alcotest.fail "routine stuck");
    Machine.get_reg m I.r0
  in
  let rng = Random.State.make [| 42 |] in
  for _step = 1 to 200 do
    match Random.State.int rng 3 with
    | 0 ->
      (* write a small chunk *)
      let n = 1 + Random.State.int rng 8 in
      for i = 0 to n - 1 do
        Machine.poke m (scratch + i) (Random.State.int rng 1000)
      done;
      let got = call h.Vfs.h_write ~r2:scratch ~r3:n in
      let room = 128 - !model_pos in
      let exp = min n room in
      check_int "write result" exp got;
      for i = 0 to exp - 1 do
        model.(!model_pos + i) <- Machine.peek m (scratch + i)
      done;
      model_pos := !model_pos + exp;
      model_size := max !model_size !model_pos
    | 1 ->
      (* read a small chunk *)
      let n = 1 + Random.State.int rng 8 in
      let got = call h.Vfs.h_read ~r2:scratch ~r3:n in
      let avail = !model_size - !model_pos in
      let exp = min n avail in
      check_int "read result" exp got;
      for i = 0 to exp - 1 do
        check_int "read data" model.(!model_pos + i) (Machine.peek m (scratch + i))
      done;
      model_pos := !model_pos + exp
    | _ ->
      (* seek *)
      let pos = Random.State.int rng (!model_size + 1) in
      check_bool "seek ok" true (Vfs.seek vfs t fd pos);
      model_pos := pos
  done;
  check_int "final size agrees" !model_size (Fs.file_size vfs file)

(* ------------------------------------------------------------------ *)
(* Quaject connection analysis (§5.2) *)

let test_case_analysis () =
  let open Quaject in
  let check name exp got = Alcotest.(check string) name exp (connector_name got) in
  let p ?mult e = port ?mult e in
  check "active->passive" "procedure call"
    (connect ~producer:(p Active) ~consumer:(p Passive));
  check "passive producer driven by consumer" "procedure call"
    (connect ~producer:(p Passive) ~consumer:(p Active));
  check "multiple on passive end" "monitor + procedure call"
    (connect ~producer:(p ~mult:Multiple Active) ~consumer:(p ~mult:Multiple Passive));
  check "active-active" "SP-SC optimistic queue"
    (connect ~producer:(p Active) ~consumer:(p Active));
  check "multi producers" "MP-SC optimistic queue"
    (connect ~producer:(p ~mult:Multiple Active) ~consumer:(p Active));
  check "multi consumers" "SP-MC optimistic queue"
    (connect ~producer:(p Active) ~consumer:(p ~mult:Multiple Active));
  check "multi both" "MP-MC optimistic queue"
    (connect ~producer:(p ~mult:Multiple Active) ~consumer:(p ~mult:Multiple Active));
  check "passive-passive" "pump"
    (connect ~producer:(p Passive) ~consumer:(p Passive));
  (* The live queues whose ends the server fixes: the table must pick
     the kind each server built.  The cooked queue is left out: how
     many threads read /dev/tty is up to its users. *)
  let b = Boot.boot () in
  let srv = Tty.install b.Boot.vfs in
  let chain = Interrupt.install_chain b.Boot.kernel in
  let connector_of q =
    match q.Kqueue.q_kind with
    | Kqueue.Spsc -> Queue_spsc
    | Kqueue.Mpsc -> Queue_mpsc
    | Kqueue.Spmc -> Queue_spmc
    | Kqueue.Mpmc -> Queue_mpmc
  in
  List.iter
    (fun (name, producer, consumer, q) ->
      check name (connector_name (connector_of q)) (connect ~producer ~consumer))
    [
      ("tty raw: irq -> filter", p Active, p Active, srv.Tty.srv_raw);
      ( "tty screen: echo + writers -> pump",
        p ~mult:Multiple Active,
        p Active,
        srv.Tty.srv_screen );
      ( "chain: nested handlers -> runner",
        p ~mult:Multiple Active,
        p Active,
        chain.Interrupt.ch_queue );
    ]

(* Reference model of the cooked discipline: what a correct erase/kill
   filter delivers for a given keystroke stream. *)
let cooked_reference typed =
  let line = Buffer.create 16 and out = Buffer.create 64 in
  String.iter
    (fun c ->
      match c with
      | '\b' ->
        if Buffer.length line > 0 then begin
          let s = Buffer.contents line in
          Buffer.clear line;
          Buffer.add_string line (String.sub s 0 (String.length s - 1))
        end
      | '\x15' -> Buffer.clear line
      | '\n' ->
        Buffer.add_buffer out line;
        Buffer.add_char out '\n';
        Buffer.clear line
      | c -> Buffer.add_char line c)
    typed;
  Buffer.contents out

let gen_keystrokes =
  QCheck.Gen.(
    let key =
      frequency
        [
          (10, map (fun i -> Char.chr (97 + i)) (int_bound 25));
          (2, return '\b');
          (1, return '\x15');
          (3, return '\n');
        ]
    in
    map
      (fun l ->
        (* always terminate with a newline so everything is delivered *)
        String.init (List.length l) (List.nth l) ^ "\n")
      (list_size (int_range 1 25) key))

let prop_tty_matches_reference =
  QCheck.Test.make ~name:"cooked tty matches the reference discipline" ~count:25
    (QCheck.make gen_keystrokes ~print:String.escaped)
    (fun typed ->
      let expected = cooked_reference typed in
      if String.length expected = 0 || String.length expected > 60 then true
      else begin
        let b = Boot.boot () in
        let k = b.Boot.kernel in
        let m = k.Kernel.machine in
        let _srv = Tty.install b.Boot.vfs in
        let region = Kalloc.alloc_zeroed k.Kernel.alloc 256 in
        poke_string m region "/dev/tty";
        let buf = region + 64 in
        let want = String.length expected in
        let prog =
          [
            I.Move (I.Imm region, I.Reg I.r1);
            I.Trap 3;
            I.Move (I.Reg I.r0, I.Reg I.r13);
            I.Move (I.Imm 0, I.Reg I.r12); (* words so far *)
            I.Label "loop";
            I.Move (I.Reg I.r13, I.Reg I.r1);
            I.Move (I.Imm buf, I.Reg I.r2);
            I.Alu (I.Add, I.Reg I.r12, I.r2);
            I.Move (I.Imm 64, I.Reg I.r3);
            I.Trap 1;
            I.Alu (I.Add, I.Reg I.r0, I.r12);
            I.Cmp (I.Imm want, I.Reg I.r12);
            I.B (I.Cs, I.To_label "loop"); (* got < want *)
            I.Trap 0;
          ]
        in
        let entry, _ = Asm.assemble m prog in
        let _t = Thread.create k ~entry ~segments:[ (region, 256) ] () in
        Devices.Tty.feed k.Kernel.tty typed;
        (match Boot.go ~max_insns:200_000_000 b with
        | Machine.Halted -> ()
        | Machine.Insn_limit -> failwith "tty property run stuck");
        read_words m buf want = expected
      end)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "io"
    [
      ( "tty",
        [
          Alcotest.test_case "plain line" `Quick test_tty_plain_line;
          Alcotest.test_case "erase (^H)" `Quick test_tty_erase;
          Alcotest.test_case "kill (^U)" `Quick test_tty_kill;
          Alcotest.test_case "erase on empty line" `Quick test_tty_erase_empty_line;
        ] );
      ( "adq",
        [
          Alcotest.test_case "lossless at 22kHz" `Quick test_adq_data_integrity;
          Alcotest.test_case "ordered subsequence at 44.1kHz" `Quick
            test_adq_full_rate_subsequence;
        ] );
      ( "chain",
        [
          Alcotest.test_case "chained procs run after handler" `Quick
            test_chain_runs_after_handler;
          Alcotest.test_case "chain queue overflow drops" `Quick
            test_chain_overflow_drops;
        ] );
      ( "vfs",
        [
          Alcotest.test_case "errors on bad names and fds" `Quick test_open_nonexistent;
          Alcotest.test_case "fd reuse after close" `Quick test_fd_reuse_after_close;
          Alcotest.test_case "fs agrees with a reference model" `Quick test_fs_against_model;
        ] );
      ("quaject", [ Alcotest.test_case "§5.2 case analysis" `Quick test_case_analysis ]);
      ("properties", qcheck [ prop_tty_matches_reference ]);
    ]
