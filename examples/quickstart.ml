(* Quickstart: boot a Synthesis kernel, create a thread, and watch
   `open` synthesize the read routine it returns.

   Run with: dune exec examples/quickstart.exe *)

open Quamachine
open Synthesis
module I = Insn

let poke_string m addr s =
  String.iteri (fun i c -> Machine.poke m (addr + i) (Char.code c)) s;
  Machine.poke m (addr + String.length s) 0

let () =
  (* 1. Boot: devices, shared handlers, idle thread, name space. *)
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  Fmt.pr "booted: %d synthesized instructions of kernel code@."
    (Kernel.synthesized_insns k);

  (* 2. Create a file in the memory-resident file system. *)
  let content = Array.init 64 (fun i -> i * i) in
  let _file = Fs.create_file b.Boot.vfs ~name:"/data/squares" ~content () in

  (* 3. A user program: open the file, read it, sum the words, exit.
     The program talks to the kernel through traps; the read it
     performs runs code that `open` generated specifically for this
     file and this thread. *)
  let region = Kalloc.alloc_zeroed k.Kernel.alloc 256 in
  poke_string m region "/data/squares";
  let buf = region + 32 in
  let result_cell = region + 200 in
  let program =
    [
      (* fd = open("/data/squares") *)
      I.Move (I.Imm region, I.Reg I.r1);
      I.Trap 3;
      I.Move (I.Reg I.r0, I.Reg I.r13);
      (* read 64 words *)
      I.Move (I.Reg I.r13, I.Reg I.r1);
      I.Move (I.Imm buf, I.Reg I.r2);
      I.Move (I.Imm 64, I.Reg I.r3);
      I.Trap 1;
      (* sum them *)
      I.Move (I.Imm 0, I.Reg I.r9);
      I.Move (I.Imm buf, I.Reg I.r10);
      I.Move (I.Imm 63, I.Reg I.r11);
      I.Label "sum";
      I.Alu (I.Add, I.Post_inc I.r10, I.r9);
      I.Dbra (I.r11, I.To_label "sum");
      I.Move (I.Reg I.r9, I.Abs result_cell);
      (* close and exit *)
      I.Move (I.Reg I.r13, I.Reg I.r1);
      I.Trap 4;
      I.Trap 0;
    ]
  in
  let entry, _ = Asm.assemble m program in
  let _t = Thread.create k ~entry ~segments:[ (region, 256) ] () in

  (* 4. Run until the program exits. *)
  (match Boot.go ~max_insns:10_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> failwith "did not halt");

  let expected = Array.fold_left ( + ) 0 content in
  Fmt.pr "sum of 64 squares read through the synthesized routine: %d (expected %d)@."
    (Machine.peek m result_cell) expected;
  Fmt.pr "simulated time: %.1f us; %d instructions executed@."
    (Machine.time_us m) (Machine.insns_executed m);
  Fmt.pr "@.code synthesized for this run:@.";
  List.iter
    (fun { Kernel.sp_name = name; sp_entry = entry; sp_len = n; _ } ->
      if String.length name >= 4 && String.sub name 0 4 = "open" then
        Fmt.pr "  %-32s at %5d, %2d instructions@." name entry n)
    (Kernel.pages k)
