(* The directed-graph model of computation (§2.1), composed
   declaratively: generator -> squarer -> accumulator, three threads
   connected by two SP-SC pipes chosen by the quaject interfacer.

   Run with: dune exec examples/dataflow.exe *)

open Quamachine
open Synthesis
module I = Insn

let () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let n = 200 in
  let result = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let cell_a = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let cell_b = Kalloc.alloc_zeroed k.Kernel.alloc 16 in

  (* generator: writes 1..n, one word at a time *)
  let generator ~wfd =
    [
      I.Move (I.Imm 1, I.Reg I.r9);
      I.Label "loop";
      I.Move (I.Reg I.r9, I.Abs cell_a);
      I.Move (I.Imm wfd, I.Reg I.r1);
      I.Move (I.Imm cell_a, I.Reg I.r2);
      I.Move (I.Imm 1, I.Reg I.r3);
      I.Trap 2;
      I.Alu (I.Add, I.Imm 1, I.r9);
      I.Cmp (I.Imm (n + 1), I.Reg I.r9);
      I.B (I.Ne, I.To_label "loop");
      I.Trap 0;
    ]
  in
  (* squarer: reads a word, squares it, writes it on *)
  let squarer ~rfd ~wfd =
    [
      I.Move (I.Imm n, I.Reg I.r9);
      I.Label "loop";
      I.Move (I.Imm rfd, I.Reg I.r1);
      I.Move (I.Imm cell_b, I.Reg I.r2);
      I.Move (I.Imm 1, I.Reg I.r3);
      I.Trap 1;
      I.Move (I.Abs cell_b, I.Reg I.r10);
      I.Alu (I.Mul, I.Reg I.r10, I.r10);
      I.Move (I.Reg I.r10, I.Abs cell_b);
      I.Move (I.Imm wfd, I.Reg I.r1);
      I.Move (I.Imm cell_b, I.Reg I.r2);
      I.Move (I.Imm 1, I.Reg I.r3);
      I.Trap 2;
      I.Alu (I.Sub, I.Imm 1, I.r9);
      I.B (I.Ne, I.To_label "loop");
      I.Trap 0;
    ]
  in
  (* accumulator: sums n squares *)
  let accumulator ~rfd =
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
  let built =
    Stream_graph.pipeline b.Boot.vfs
      [
        Stream_graph.stage ~segments:[ (cell_a, 16) ] (Stream_graph.Head generator);
        Stream_graph.stage ~segments:[ (cell_b, 16) ] (Stream_graph.Middle squarer);
        Stream_graph.stage
          ~segments:[ (result, 16) ]
          (Stream_graph.Tail accumulator);
      ]
  in
  Fmt.pr "graph: %d threads, %d arcs; connectors: %a@."
    (List.length built.Stream_graph.sg_threads)
    (List.length built.Stream_graph.sg_pipes)
    Fmt.(list ~sep:comma string)
    (List.map Quaject.connector_name built.Stream_graph.sg_connectors);
  Scheduler.install k ~epoch_us:2_000 ();
  (match Boot.go ~max_insns:200_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> failwith "did not halt");
  let expected = n * (n + 1) * ((2 * n) + 1) / 6 in
  Fmt.pr "sum of squares 1..%d through the pipeline: %d (expected %d)@." n
    (Machine.peek m result) expected;
  Fmt.pr "simulated time: %.2f ms@." (Machine.time_us m /. 1000.0)
