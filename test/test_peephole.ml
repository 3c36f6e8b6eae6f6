(* Peephole optimizer tests: targeted rewrites plus a semantic
   equivalence property — for random programs (including conditional
   branches), the optimized code must leave the machine in exactly the
   same state as the original, in no more cycles. *)

open Quamachine
open Synthesis
module I = Insn

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Targeted rewrites *)

let count = Asm.length

let test_drop_self_move () =
  let prog = [ I.Move (I.Reg 1, I.Reg 1); I.Move (I.Imm 5, I.Reg 0); I.Halt ] in
  check_int "self move dropped" 2 (count (Peephole.optimize prog))

let test_keep_self_move_when_flags_live () =
  (* the self move sets N/Z which the branch reads *)
  let prog =
    [ I.Move (I.Reg 1, I.Reg 1); I.B (I.Eq, I.To_label "x"); I.Label "x"; I.Halt ]
  in
  check_int "self move kept for flags" 3 (count (Peephole.optimize prog))

let test_strength_reduction () =
  let prog = [ I.Alu (I.Mul, I.Imm 8, 2); I.Halt ] in
  (match Peephole.optimize prog with
  | [ I.Alu (I.Lsl, I.Imm 3, 2); I.Halt ] -> ()
  | _ -> Alcotest.fail "mul 8 not reduced to lsl 3");
  let prog = [ I.Alu (I.Divu, I.Imm 4, 2); I.Halt ] in
  match Peephole.optimize prog with
  | [ I.Alu (I.Lsr, I.Imm 2, 2); I.Halt ] -> ()
  | _ -> Alcotest.fail "divu 4 not reduced to lsr 2"

let test_constant_folding () =
  let prog =
    [
      I.Move (I.Imm 10, I.Reg 3);
      I.Alu (I.And, I.Imm 6, 3);
      I.Move (I.Reg 3, I.Abs 0x100);
      I.Halt;
    ]
  in
  match Peephole.optimize prog with
  | [ I.Move (I.Imm 2, I.Reg 3); I.Move (I.Reg 3, I.Abs 0x100); I.Halt ] -> ()
  | l -> Alcotest.failf "fold failed: %d insns" (List.length l)

let test_add_fold_needs_dead_flags () =
  (* Add sets carry, the Cs branch reads it: folding is unsound here *)
  let prog =
    [
      I.Move (I.Imm 10, I.Reg 3);
      I.Alu (I.Add, I.Imm 5, 3);
      I.B (I.Cs, I.To_label "x");
      I.Label "x";
      I.Halt;
    ]
  in
  check_int "add not folded when carry is read" 4 (count (Peephole.optimize prog))

let test_dead_store () =
  let prog =
    [ I.Move (I.Imm 1, I.Reg 4); I.Move (I.Imm 2, I.Reg 4); I.Tst (I.Reg 4); I.Halt ]
  in
  check_int "dead store removed" 3 (count (Peephole.optimize prog))

let test_dead_store_kept_if_read () =
  let prog =
    [ I.Move (I.Imm 1, I.Reg 4); I.Move (I.Ind 4, I.Reg 4); I.Tst (I.Reg 4); I.Halt ]
  in
  check_int "store kept when next reads it" 4 (count (Peephole.optimize prog))

(* ------------------------------------------------------------------ *)
(* Property: semantic equivalence on random programs *)

let mem_base = 0x100
let mem_cells = 8

type obs = { regs : int list; mem : int list; sr : int; halted : bool }

let run_program insns =
  let m = Machine.create ~mem_words:(1 lsl 12) Cost.sun3_emulation in
  (* registers point into the valid memory window so Ind/Idx work *)
  for r = 0 to 7 do
    Machine.set_reg m r (mem_base + (r mod mem_cells))
  done;
  Machine.set_reg m I.sp 0x800;
  for i = 0 to mem_cells - 1 do
    Machine.poke m (mem_base + i) ((i * 37) + 1)
  done;
  (* a fault is an observable effect: route every exception to a halt
     stub (which records that a fault happened) so both program
     versions stop at the same point *)
  let fault_flag = 0x1F0 in
  let stub, _ = Asm.assemble m [ I.Move (I.Imm 1, I.Abs fault_flag); I.Halt ] in
  for v = 0 to I.Vector.table_size - 1 do
    Machine.poke m v stub
  done;
  let entry, _ = Asm.assemble m (insns @ [ I.Halt ]) in
  Machine.set_pc m entry;
  let r = Machine.run ~max_insns:10_000 m in
  let faulted = Machine.peek m fault_flag = 1 in
  ( {
      (* A memory-operand fault exposes live flags (in its exception
         frame) and the pre-fault register file; synthesized kernel
         code never faults on its validated addresses (see Peephole),
         so on a faulted run the property compares only memory — whose
         stores no rewrite may drop — and the fault itself. *)
      regs =
        (if faulted then [] else List.init 8 (fun i -> Machine.get_reg m i));
      mem = List.init mem_cells (fun i -> Machine.peek m (mem_base + i));
      sr = (if faulted then 0 else Machine.pack_sr m land 0xF);
      halted = r = Machine.Halted && not faulted;
    },
    Machine.cycles m )

(* Program generator: a sequence of segments, each ending at a fresh
   label that a forward conditional branch may target. *)
let gen_operand =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun v -> I.Imm (v - 32)) (int_bound 64));
        (4, map (fun r -> I.Reg r) (int_bound 7));
        (2, map (fun i -> I.Abs (mem_base + i)) (int_bound (mem_cells - 1)));
        (1, map (fun r -> I.Ind r) (int_bound 7));
      ])

let gen_reg = QCheck.Gen.int_bound 7

let gen_alu_op =
  QCheck.Gen.oneofl
    [ I.Add; I.Sub; I.Mul; I.And; I.Or; I.Xor; I.Lsl; I.Lsr; I.Asr; I.Divu ]

let gen_cond =
  QCheck.Gen.oneofl [ I.Eq; I.Ne; I.Lt; I.Ge; I.Gt; I.Le; I.Cs; I.Cc; I.Hi; I.Ls ]

let gen_insn =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map2
            (fun s d -> I.Move (s, d))
            gen_operand
            (frequency
               [
                 (3, map (fun r -> I.Reg r) gen_reg);
                 (1, map (fun i -> I.Abs (mem_base + i)) (int_bound (mem_cells - 1)));
               ]) );
        (4, map3 (fun op s r -> I.Alu (op, s, r)) gen_alu_op gen_operand gen_reg);
        (2, map2 (fun s d -> I.Cmp (s, d)) gen_operand gen_operand);
        (1, map (fun o -> I.Tst o) gen_operand);
        (1, map (fun r -> I.Neg r) gen_reg);
        (1, map (fun r -> I.Not r) gen_reg);
      ])

let gen_segment idx =
  QCheck.Gen.(
    let lbl = Printf.sprintf "L%d" idx in
    map2
      (fun insns branch ->
        let body = insns in
        let br =
          match branch with
          | None -> []
          | Some c -> [ I.B (c, I.To_label lbl) ]
        in
        body @ br @ [ I.Label lbl ])
      (list_size (int_range 1 4) gen_insn)
      (opt gen_cond))

let gen_program =
  QCheck.Gen.(
    let* n = int_range 1 6 in
    let rec go i acc =
      if i >= n then return (List.concat (List.rev acc))
      else
        let* seg = gen_segment i in
        go (i + 1) (seg :: acc)
    in
    go 0 [])

let arb_program =
  QCheck.make gen_program ~print:(fun p -> Fmt.str "%a" Asm.pp_listing p)

let prop_equivalence =
  QCheck.Test.make ~name:"peephole preserves semantics" ~count:500 arb_program
    (fun prog ->
      let optimized = Peephole.optimize prog in
      let obs1, cy1 = run_program prog in
      let obs2, cy2 = run_program optimized in
      obs1 = obs2 && cy2 <= cy1)

let prop_never_longer =
  QCheck.Test.make ~name:"peephole never adds instructions" ~count:500 arb_program
    (fun prog -> Asm.length (Peephole.optimize prog) <= Asm.length prog)

let prop_idempotent =
  QCheck.Test.make ~name:"peephole is idempotent" ~count:300 arb_program (fun prog ->
      let once = Peephole.optimize prog in
      Peephole.optimize once = once)

(* Probe points are zero-width: with probes inserted anywhere, the
   optimized code is exactly what the probe-free program optimizes to,
   and every probe survives, in order and in place. *)
let is_probe = function I.Probe _ -> true | _ -> false
let strip = List.filter (fun i -> not (is_probe i))

let gen_probed =
  QCheck.Gen.(
    let* prog = gen_program in
    let* at = list_size (int_range 1 4) (int_bound (List.length prog)) in
    let with_probes =
      List.concat
        (List.mapi
           (fun i insn ->
             List.filter_map
               (fun (j, a) -> if a = i then Some (I.Probe (string_of_int j)) else None)
               (List.mapi (fun j a -> (j, a)) at)
             @ [ insn ])
           prog)
      @ List.filter_map
          (fun (j, a) ->
            if a = List.length prog then Some (I.Probe (string_of_int j)) else None)
          (List.mapi (fun j a -> (j, a)) at)
    in
    return with_probes)

(* Each probe also keeps its place: every kept instruction in front
   of it in the output came from in front of its point in the input,
   every kept one behind it from behind.  Kept instructions are found
   by identity against the input (the generator allocates each one
   fresh); rewrites may land on either side. *)
let probes_in_place prog out =
  let body = Array.of_list (strip prog) in
  let kept insns =
    List.filter_map
      (fun o ->
        let rec find k =
          if k = Array.length body then None
          else if body.(k) == o then Some k
          else find (k + 1)
        in
        find 0)
      (strip insns)
  in
  let rec split p = function
    | I.Probe q :: rest when q = p -> ([], rest)
    | i :: rest ->
      let before, after = split p rest in
      (i :: before, after)
    | [] -> ([], [])
  in
  List.for_all
    (function
      | I.Probe p ->
        let j = List.length (strip (fst (split p prog))) in
        let before, after = split p out in
        List.for_all (fun k -> k < j) (kept before)
        && List.for_all (fun k -> k >= j) (kept after)
      | _ -> true)
    prog

let prop_probes_invisible =
  QCheck.Test.make ~name:"peephole ignores probe points" ~count:500
    (QCheck.make gen_probed ~print:(fun p -> Fmt.str "%a" Asm.pp_listing p))
    (fun prog ->
      let out = Peephole.optimize prog in
      strip out = Peephole.optimize (strip prog)
      && List.filter is_probe out = List.filter is_probe prog
      && probes_in_place prog out)

let test_probe_moves_to_survivor () =
  let prog =
    [ I.Probe "p"; I.Move (I.Reg 1, I.Reg 1); I.Move (I.Imm 5, I.Reg 0); I.Halt ]
  in
  Alcotest.(check bool) "probe now precedes the next kept instruction" true
    (Peephole.optimize prog = [ I.Probe "p"; I.Move (I.Imm 5, I.Reg 0); I.Halt ])

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "peephole"
    [
      ( "rewrites",
        [
          Alcotest.test_case "drop self move" `Quick test_drop_self_move;
          Alcotest.test_case "keep self move for flags" `Quick
            test_keep_self_move_when_flags_live;
          Alcotest.test_case "strength reduction" `Quick test_strength_reduction;
          Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "add fold needs dead flags" `Quick
            test_add_fold_needs_dead_flags;
          Alcotest.test_case "dead store" `Quick test_dead_store;
          Alcotest.test_case "dead store kept if read" `Quick
            test_dead_store_kept_if_read;
          Alcotest.test_case "probe moves to survivor" `Quick
            test_probe_moves_to_survivor;
        ] );
      ( "properties",
        qcheck
          [ prop_equivalence; prop_never_longer; prop_idempotent; prop_probes_invisible ]
      );
    ]
