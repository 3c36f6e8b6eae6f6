(* Table-driven instruction semantics: one focused case per
   instruction form and branch condition, run on the real engine. *)

open Quamachine
module I = Insn

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let machine () = Machine.create ~mem_words:(1 lsl 16) Cost.sun3_emulation

(* Run [insns] with registers preset from [regs]; return the machine. *)
let run ?(regs = []) ?(mem = []) insns =
  let m = machine () in
  List.iter (fun (r, v) -> Machine.set_reg m r v) regs;
  List.iter (fun (a, v) -> Machine.poke m a v) mem;
  Machine.set_reg m I.sp 0x8000;
  let entry, _ = Asm.assemble m (insns @ [ I.Halt ]) in
  Machine.set_pc m entry;
  (match Machine.run ~max_insns:10_000 m with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "did not halt");
  m

(* One ALU case: op, dst value, src value, expected result. *)
let alu_case name op dst src expected () =
  let m = run ~regs:[ (0, dst) ] [ I.Alu (op, I.Imm src, 0) ] in
  check_int name expected (Machine.get_reg m 0)

(* One branch case: set flags with a Cmp (src, dst), branch, record. *)
let branch_case name cond src dst taken () =
  let m =
    run
      [
        I.Move (I.Imm dst, I.Reg 0);
        I.Cmp (I.Imm src, I.Reg 0);
        I.B (cond, I.To_label "yes");
        I.Move (I.Imm 0, I.Abs 0x100);
        I.Halt;
        I.Label "yes";
        I.Move (I.Imm 1, I.Abs 0x100);
      ]
  in
  check_int name (if taken then 1 else 0) (Machine.peek m 0x100)

let alu_tests =
  [
    ("add", I.Add, 7, 5, 12);
    ("add wraps", I.Add, Word.mask, 1, 0);
    ("sub", I.Sub, 7, 5, 2);
    ("sub borrows", I.Sub, 0, 1, Word.mask);
    ("mul", I.Mul, 6, 7, 42);
    ("mul negative", I.Mul, Word.of_int (-3), 5, Word.of_int (-15));
    ("divu", I.Divu, 42, 5, 8);
    ("divs negative", I.Divs, Word.of_int (-42), 5, Word.of_int (-8));
    ("and", I.And, 0b1100, 0b1010, 0b1000);
    ("or", I.Or, 0b1100, 0b1010, 0b1110);
    ("xor", I.Xor, 0b1100, 0b1010, 0b0110);
    ("lsl", I.Lsl, 3, 4, 48);
    ("lsl out the top", I.Lsl, Word.mask, 4, Word.mask - 15);
    ("lsr", I.Lsr, 48, 4, 3);
    ("lsr of negative is logical", I.Lsr, Word.mask, 28, 15);
    ("asr keeps sign", I.Asr, Word.of_int (-64), 3, Word.of_int (-8));
  ]

let branch_tests =
  (* branch_case name cond src dst taken — flags from dst - src *)
  [
    ("eq taken", I.Eq, 5, 5, true);
    ("eq not taken", I.Eq, 5, 6, false);
    ("ne", I.Ne, 5, 6, true);
    ("lt signed", I.Lt, 1, Word.of_int (-1), true);
    ("lt not for unsigned-big", I.Lt, Word.of_int (-1), 1, false);
    ("ge equal", I.Ge, 5, 5, true);
    ("le less", I.Le, 9, 3, true);
    ("gt greater", I.Gt, 3, 9, true);
    ("gt not equal", I.Gt, 5, 5, false);
    ("hi unsigned", I.Hi, 1, Word.of_int (-1), true);
    ("ls unsigned", I.Ls, Word.of_int (-1), 1, true);
    ("cs borrow", I.Cs, 6, 5, true);
    ("cc no borrow", I.Cc, 5, 6, true);
    ("mi negative", I.Mi, 1, 0, true);
    ("pl positive", I.Pl, 0, 1, true);
  ]

(* ------------------------------------------------------------------ *)
(* Odd corners *)

let test_lea () =
  let m = run ~regs:[ (2, 0x300) ] [ I.Lea (I.Idx (2, 5), 0) ] in
  check_int "lea computes, does not load" 0x305 (Machine.get_reg m 0)

let test_alu_mem () =
  let m = run ~mem:[ (0x200, 40) ] [ I.Alu_mem (I.Add, I.Imm 2, I.Abs 0x200) ] in
  check_int "read-modify-write" 42 (Machine.peek m 0x200)

let test_neg_not () =
  let m = run ~regs:[ (0, 5); (1, 5) ] [ I.Neg 0; I.Not 1 ] in
  check_int "neg" (Word.of_int (-5)) (Machine.get_reg m 0);
  check_int "not" (Word.mask - 5) (Machine.get_reg m 1)

let test_push_pop_memory_operand () =
  let m =
    run ~mem:[ (0x200, 123) ]
      [ I.Push (I.Abs 0x200); I.Pop 0 ]
  in
  check_int "push from memory" 123 (Machine.get_reg m 0);
  check_int "stack balanced" 0x8000 (Machine.get_reg m I.sp)

let test_predec_postinc_pair () =
  (* a push/pop built from raw addressing modes *)
  let m =
    run ~regs:[ (2, 0x400) ]
      [
        I.Move (I.Imm 9, I.Pre_dec 2); (* [0x3FF] = 9, r2 = 0x3FF *)
        I.Move (I.Post_inc 2, I.Reg 0); (* r0 = 9, r2 = 0x400 *)
      ]
  in
  check_int "value round-trips" 9 (Machine.get_reg m 0);
  check_int "pointer restored" 0x400 (Machine.get_reg m 2)

let test_dbra_zero_iterations () =
  (* entering with the counter at 0: body should run exactly once *)
  let m =
    run
      [
        I.Move (I.Imm 0, I.Reg 1);
        I.Move (I.Imm 0, I.Reg 0);
        I.Label "loop";
        I.Alu (I.Add, I.Imm 1, 0);
        I.Dbra (1, I.To_label "loop");
      ]
  in
  check_int "one pass then fall through" 1 (Machine.get_reg m 0)

let test_move_sets_nz () =
  let m =
    run
      [
        I.Move (I.Imm 0, I.Reg 0);
        I.B (I.Eq, I.To_label "z");
        I.Move (I.Imm 0, I.Abs 0x100);
        I.Halt;
        I.Label "z";
        I.Move (I.Imm (-1), I.Reg 0);
        I.B (I.Mi, I.To_label "n");
        I.Move (I.Imm 0, I.Abs 0x100);
        I.Halt;
        I.Label "n";
        I.Move (I.Imm 1, I.Abs 0x100);
      ]
  in
  check_int "move sets Z then N" 1 (Machine.peek m 0x100)

let test_tst_memory () =
  let m =
    run ~mem:[ (0x200, 0) ]
      [
        I.Tst (I.Abs 0x200);
        I.B (I.Eq, I.To_label "z");
        I.Move (I.Imm 0, I.Abs 0x100);
        I.Halt;
        I.Label "z";
        I.Move (I.Imm 1, I.Abs 0x100);
      ]
  in
  check_int "tst reads memory" 1 (Machine.peek m 0x100)

let test_jmp_indirect_register () =
  let m = machine () in
  let target, _ = Asm.assemble m [ I.Move (I.Imm 5, I.Abs 0x100); I.Halt ] in
  let entry, _ =
    Asm.assemble m [ I.Move (I.Imm target, I.Reg 3); I.Jmp (I.To_reg 3) ]
  in
  Machine.set_pc m entry;
  ignore (Machine.run ~max_insns:100 m);
  check_int "jmp through register" 5 (Machine.peek m 0x100)

let test_fp_ops () =
  let m =
    run
      [
        I.Fmove_imm (2.5, 0);
        I.Fmove_imm (4.0, 1);
        I.Fop (I.Fmul, 0, 1); (* f1 = 10.0 *)
        I.Fmove (1, 2);
        I.Fop (I.Fdiv, 0, 2); (* f2 = 4.0 *)
        I.Fop (I.Fsub, 0, 2); (* f2 = 1.5 *)
      ]
  in
  check_bool "fmul" true (Machine.get_freg m 1 = 10.0);
  check_bool "fdiv/fsub" true (Machine.get_freg m 2 = 1.5)

let test_fp_disabled_traps () =
  let m = machine () in
  let handler, _ = Asm.assemble m [ I.Move (I.Imm 1, I.Abs 0x100); I.Halt ] in
  Machine.poke m I.Vector.fp_unavailable handler;
  let entry, _ = Asm.assemble m [ I.Fmove_imm (1.0, 0); I.Halt ] in
  Machine.set_fp_enabled m false;
  Machine.set_reg m I.sp 0x8000;
  Machine.set_pc m entry;
  ignore (Machine.run ~max_insns:100 m);
  check_int "fp trap taken" 1 (Machine.peek m 0x100)

let test_trap_out_of_range_hcall () =
  let m = machine () in
  let handler, _ = Asm.assemble m [ I.Move (I.Imm 1, I.Abs 0x100); I.Halt ] in
  Machine.poke m I.Vector.illegal handler;
  let entry, _ = Asm.assemble m [ I.Hcall 9999; I.Halt ] in
  Machine.set_reg m I.sp 0x8000;
  Machine.set_pc m entry;
  ignore (Machine.run ~max_insns:100 m);
  check_int "unregistered hcall = illegal" 1 (Machine.peek m 0x100)

(* ------------------------------------------------------------------ *)
(* One case per form [Machine.set_code] compiles differently: every
   addressing mode a Move, Alu, Cmp or Tst reads and a Move writes,
   and every branch condition and target kind.  Each case runs one
   instruction and checks its result, the registers its addressing
   modes move, the flags, and what it charged. *)

(* The value the operand cases move: negative, so N is set. *)
let v = 0x8000_0005

(* Step the one instruction [insn] and check its charges: one
   instruction, [refs] references (default [Cost.refs insn]) and the
   base cost plus those references in cycles. *)
let step1 ?(regs = []) ?(mem = []) ?refs insn =
  let m = machine () in
  Machine.set_reg m I.sp 0x8000;
  List.iter (fun (r, x) -> Machine.set_reg m r x) regs;
  List.iter (fun (a, x) -> Machine.poke m a x) mem;
  let entry = Machine.append_code m [ insn; I.Halt ] in
  Machine.set_pc m entry;
  Machine.step m;
  let refs = Option.value refs ~default:(Cost.refs insn) in
  check_int "one instruction" 1 (Machine.insns_executed m);
  check_int "references" refs (Machine.mem_refs m);
  check_int "cycles"
    (Cost.base insn + (refs * Cost.mem_ref_cycles Cost.sun3_emulation))
    (Machine.cycles m);
  (m, entry)

(* NZVC as packed in the status register. *)
let flags m = Machine.pack_sr m land 0xF
let flag_n = 8

(* The memory modes through register [r] pointing at [base]: name,
   operand, the address it accesses, and [r] afterwards. *)
let mem_modes r base =
  [
    ("ind", I.Ind r, base, base);
    ("idx", I.Idx (r, 4), base + 4, base);
    ("abs", I.Abs (base + 16), base + 16, base);
    ("post_inc", I.Post_inc r, base, base + 1);
    ("pre_dec", I.Pre_dec r, base - 1, base - 1);
  ]

(* Sources read [v] through r1 = 0x200 (or r3, or an immediate): name,
   operand, the setup that plants [v], r1 afterwards. *)
let sources =
  [ ("imm", I.Imm v, ([], []), 0x200); ("reg", I.Reg 3, ([ (3, v) ], []), 0x200) ]
  @ List.map
      (fun (name, op, addr, r1) -> (name, op, ([], [ (addr, v) ]), r1))
      (mem_modes 1 0x200)

(* Destinations write through r2 = 0x300 (or r4): name, operand, where
   the value lands, r2 afterwards. *)
let destinations =
  [ ("reg", I.Reg 4, (fun m -> Machine.get_reg m 4), 0x300) ]
  @ List.map
      (fun (name, op, addr, r2) -> (name, op, (fun m -> Machine.peek m addr), r2))
      (mem_modes 2 0x300)

let step_src ?(regs = []) (_, _, (sregs, mem), _) insn =
  step1 ~regs:([ (1, 0x200); (2, 0x300) ] @ sregs @ regs) ~mem insn

let move_case ((sname, src, _, r1) as s) (dname, dst, landed, r2) =
  let name = sname ^ " -> " ^ dname in
  Alcotest.test_case name `Quick (fun () ->
      let m, _ = step_src s (I.Move (src, dst)) in
      check_int (name ^ ": value") v (landed m);
      check_int (name ^ ": r1") r1 (Machine.get_reg m 1);
      check_int (name ^ ": r2") r2 (Machine.get_reg m 2);
      check_int (name ^ ": flags") flag_n (flags m))

(* r0 := r0 op v for Add (its own closure with an immediate) and Sub
   (the general one). *)
let alu_src_case op opname expected ((sname, src, _, r1) as s) =
  let name = opname ^ " " ^ sname in
  Alcotest.test_case name `Quick (fun () ->
      let m, _ = step_src ~regs:[ (0, 10) ] s (I.Alu (op, src, 0)) in
      check_int (name ^ ": result") expected (Machine.get_reg m 0);
      check_int (name ^ ": r1") r1 (Machine.get_reg m 1);
      check_int (name ^ ": N") flag_n (flags m land flag_n))

(* Cmp (src, r4) with r4 = 5: 5 - v borrows and overflows to
   0x8000_0000, so N, V and C are set. *)
let cmp_case ((sname, src, _, r1) as s) =
  Alcotest.test_case ("cmp " ^ sname) `Quick (fun () ->
      let m, _ = step_src ~regs:[ (4, 5) ] s (I.Cmp (src, I.Reg 4)) in
      check_int "r4 untouched" 5 (Machine.get_reg m 4);
      check_int "r1" r1 (Machine.get_reg m 1);
      check_int "NZVC" 0b1011 (flags m))

let tst_case ((sname, src, _, r1) as s) =
  Alcotest.test_case ("tst " ^ sname) `Quick (fun () ->
      let m, _ = step_src s (I.Tst src) in
      check_int "r1" r1 (Machine.get_reg m 1);
      check_int "N only" flag_n (flags m))

let conds =
  I.
    [
      ("ra", Always); ("eq", Eq); ("ne", Ne); ("lt", Lt); ("ge", Ge); ("le", Le);
      ("gt", Gt); ("hi", Hi); ("ls", Ls); ("cs", Cs); ("cc", Cc); ("mi", Mi);
      ("pl", Pl);
    ]

(* The 68k condition table, as an oracle over NZVC. *)
let holds cond sr =
  let n = sr land 8 <> 0 and z = sr land 4 <> 0 and v = sr land 2 <> 0
  and c = sr land 1 <> 0 in
  match cond with
  | I.Always -> true
  | I.Eq -> z
  | I.Ne -> not z
  | I.Lt -> n <> v
  | I.Ge -> n = v
  | I.Le -> z || n <> v
  | I.Gt -> (not z) && n = v
  | I.Hi -> (not c) && not z
  | I.Ls -> c || z
  | I.Cs -> c
  | I.Cc -> not c
  | I.Mi -> n
  | I.Pl -> not n

(* (r0, src) pairs whose Cmp leaves Z, N+C, V and no flag set. *)
let flag_setups = [ (5, 5); (5, 6); (0x8000_0000, 1); (6, 5) ]

let dest = 77

(* Target kinds, all pointing at code address [dest]: name, target,
   registers and memory it reads, its references. *)
let targets =
  [
    ("to_addr", I.To_addr dest, [], [], 0);
    ("to_reg", I.To_reg 6, [ (6, dest) ], [], 0);
    ("to_mem ind", I.To_mem (I.Ind 7), [ (7, 0x400) ], [ (0x400, dest) ], 1);
    ("to_mem idx", I.To_mem (I.Idx (7, 2)), [ (7, 0x400) ], [ (0x402, dest) ], 1);
    ("to_mem abs", I.To_mem (I.Abs 0x410), [], [ (0x410, dest) ], 1);
  ]

(* B through each target kind under each flag setting: the PC lands
   on [dest] exactly when the condition holds, and a memory target is
   read only then. *)
let branch_kind_case (cname, cond) (tname, tgt, regs, mem, refs) =
  let name = Fmt.str "b%s %s" cname tname in
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun (r0, src) ->
          let m = machine () in
          Machine.set_reg m 0 r0;
          List.iter (fun (r, x) -> Machine.set_reg m r x) regs;
          List.iter (fun (a, x) -> Machine.poke m a x) mem;
          let entry = Machine.append_code m [ I.Cmp (I.Imm src, I.Reg 0); I.B (cond, tgt) ] in
          Machine.set_pc m entry;
          Machine.step m;
          let sr = flags m and refs0 = Machine.mem_refs m in
          Machine.step m;
          let taken = holds cond sr in
          check_int (Fmt.str "%s, NZVC %x: pc" name sr)
            (if taken then dest else entry + 2)
            (Machine.get_pc m);
          check_int (Fmt.str "%s, NZVC %x: references" name sr)
            (if taken then refs else 0)
            (Machine.mem_refs m - refs0))
        flag_setups)

(* Dbra through each target kind: a counter of 1 branches, 0 falls
   through (and wraps to -1). *)
let dbra_case (tname, tgt, regs, mem, _) =
  Alcotest.test_case ("dbra " ^ tname) `Quick (fun () ->
      List.iter
        (fun (count, taken) ->
          let m, entry =
            step1 ~regs:((5, count) :: regs) ~mem
              ~refs:(if taken then Cost.refs (I.Dbra (5, tgt)) else 0)
              (I.Dbra (5, tgt))
          in
          check_int "counter" (Word.of_int (count - 1)) (Machine.get_reg m 5);
          check_int "pc" (if taken then dest else entry + 1) (Machine.get_pc m))
        [ (1, true); (0, false) ])

let jmp_case (tname, tgt, regs, mem, _) =
  Alcotest.test_case ("jmp " ^ tname) `Quick (fun () ->
      let m, _ = step1 ~regs ~mem (I.Jmp tgt) in
      check_int "pc" dest (Machine.get_pc m))

let jsr_case (tname, tgt, regs, mem, _) =
  Alcotest.test_case ("jsr " ^ tname) `Quick (fun () ->
      let m, entry = step1 ~regs ~mem (I.Jsr tgt) in
      check_int "pc" dest (Machine.get_pc m);
      check_int "sp" 0x7FFF (Machine.get_reg m I.sp);
      check_int "return address" (entry + 1) (Machine.peek m 0x7FFF))

(* A misplaced operand or a pseudo-instruction compiles (patching it
   in never raises) and raises [Invalid_argument] only when it runs. *)
let raises_when_run (name, insn, msg) =
  Alcotest.test_case name `Quick (fun () ->
      let m = machine () in
      let entry = Machine.reserve_code m 1 in
      Machine.patch_code m entry insn;
      Machine.set_pc m entry;
      Alcotest.check_raises name (Invalid_argument msg) (fun () -> Machine.step m))

let misplaced =
  [
    ("move to an immediate", I.Move (I.Reg 0, I.Imm 1), "write_operand: immediate destination");
    ("move to a label", I.Move (I.Reg 0, I.Lbl "x"), "effective_addr: not a memory operand");
    ("unresolved source label", I.Move (I.Lbl "x", I.Reg 0), "read_operand: unresolved label x");
    ("lea of a register", I.Lea (I.Reg 1, 0), "effective_addr: not a memory operand");
    ("jmp through an immediate", I.Jmp (I.To_mem (I.Imm 3)), "effective_addr: not a memory operand");
    ("unresolved target label", I.Jsr (I.To_label "x"), "resolve_target: unresolved label x");
    ("label in a slot", I.Label "x", "exec: pseudo-instruction in code store");
    ("probe in a slot", I.Probe "x", "exec: pseudo-instruction in code store");
  ]

let compiled_forms =
  [
    ( "compiled move",
      List.concat_map (fun s -> List.map (move_case s) destinations) sources );
    ( "compiled alu/cmp/tst",
      List.map (alu_src_case I.Add "add" (Word.of_int (10 + v))) sources
      @ List.map (alu_src_case I.Sub "sub" (Word.of_int (10 - v))) sources
      @ List.map cmp_case sources
      @ List.map tst_case sources );
    ( "compiled control",
      List.concat_map (fun c -> List.map (branch_kind_case c) targets) conds
      @ List.map dbra_case targets
      @ List.map jmp_case targets
      @ List.map jsr_case targets );
    ("compiled misplaced", List.map raises_when_run misplaced);
  ]

let () =
  Alcotest.run "insn-semantics"
    ([
      ( "alu",
        List.map
          (fun (name, op, dst, src, expected) ->
            Alcotest.test_case name `Quick (alu_case name op dst src expected))
          alu_tests );
      ( "branches",
        List.map
          (fun (name, cond, src, dst, taken) ->
            Alcotest.test_case name `Quick (branch_case name cond src dst taken))
          branch_tests );
      ( "corners",
        [
          Alcotest.test_case "lea" `Quick test_lea;
          Alcotest.test_case "alu_mem rmw" `Quick test_alu_mem;
          Alcotest.test_case "neg/not" `Quick test_neg_not;
          Alcotest.test_case "push/pop memory operand" `Quick
            test_push_pop_memory_operand;
          Alcotest.test_case "predec/postinc pair" `Quick test_predec_postinc_pair;
          Alcotest.test_case "dbra from zero" `Quick test_dbra_zero_iterations;
          Alcotest.test_case "move sets N/Z" `Quick test_move_sets_nz;
          Alcotest.test_case "tst memory" `Quick test_tst_memory;
          Alcotest.test_case "jmp via register" `Quick test_jmp_indirect_register;
          Alcotest.test_case "fp arithmetic" `Quick test_fp_ops;
          Alcotest.test_case "fp disabled traps" `Quick test_fp_disabled_traps;
          Alcotest.test_case "bad hcall is illegal" `Quick test_trap_out_of_range_hcall;
        ] );
    ]
    @ compiled_forms)
