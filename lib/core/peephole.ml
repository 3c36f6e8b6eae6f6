(* Peephole optimizer run over synthesized code before installation
   (the "optimization" stage of [Ksynth.instantiate], which builds
   every quaject, §2.2–2.3).

   Rules fire only when provably safe.  Because most instructions set
   condition codes, deleting or rewriting one may change flags seen by
   a later conditional branch; [flags_dead_after] scans forward and
   only allows a rewrite when some instruction redefines the flags
   before any possible reader. *)

open Quamachine

(* Division traps on a zero divisor *before* defining flags, so it
   cannot prove earlier flags dead — the exception frame would expose
   them.  Memory operands can in principle fault too (exposing both
   flags and the pre-fault register file, which also matters to the
   dead-store rule), but synthesized kernel code only emits validated
   kernel addresses; that invariant is what lets ordinary moves count
   as flag and register definitions here. *)
let writes_flags = function
  | Insn.Alu ((Insn.Divu | Insn.Divs), _, _)
  | Insn.Alu_mem ((Insn.Divu | Insn.Divs), _, _) ->
    false
  | Insn.Move _ | Insn.Alu _ | Insn.Alu_mem _ | Insn.Cmp _ | Insn.Tst _
  | Insn.Neg _ | Insn.Not _ | Insn.Cas _ ->
    true
  | _ -> false

let may_fault = function
  | Insn.Alu ((Insn.Divu | Insn.Divs), _, _)
  | Insn.Alu_mem ((Insn.Divu | Insn.Divs), _, _) ->
    true
  | _ -> false

let reads_flags = function
  | Insn.B (Insn.Always, _) -> false
  | Insn.B _ -> true
  | _ -> false

(* Conservative: any control transfer, join point (label) or fragment
   end makes the flags observable. *)
let escapes = function
  | Insn.B _ | Insn.Dbra _ | Insn.Jmp _ | Insn.Jsr _ | Insn.Rts | Insn.Trap _
  | Insn.Rte | Insn.Label _ | Insn.Stop_wait | Insn.Halt | Insn.Hcall _ ->
    true
  | _ -> false

let rec flags_dead_after = function
  | [] -> false
  | insn :: rest ->
    if reads_flags insn || may_fault insn then false
    else if writes_flags insn then true
    else if escapes insn then false
    else flags_dead_after rest

(* Does evaluating [operand] read register [r]? *)
let operand_reads_reg r = function
  | Insn.Imm _ | Insn.Lbl _ | Insn.Abs _ -> false
  | Insn.Reg r' | Insn.Ind r' | Insn.Idx (r', _) | Insn.Post_inc r' | Insn.Pre_dec r' ->
    r = r'

let is_pure_source = function
  | Insn.Imm _ | Insn.Lbl _ | Insn.Reg _ -> true
  | _ -> false

let log2_exact n =
  if n <= 0 then None
  else
    let rec go k v = if v = n then Some k else if v > n then None else go (k + 1) (v * 2) in
    go 0 1

let eval_alu op a b =
  (* b op a, matching Machine.alu_apply's operand order. *)
  match op with
  | Insn.Add -> Some (Word.add b a)
  | Insn.Sub -> Some (Word.sub b a)
  | Insn.Mul -> Some (Word.mul b a)
  | Insn.Divu -> if a = 0 then None else Some (Word.divu b a)
  | Insn.Divs -> if a = 0 then None else Some (Word.divs b a)
  | Insn.And -> Some (Word.logand b a)
  | Insn.Or -> Some (Word.logor b a)
  | Insn.Xor -> Some (Word.logxor b a)
  | Insn.Lsl -> Some (Word.shift_left b a)
  | Insn.Lsr -> Some (Word.shift_right_logical b a)
  | Insn.Asr -> Some (Word.shift_right_arith b a)

(* Identity operations that leave the destination unchanged. *)
let is_identity op a =
  match (op, a) with
  | (Insn.Add | Insn.Sub | Insn.Or | Insn.Xor | Insn.Lsl | Insn.Lsr | Insn.Asr), 0 -> true
  | Insn.Mul, 1 | (Insn.Divu | Insn.Divs), 1 -> true
  | Insn.And, a when a land Word.mask = Word.mask -> true
  | _ -> false

(* One rewriting pass; returns (changed, insns). *)
let pass insns =
  let changed = ref false in
  let rec go = function
    | [] -> []
    (* self move: move rN, rN *)
    | (Insn.Move (Insn.Reg a, Insn.Reg b) as i) :: rest when a = b ->
      if flags_dead_after rest then begin
        changed := true;
        go rest
      end
      else i :: go rest
    (* identity ALU op *)
    | (Insn.Alu (op, Insn.Imm a, _) as i) :: rest when is_identity op a ->
      if flags_dead_after rest then begin
        changed := true;
        go rest
      end
      else i :: go rest
    (* strength reduction: mul/div by a power of two.  Flag behaviour
       is identical (N/Z set, C/V cleared) so this is always safe. *)
    | Insn.Alu (Insn.Mul, Insn.Imm a, rd) :: rest when log2_exact a <> None ->
      changed := true;
      let k = match log2_exact a with Some k -> k | None -> assert false in
      go (Insn.Alu (Insn.Lsl, Insn.Imm k, rd) :: rest)
    | Insn.Alu (Insn.Divu, Insn.Imm a, rd) :: rest when log2_exact a <> None ->
      changed := true;
      let k = match log2_exact a with Some k -> k | None -> assert false in
      go (Insn.Alu (Insn.Lsr, Insn.Imm k, rd) :: rest)
    (* constant folding: move #a, rN ; alu #b, rN  ->  move #(a op b), rN *)
    | (Insn.Move (Insn.Imm a, Insn.Reg r1) as i1)
      :: (Insn.Alu (op, Insn.Imm b, r2) as i2)
      :: rest
      when r1 = r2 -> (
      match eval_alu op b a with
      | Some v ->
        (* The folded Move sets N/Z and clears C/V — identical to the
           Alu flag rule for logical ops and shifts; Add/Sub may set
           C/V, so those fold only when the flags are dead. *)
        let flags_compatible =
          match op with
          | Insn.Add | Insn.Sub -> flags_dead_after rest
          | _ -> true
        in
        if flags_compatible then begin
          changed := true;
          Insn.Move (Insn.Imm v, Insn.Reg r1) :: go rest
        end
        else i1 :: go (i2 :: rest)
      | _ -> i1 :: go (i2 :: rest))
    (* dead store: two stores to the same register, first unused *)
    | (Insn.Move (src1, Insn.Reg r1) as i1)
      :: (Insn.Move (src2, Insn.Reg r2) as i2)
      :: rest
      when r1 = r2 && is_pure_source src1 && not (operand_reads_reg r1 src2) ->
      if flags_dead_after (i2 :: rest) then begin
        changed := true;
        go (i2 :: rest)
      end
      else i1 :: go (i2 :: rest)
    | i :: rest -> i :: go rest
  in
  let out = go insns in
  (!changed, out)

(* Iterate to a (bounded) fixpoint. *)
let optimize_body insns =
  let rec fix n insns =
    if n = 0 then insns
    else
      let changed, insns' = pass insns in
      if changed then fix (n - 1) insns' else insns'
  in
  fix 8 insns

let is_probe = function Insn.Probe _ -> true | _ -> false

(* Probe points must not change what the rules do: optimize without
   them, then put each back in front of the instruction it preceded
   (found again by physical equality: the rules keep an instruction as
   the very same value and never delete a constant constructor), of
   the next kept one if that was deleted, or of its rewrite. *)
let optimize insns =
  if not (List.exists is_probe insns) then optimize_body insns
  else begin
    let body = Array.of_list (List.filter (fun i -> not (is_probe i)) insns) in
    let n = Array.length body in
    let out = optimize_body (Array.to_list body) in
    (* body index of each kept output instruction, -1 for a rewrite *)
    let cursor = ref 0 in
    let origin =
      List.map
        (fun o ->
          let j = ref !cursor in
          while !j < n && body.(!j) != o do incr j done;
          if !j = n then -1
          else begin
            cursor := !j + 1;
            !j
          end)
        out
    in
    (* the last body index each output instruction answers for: its
       own, or for a rewrite the one before the next kept instruction *)
    let upto, _ =
      List.fold_right
        (fun o (acc, next) -> if o >= 0 then (o :: acc, o) else ((next - 1) :: acc, next))
        origin ([], n)
    in
    (* each probe with the body index of the instruction it precedes *)
    let probes, _ =
      List.fold_left
        (fun (ps, j) i -> if is_probe i then ((j, i) :: ps, j) else (ps, j + 1))
        ([], 0) insns
    in
    let rec emit ps out upto =
      match (out, upto) with
      | o :: out, u :: upto ->
        let now, later = List.partition (fun (j, _) -> j <= u) ps in
        List.map snd now @ (o :: emit later out upto)
      | _ -> List.map snd ps
    in
    emit (List.rev probes) out upto
  end
