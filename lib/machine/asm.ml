(* Two-pass assembler for instruction fragments.

   Fragments are plain [Insn.insn list]s that may contain [Label]
   pseudo-instructions and [To_label] targets.  [assemble] resolves
   labels against the load address (plus an environment of external
   symbols) and loads the fragment into the machine's code store.
   The returned symbol table lets kernel code patch named instruction
   slots later — this is how executable data structures are edited.
   [Probe] points are zero-width like labels: assembly drops them and
   [probe_points] reports where they fell. *)

type symbols = (string * int) list

exception Undefined_label of string
exception Duplicate_label of string

(* First pass: compute label offsets relative to the fragment start,
   dropping the pseudo-instructions. *)
let layout insns =
  let rec go offset syms acc = function
    | [] -> (List.rev acc, List.rev syms)
    | Insn.Label l :: rest ->
      if List.mem_assoc l syms then raise (Duplicate_label l);
      go offset ((l, offset) :: syms) acc rest
    | Insn.Probe _ :: rest -> go offset syms acc rest
    | insn :: rest -> go (offset + 1) syms (insn :: acc) rest
  in
  go 0 [] [] insns

let resolve_target ~find = function
  | Insn.To_label l -> Insn.To_addr (find l)
  | Insn.To_mem op ->
    Insn.To_mem (match op with Insn.Lbl l -> Insn.Imm (find l) | op -> op)
  | t -> t

let resolve_operand ~find = function
  | Insn.Lbl l -> Insn.Imm (find l)
  | op -> op

let resolve_insn ~find insn =
  let op = resolve_operand ~find in
  match insn with
  | Insn.B (c, t) -> Insn.B (c, resolve_target ~find t)
  | Insn.Dbra (r, t) -> Insn.Dbra (r, resolve_target ~find t)
  | Insn.Jmp t -> Insn.Jmp (resolve_target ~find t)
  | Insn.Jsr t -> Insn.Jsr (resolve_target ~find t)
  | Insn.Move (s, d) -> Insn.Move (op s, op d)
  | Insn.Lea (s, r) -> Insn.Lea (op s, r)
  | Insn.Alu (o, s, r) -> Insn.Alu (o, op s, r)
  | Insn.Alu_mem (o, s, d) -> Insn.Alu_mem (o, op s, op d)
  | Insn.Cmp (s, d) -> Insn.Cmp (op s, op d)
  | Insn.Tst o -> Insn.Tst (op o)
  | Insn.Cas (rc, ru, ea) -> Insn.Cas (rc, ru, op ea)
  | Insn.Push o -> Insn.Push (op o)
  | Insn.Move_vbr o -> Insn.Move_vbr (op o)
  | Insn.Move_mmu o -> Insn.Move_mmu (op o)
  | _ -> insn

(* Resolve all labels in [insns] assuming the fragment will be loaded
   at [at]; [env] supplies external symbols (absolute addresses). *)
let resolve ?(env = []) ~at insns =
  let body, local = layout insns in
  let find l =
    match List.assoc_opt l local with
    | Some off -> at + off
    | None -> (
      match List.assoc_opt l env with
      | Some addr -> addr
      | None -> raise (Undefined_label l))
  in
  let resolved = List.map (resolve_insn ~find) body in
  let syms = List.map (fun (l, off) -> (l, at + off)) local in
  (resolved, syms)

(* Assemble and load a fragment; returns (entry address, symbol table). *)
let assemble ?(env = []) machine insns =
  let at = Machine.code_size machine in
  let resolved, syms = resolve ~env ~at insns in
  let entry = Machine.append_code machine resolved in
  assert (entry = at);
  (entry, syms)

let symbol syms name =
  match List.assoc_opt name syms with
  | Some a -> a
  | None -> raise (Undefined_label name)

(* Static instruction count of a fragment (pseudo-instructions
   excluded). *)
let length insns =
  List.length
    (List.filter (function Insn.Label _ | Insn.Probe _ -> false | _ -> true) insns)

(* Each probe point's name and offset from the fragment start: the
   offset of the instruction it precedes, in fragment order.  A probe
   may not sit directly before a label: it would share the label's
   address and fire on every branch to it. *)
let probe_points insns =
  let rec go offset acc = function
    | [] -> List.rev acc
    | Insn.Probe p :: Insn.Label l :: _ ->
      invalid_arg (Printf.sprintf "Asm.probe_points: probe %s before label %s" p l)
    | Insn.Probe p :: rest -> go offset ((p, offset) :: acc) rest
    | Insn.Label _ :: rest -> go offset acc rest
    | _ :: rest -> go (offset + 1) acc rest
  in
  go 0 [] insns

let pp_listing ppf insns =
  List.iter
    (fun i ->
      match i with
      | Insn.Label _ | Insn.Probe _ -> Fmt.pf ppf "%a@." Insn.pp i
      | _ -> Fmt.pf ppf "    %a@." Insn.pp i)
    insns
