(* Code templates and Factoring Invariants (§2.2).

   A template is a named code generator.  Its *invariants* — run-time
   constants such as a queue's buffer address, a file's size, a
   thread's TTE address — are the OCaml arguments of the function
   that builds it, so the type checker, not a run-time lookup, sees
   that every one is bound.  Instantiation ("factorization") runs the
   generator, which folds those constants into the emitted
   instructions as immediates and absolute addresses; the peephole
   stage then cleans up whatever the folding made redundant. *)

open Quamachine

type t = { name : string; gen : unit -> Insn.insn list }

let make ~name gen = { name; gen }

(* Factorization stage: emit code with the invariants folded in. *)
let instantiate t = t.gen ()

(* The template's identity for synthesis-cache keys: one generator per
   name, so the name doubles as a stable id. *)
let id t = t.name
