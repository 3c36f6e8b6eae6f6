(** Peephole optimizer for synthesized code (§2.2's optimization
    stage).

    Sound rewrites only: rules that change condition-code behaviour
    fire only when a forward scan proves the flags dead — redefined by
    a later instruction before any possible reader, where conditional
    branches, labels (join points), control transfers and
    possibly-faulting instructions (division; see the comment in the
    implementation about memory operands) all count as readers.

    The test suite checks semantic equivalence of optimized against
    original code on randomized programs, including final condition
    codes and cycle counts. *)

(** Rewrite to a (bounded) fixpoint. *)
val optimize : Quamachine.Insn.insn list -> Quamachine.Insn.insn list
