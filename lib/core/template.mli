(** Code templates and Factoring Invariants (§2.2).

    A template is a named generator.  Its invariants are the OCaml
    arguments of the function that builds it; instantiation folds them
    into the emitted instructions as immediates and absolute
    addresses. *)

type t

(** [make ~name gen]: [gen] emits the code with the invariants it
    closed over already folded in. *)
val make : name:string -> (unit -> Quamachine.Insn.insn list) -> t

(** The factorization stage: emit the code. *)
val instantiate : t -> Quamachine.Insn.insn list

(** Stable identity used in synthesis-cache keys (the name: one
    generator per name). *)
val id : t -> string
