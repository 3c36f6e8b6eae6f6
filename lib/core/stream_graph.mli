(** The Synthesis model of computation (§2.1): threads as nodes of a
    directed graph, data-flow channels as arcs.  Linear pipelines are
    composed declaratively; the quaject interfacer's case analysis
    picks the connector for each arc (SP-SC pipes between
    single active stages). *)

type role =
  | Head of (wfd:int -> Quamachine.Insn.insn list)  (** pure producer *)
  | Middle of (rfd:int -> wfd:int -> Quamachine.Insn.insn list)  (** filter *)
  | Tail of (rfd:int -> Quamachine.Insn.insn list)  (** pure consumer *)

type stage

(** A stage's thread runs with a 150 µs quantum. *)
val stage : ?segments:(int * int) list -> role -> stage

type built = {
  sg_threads : Kernel.tte list;  (** in pipeline order *)
  sg_pipes : Kpipe.t list;  (** the arcs, in order *)
  sg_connectors : Quaject.connector list;  (** the interfacer's choices *)
}

(** Build Head → Middle* → Tail: creates the threads (runnable) and
    the connecting 256-word pipes, with each pipe end synthesized for
    its owning thread.  Raises [Invalid_argument] on malformed shapes. *)
val pipeline : Vfs.t -> stage list -> built
