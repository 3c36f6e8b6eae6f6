(** The quaject creator and interfacer (§2.3).

    The creator builds a quaject in three stages: allocation,
    factorization (fold the quaject's run-time constants into its
    templates) and optimization.  The interfacer connects existing
    quajects in four: combination (pick the mechanism per §5.2),
    factorization, optimization, and dynamic link. *)

type quaject = {
  qj_name : string;
  qj_data : int;  (** the data block *)
  qj_data_words : int;
  mutable qj_ops : (string * int) list;  (** operation entry points *)
}

(** Address of operation slot [i] in the quaject's in-memory table. *)
val op_slot : quaject -> int -> int

val op_entry : quaject -> string -> int

(** [create k ~name ~data_words ops]: allocation, then one
    factorize+optimize per (op name, template builder).  Each builder
    receives [~self] — the data block address. *)
val create :
  Kernel.t ->
  name:string ->
  data_words:int ->
  (string * (self:int -> Template.t)) list ->
  quaject

type connection = {
  cn_connector : Quaject.connector;
  cn_call : int;  (** code the producer side invokes *)
  cn_queue : Kqueue.t option;
}

(** Combination + factorization + optimization for one arc: a direct
    (possibly monitored) call when one side is passive, an optimistic
    queue of the right flavour when both are active.  Passive-passive
    pairs need a pump thread and are rejected here. *)
val interface :
  Kernel.t ->
  name:string ->
  producer:Quaject.port ->
  consumer:Quaject.port ->
  consumer_entry:int ->
  unit ->
  connection

(** Passive-passive connection (§5.2's xclock): a kernel service
    thread that repeatedly calls the producer operation (value in r0),
    feeds it to the consumer operation (argument in r1), and yields
    between transfers.  Returns the pump thread. *)
val pump : Kernel.t -> name:string -> source_entry:int -> sink_entry:int -> Kernel.tte
