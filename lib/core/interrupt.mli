(** Interrupt machinery (§5.3–5.4, Table 5): Procedure Chaining and
    the A/D buffered queue. *)

(** {1 Procedure Chaining}

    Chain a procedure to run when the current interrupt handler
    finishes by rewriting the handler's return address; pending
    procedures sit in an optimistic MP-SC queue, so chaining from any
    interrupt level needs no locking. *)

type chain = {
  ch_queue : Kqueue.t;
  ch_saved : int; (** original return address during a chained run *)
  ch_chain : int; (** Jsr entry, procedure address in r1 *)
  ch_runner : int;
}

val install_chain : Kernel.t -> chain

(** {1 The A/D buffered queue}

    Eight synthesized stage handlers, each storing the sample to its
    own slot of the current queue element with the address folded in;
    the vector rotates through them and only the eighth does the
    element bookkeeping (re-specializing the stores for the next
    element).  Table 5's 3 µs per interrupt. *)

type adq = {
  adq_factor : int;  (** samples per element (the blocking factor) *)
  adq_elems : int;
  adq_flags : int;
  adq_n : int;
  adq_desc : int; (** [0]=head element [1]=tail element [2]=cwait *)
  adq_stage_cell : int;
  adq_stages : int array;
  adq_store_slots : int array;
  adq_get : int; (** consumer subroutine: r0 = status, r1 = element *)
  adq_consumer_wq : Kernel.waitq;
  mutable adq_overruns : int;
}

val blocking_factor : int

(** [factor] defaults to {!blocking_factor} (8); factor 1 degenerates
    to a plain per-interrupt queue insert — the ablation baseline. *)
val install_adq : Kernel.t -> ?factor:int -> n_elems:int -> unit -> adq

(** Consumer-side guarded-block fragment; resumes at [retry]. *)
val consumer_block_code :
  Kernel.t -> adq -> retry:string -> Quamachine.Insn.insn list
