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

val stage : ?segments:(int * int) list -> ?quantum_us:int -> role -> stage

type built = {
  sg_threads : Kernel.tte list;  (** in pipeline order *)
  sg_pipes : Kpipe.t list;  (** the arcs, in order *)
  sg_connectors : Quaject.connector list;  (** the interfacer's choices *)
}

(** The connector for an arc with the given endpoint multiplicities. *)
val connect_many : producers:int -> consumers:int -> Quaject.connector

(** Build Head → Middle* → Tail: creates the threads (runnable) and
    the connecting pipes, with each pipe end synthesized for its
    owning thread.  Raises [Invalid_argument] on malformed shapes. *)
val pipeline : Vfs.t -> ?pipe_cap:int -> stage list -> built

(** {1 Flow-rate gauges}

    A one-instruction counter tick a stage splices into its loop;
    kserve's overload controller reads its windowed rate (§3). *)

type gauge = {
  g_cell : int;  (** machine-word event counter, ticked by stage code *)
  g_name : string;
  mutable g_last_count : int;
  mutable g_last_cycles : int;
  mutable g_rate : float;  (** events per kilocycle, last window *)
}

val gauge : Kernel.t -> name:string -> gauge

(** The one-instruction counter tick stages splice into their loops. *)
val gauge_tick : gauge -> Quamachine.Insn.insn list

val gauge_count : Kernel.t -> gauge -> int

(** Windowed rate in events per kilocycle since the last sample.  The
    counter delta is taken modulo 2^32 (wrap-correct); a zero-width
    window returns the previous rate instead of dividing by zero. *)
val gauge_sample : Kernel.t -> gauge -> float

(** Last sampled rate, without advancing the window. *)
val gauge_rate : gauge -> float
