(** Pipes (§6.2): a power-of-two word ring with synthesized read/write
    ends per attached thread.  The producer publishes [head] only
    after copying, the consumer publishes [tail] only after copying
    (the SP-SC optimistic discipline); data moves in unrolled 8-word
    bursts; full/empty block through the standard protocol with a
    lost-wakeup guard. *)

type t = {
  p_name : string;
  p_desc : int; (** [0]=head [1]=tail [2]=rwait [3]=wwait [4]=weof *)
  p_buf : int;
  p_cap : int;
  p_readers : Kernel.waitq;
  p_writers : Kernel.waitq;
  mutable p_ends : int;  (** open descriptors; 0 after the last close *)
}

val create : Kernel.t -> ?cap:int -> unit -> t

(** Synthesize pipe ends for a thread and install them as
    descriptors; returns (read_fd, write_fd).  Closing the write fd
    marks EOF and wakes readers. *)
val attach : Vfs.t -> t -> Kernel.tte -> int * int

(** Install pipe(2) as trap 11: returns read fd in r0, write fd in
    r1. *)
val install_syscall : Vfs.t -> unit
