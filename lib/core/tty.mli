(** The TTY pipeline (§5.1, §5.4):

    raw interrupt handler → dedicated queue → cooked filter thread
    (erase/kill/echo) → cooked queue → /dev/tty readers; echo and user
    writes meet in an optimistic MP-SC screen queue drained by a pump
    thread. *)

type server = {
  srv_raw : Kqueue.t; (** dedicated SP-SC: irq → filter *)
  srv_cooked : Kqueue.t; (** SP-SC: filter → readers *)
  srv_screen : Kqueue.t; (** optimistic MP-SC: echo + writes → pump *)
  srv_lbuf : int;
  srv_lbuf_cap : int;
  srv_len_cell : int;
  srv_fwait : int;
  srv_rwait : int;
  srv_swait : int;
  srv_filter_wq : Kernel.waitq;
  srv_reader_wq : Kernel.waitq;
  srv_pump_wq : Kernel.waitq;
  mutable srv_filter : Kernel.tte option;
  mutable srv_pump : Kernel.tte option;
}

(** Create the queues, the filter and pump service threads, the raw
    interrupt handler (installed in every vector table), and register
    /dev/tty in the name space. *)
val install : Vfs.t -> server

(** Fragment: set the waiting flag under raised IPL, re-check the
    queue, and block — the lost-wakeup-safe sleep. *)
val guarded_block :
  Kernel.t ->
  Kqueue.t ->
  flag:int ->
  wq:Kernel.waitq ->
  retry:string ->
  prefix:string ->
  Quamachine.Insn.insn list
