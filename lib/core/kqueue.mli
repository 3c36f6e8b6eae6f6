(** Synthesized kernel queues (Figures 1 and 2): the optimistic SP-SC
    and MP-SC queue code generated with the descriptor addresses
    folded in.

    Generated routines are kernel subroutines (entered with Jsr):
    item in r1 (or source pointer r2 and count r3 for the multi-item
    insert), status in r0 (1 = done, 0 = would block), item out in r1
    for gets; r4..r7 are clobbered. *)

type kind = Spsc | Mpsc | Spmc | Mpmc

type t = {
  q_kind : kind;
  q_name : string;
  q_desc : int; (* [desc] = head, [desc+1] = tail *)
  q_buf : int;
  q_flag : int; (* valid-flag array base; 0 for SP-SC *)
  q_size : int;
  q_put : int; (* code entry points *)
  q_get : int;
  q_put_many : int; (* 0 when absent *)
}

val head_cell : t -> int
val tail_cell : t -> int

(** The unified constructor.  [kind] picks the synchronization
    discipline explicitly:
    {ul
    {- [Spsc] — Figure 1: no CAS anywhere on the path;}
    {- [Mpsc] — Figure 2: CAS slot claim plus valid flags, including
       the atomic multi-item insert;}
    {- [Spmc] — mirror of MP-SC: consumers claim slots by CAS on
       Q_tail and clear the valid flag after reading;}
    {- [Mpmc] — flag-guarded CAS claims at both ends (§3.2's fourth
       kind).}}
    When [kind] is omitted it is derived from [producers]/[consumers]
    (default 1/1) through the quaject interfacer's case table (§5.2).
    A put on a full queue returns r0 = 0 and the caller decides.  The
    put/get entries carry probe points, so with ktrace attached (now
    or later) every call emits a [Queue_put]/[Queue_get] event with
    its status. *)
val create :
  ?kind:kind ->
  ?producers:int ->
  ?consumers:int ->
  Kernel.t ->
  name:string ->
  size:int ->
  t

(** Map a queue connector from {!Quaject.connect} to the queue kind it
    names; [None] for non-queue connectors. *)
val kind_of_connector : Quaject.connector -> kind option

(** Host-side access for servers and tests (uncharged). *)
val host_length : Kernel.t -> t -> int

val host_put : Kernel.t -> t -> int -> bool
val host_get : Kernel.t -> t -> int option

(** The MP-SC put template over one queue's cells (exposed for the
    ablation bench). *)
val mpsc_put_template :
  head:int -> tail:int -> buf:int -> flag:int -> size:int -> Template.t
