(** Synthesized kernel queues (Figures 1 and 2): the optimistic SP-SC
    and MP-SC queue code generated with the descriptor addresses
    folded in.

    Generated routines are kernel subroutines (entered with Jsr):
    item in r1 (or source pointer r2 and count r3 for the multi-item
    insert), status in r0 (1 = done, 0 = would block), item out in r1
    for gets; r4..r7 are clobbered. *)

type kind = Spsc | Mpsc | Spmc | Mpmc

(** Explicit policy for a put on a full queue, fixed at creation:
    {ul
    {- [Drop] — discard the item, count it (see {!dropped}), report
       success: the producer never stalls;}
    {- [Block] — spin in the put wrapper until a consumer frees a
       slot; only meaningful when something can drain the queue out
       from under the spinner;}
    {- [Fail] — the bare generated code: r0 = 0, caller decides
       (the previous, implicit behavior).}}
    Applies to [q_put]; the atomic multi-item insert keeps [Fail]
    semantics (all-or-nothing must be able to report failure). *)
type overflow = Drop | Block | Fail

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
  q_overflow : overflow;
  q_dropped_cell : int; (* drop-count data cell; 0 unless Drop *)
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
    With tracing enabled at creation time, the put/get entries are
    wrapped so every call emits a [Queue_put]/[Queue_get] ktrace
    event. *)
val create :
  ?kind:kind ->
  ?producers:int ->
  ?consumers:int ->
  ?overflow:overflow ->
  Kernel.t ->
  name:string ->
  size:int ->
  t

(** Map a queue connector from {!Quaject.connect} to the queue kind it
    names; [None] for non-queue connectors. *)
val kind_of_connector : Quaject.connector -> kind option

(** Items discarded by a [Drop] queue since creation (uncharged). *)
val dropped : Kernel.t -> t -> int

(** Host-side access for servers and tests (uncharged). *)
val host_length : Kernel.t -> t -> int

val host_put : Kernel.t -> t -> int -> bool
val host_get : Kernel.t -> t -> int option

(** The MP-SC put template (exposed for the ablation bench). *)
val mpsc_put_template : Template.t
