(** The executable ready queue (§4.2, Figure 3).

    Ready threads are chained in a circular queue of code: the
    patchable [jmp] ending each thread's switch-out points at the next
    thread's switch-in.  There is no dispatcher procedure.  Insertion
    and removal are O(1) code patches; the host keeps a doubly-linked
    mirror for bookkeeping and assertions.

    SMP: each core owns one ring ([Kernel.anchor]); a thread lives on
    its home core's ring ([Kernel.tte.cpu]) and every mutator keys off
    that field.  A core's idle thread occupies its ring only when
    nothing else is ready there; the public mutators maintain that
    invariant and, when they evict an idle thread holding its CPU,
    preempt it immediately via that core's quantum timer. *)

(** Point [a]'s switch-out jump at [b] (patches code, fixes the
    mirror). *)
val relink : Kernel.t -> Kernel.tte -> Kernel.tte -> unit

val in_queue : Kernel.tte -> bool
val next_exn : Kernel.tte -> Kernel.tte
val prev_exn : Kernel.tte -> Kernel.tte

(** Insert right after the thread running on the new thread's home
    core: next access to that CPU (§4.4). *)
val insert_front : Kernel.t -> Kernel.tte -> unit

val remove : Kernel.t -> Kernel.tte -> unit

(** Core [cpu]'s ring (default 0), anchor first. *)
val to_list : ?cpu:int -> Kernel.t -> Kernel.tte list

(** Ready threads summed over every core's ring. *)
val length : Kernel.t -> int

(** Re-establish the idle-thread invariant on every core after
    external changes. *)
val balance_idle : Kernel.t -> unit

(** Structural check: the mirror is a consistent cycle and every
    patched jmp targets the right successor entry. *)
val verify : Kernel.t -> bool
