(** The file system server pipeline (§5.1): raw interrupt-driven disk
    server → elevator (SCAN) request scheduler → LRU buffer cache with
    dirty write-back. *)

type request = {
  r_desc : int;
  r_block : int;
  r_waitq : Kernel.waitq;
  r_epoch : int;
  r_write : bool;
}
(** Request descriptors live in kernel memory:
    [0]=block [1]=buffer [2]=direction
    [3]=status (0 pending, 1 done, 2 failed after bounded retries).
    [r_epoch] is the barrier epoch the request was submitted in; the
    elevator never reorders requests across epochs. *)

type t

val block_words : int

(** [timeout_us]/[max_tries] bound the completion watchdog: a transfer
    whose completion interrupt is lost or stalled is re-issued with a
    doubling allowance, then failed (status 2, waiters woken,
    "disk_failed" logged) after [max_tries] issues.  The watchdog is a
    host-side device armed only while a transfer is in flight — in
    fault-free runs it never fires and costs nothing. *)
val install :
  Kernel.t -> ?cache_capacity:int -> ?timeout_us:float -> ?max_tries:int ->
  unit -> t

(** Queue a transfer in elevator order; completion sets the status
    word and wakes everyone on [r_waitq] (pass [waitq] to share one,
    e.g. per file-system mount).  [~barrier:true] gives the request a
    private epoch: serviced strictly after everything already queued,
    strictly before anything submitted later. *)
val submit :
  t -> ?barrier:bool -> ?waitq:Kernel.waitq -> block:int -> buffer:int ->
  write:bool -> unit -> request

(** A write barrier with no transfer attached: requests submitted
    before the fence are serviced before any submitted after it. *)
val barrier : t -> unit

(** Cache lookup: [None] as second component means a hit; on a miss
    the returned request completes asynchronously. *)
val get_block : t -> ?waitq:Kernel.waitq -> int -> int * request option

val mark_dirty : t -> int -> unit

(** Submit write-backs for every dirty resident block; returns how
    many were submitted.  The dirty bit of each block clears only
    when its completion reports success.  [~barrier:true] fences the
    flushed group off from later submissions. *)
val flush : t -> ?barrier:bool -> unit -> int

(** Host-side: step the machine until nothing is queued, nothing is
    active and no write-back is in flight (or give up). *)
val drain : t -> max_insns:int -> bool

(** Host-side synchronous read: steps the machine until the block is
    resident (tests and host-driven servers).  On [max_insns]
    exhaustion a "disk.sync_timeouts" metric is recorded and the
    request stays re-awaitable: a later call for the same block joins
    the same transfer instead of double-issuing. *)
val read_block_sync : t -> int -> max_insns:int -> int option

(** (hits, misses) *)
val stats : t -> int * int

(** Block numbers in the order the device serviced them. *)
val service_order : t -> int list

(** {1 Recovery}

    The server counts into the kernel's metrics: "disk.barriers"
    (standalone fences and barrier requests), "disk.sync_timeouts"
    (synchronous reads that exhausted their budget), "disk.timeouts"
    (watchdog expiries, each a retry or a permanent failure),
    "disk.retries", "disk.failed" (requests failed after the retry
    budget), "disk.spurious_irqs" (interrupts dismissed because the
    device did not report the transfer done) and
    "disk.writeback_failed". *)

(** Cycles from first issue to completion of the most recent request
    that needed at least one retry; 0 if none has recovered yet. *)
val last_recovery_cycles : t -> int

(** Issues of the active request so far (1 = no retry yet). *)
val active_tries : t -> int
