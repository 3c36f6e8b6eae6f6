(** kserve: a synthesized network serving stack over the NIC model.

    The server is one synthesized serve pump per core (["serve/pump"],
    registered code regions instantiated from one template), each
    pinned to its core and owning one queue of an N-queue NIC
    (N = [Machine.num_cores]).  A pump drains its queue's rx ring in
    batches — the stop cell and a mailbox snapshot read once, then
    frames up to the snapshot — and for each frame takes one jump
    through a (slot, op) table, indexed by the request word shifted
    right past its arg (slot * 8 + op), and lays the response on its
    queue's tx ring before it reads the next frame.  A live slot's
    read, write and close entries are the per-connection service
    routine the accept path {!Ksynth.instantiate}s at open time — the
    file's buffer base, capacity and size cell, the connection's
    position cell and its pump's return address folded in as
    constants — so a warm accept (same slot, same file) is a
    synthesis-cache hit.  Every slot's open entry is its pump's accept
    path, every other entry the pump's op_err answer; each entry jumps
    straight back to the pump.  The pump keeps its tx head and the
    count of free tx descriptors in registers, rereading the card's
    tail writeback only when that count runs out.

    {2 Steering}

    The card steers every rx frame by its id field: queue =
    [msg_id mod N].  The id is the conn for an open and the slot for
    everything else, and accept hands a connection a slot congruent
    to its conn modulo N, from that queue's own free and file-affine
    retired lists — so a slot's open, data, close and recycling all
    pass through one pump, and a close ack is on the wire before the
    recycled slot's next open response.

    {2 Sleeping}

    The card interrupts a queue only while its pump sleeps.  A pump
    whose rx ring is empty traps into its own synthesized wait
    handler, which masks interrupts, arms its queue's interrupt (the
    NIC's arm cell), re-reads its stop cell and its mailbox against
    its tail, and only then stops the core (its quantum timer paused)
    — or yields, still armed, when another thread is ready on the same
    core.  [Stop_wait] falls through while an interrupt is pending,
    so a frame or a {!shutdown} that lands after the pump's empty
    check is never slept through.  Every return disarms the queue and
    acknowledges the card's level on the core
    ({!Quamachine.Mmio_map.irq_ack}) before its [Rte], so the wake
    takes no interrupt entry and no context switch, and a busy pump
    is never interrupted.

    {2 Quantum}

    A pump's quantum timer lands in a stub in its own page, not in its
    switch-out.  Alone on its core's ring, the pump re-arms the timer
    with [cfg_worker_quantum_max_us] and returns, so it never switches
    to itself and ktrace shows no switch events for it; the stub's
    cycles go to the ["serve/pump"] owner.  Next to another ready
    thread it takes the normal switch, so a thread made ready beside
    it with no timer arm waits at most [cfg_worker_quantum_max_us].

    {2 Shared state}

    The only state two pumps can both write is a file's size cell and
    body: with N > 1 the service routine's write path holds a per-file
    [Cas] lock.  With one pump the lock is folded away at
    instantiation and the routine contains no [Cas].

    Spans are minted when a pump reads a request and closed when it
    stores the response; with a span layer
    attached ({!Kernel.attach_spans}, before or after [create]) every
    request's latency lands in the "kspan.serve.total_cycles"
    histogram.

    Overload handling is a scheduling policy (§3): a controller
    samples the card's rx deliveries and the responses the pumps laid
    (the sum of their tx doorbell cells, which is also [n_responses])
    each epoch through {!Metrics.rate} (the ["serve.arrival_rate"] and
    ["serve.service_rate"] metrics gauges), retunes the quantum of each pump that shares its
    core against its rx-ring occupancy ({!Ctx.set_quantum}), and past
    a high watermark on any ring arms
    the NIC's admission limit so excess offered load is shed at the rx
    rings rather than queueing without bound.

    {2 Protocol}

    One word per frame: [id:14 | op:3 | arg:15].  A request's [id] is
    the client's connection id for [op_open] (with [arg] = file
    index), the assigned slot otherwise.  Responses echo the slot in
    [id]; an open response carries the connection id (mod 2^15) in
    [arg] so the client can match it.  Reads return the next word of
    the file as a circular stream; writes append and wrap. *)

open Quamachine

val op_open : int
val op_read : int
val op_write : int
val op_close : int
val op_err : int

(** Ids above this are reserved (16383 would make the all-ones word,
    which the wire format keeps out of use). *)
val max_conn_id : int

val pack : id:int -> op:int -> arg:int -> int
val msg_id : int -> int
val msg_op : int -> int
val msg_arg : int -> int

(** {2 Configuration} *)

type config = {
  cfg_slots : int;  (** power of two; connection table size *)
  cfg_files : int;  (** power of two; files served (64 words each) *)
  cfg_ring_len : int;  (** power of two; rx/tx ring entries per NIC queue *)
  cfg_poll_us : float;  (** NIC service-tick period *)
  cfg_worker_quantum_max_us : int;
      (** the longest quantum the controller retunes a pump to while
          it shares its core (from a fixed 100 µs base, the pump's
          first quantum), and the quantum a pump alone on
          its core re-arms at every tick.  It must outlast what the
          tick stub runs after its timer store (its [Rte], 22 cycles on
          the SUN-3 model, so at least 2 µs): a shorter one is due
          again before the stub returns, and [create] refuses it *)
  cfg_admit_hi : int;  (** occupancy of any rx ring that arms shedding *)
  cfg_admit_lo : int;  (** occupancy of every rx ring that disarms it *)
  cfg_admit_limit : int;  (** rx occupancy per ring admitted while shedding *)
}

val default_config : config

type t

(** Install the N-queue NIC (one interrupt per 4 rx completions a
    queue), create the served files (["/srv/<i>"] in
    the vfs name space), register the accept/close host routines,
    synthesize one serve pump per core, install the overload
    controller, and start the pump threads, each pinned to its core.
    Attach spans to the kernel (before or after [create]) if request
    latencies are wanted.  Raises [Invalid_argument] on a malformed
    config, including a [cfg_worker_quantum_max_us] the tick stub
    cannot return inside (read off the pump page through {!Cost}). *)
val create : ?config:config -> Boot.t -> t

(** {2 Lifecycle} *)

(** Ask the pumps to stop, and wake every sleeping one: each finishes
    the request in hand, raises its done flag and exits. *)
val shutdown : t -> unit

(** Have all the pumps stopped? *)
val drained : t -> bool

(** Rearm after a drained run: clear the flags and respawn the pump
    threads on their entry points.  Rings, the dispatch table and the synthesis cache all carry over, so a warm
    restart's accepts are cache hits and the code footprint stays
    flat. *)
val restart : t -> unit

(** {2 Host-side accept/close} (tests; the exact logic the pumps'
    hcalls run, minus the machine). *)

(** Returns the open response word ([msg_op] = [op_err] when
    refused). *)
val host_accept : t -> conn:int -> file:int -> int

val host_close : t -> slot:int -> unit

(** {2 Introspection} *)

(** [n_accepts] through [n_retunes] read the server's [serve.*]
    counters in the kernel's registry. *)
type stats = {
  n_accepts : int;
  n_closes : int;
  n_refused : int;  (** opens refused for want of a slot *)
  n_dup_opens : int;
  n_hits : int;  (** accepts served from the synthesis cache *)
  n_misses : int;
  n_retunes : int;  (** controller quantum adjustments *)
  n_responses : int;
      (** responses laid on the tx rings: the sum of the pumps' tx
          doorbell cells *)
  n_shed : int;  (** frames shed at the rx rings while overloaded *)
}

val stats : t -> stats
val nic : t -> Devices.Nic.t
val kernel : t -> Kernel.t
val config : t -> config

(** Served file [i] (["/srv/<i>"]). *)
val file : t -> int -> Fs.file

val open_slots : t -> int
