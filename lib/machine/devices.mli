(** Device models (§6.1): real-time clock, interval
    timers, serial TTY, DMA disk with seek latency, the 44.1 kHz A/D
    sampler and the D/A sink.  Each installs MMIO handlers (see
    {!Mmio_map}) and, when it generates events, a machine device whose
    tick fires at its cycle deadline. *)

module Rtc : sig
  val install : Machine.t -> unit
end

module Cpu_control : sig
  (** FP-availability, user-stack-pointer and per-core
      interrupt-acknowledge registers. *)
  val install : Machine.t -> unit
end

module Timer : sig
  type t

  (** One-shot interval timer: write microseconds to [addr] to arm,
      0 to cancel, read for the remainder.  [cpu] routes the alarm
      interrupt to a specific core (per-core quantum timers). *)
  val install :
    ?name:string ->
    ?addr:int -> ?level:int -> ?vector:int -> ?cpu:int -> Machine.t -> t

  (** Host-side arm; only ever shortens the current deadline. *)
  val arm : t -> us:float -> unit
end

module Tty : sig
  type t

  (** Input characters arrive 100 µs apart. *)
  val install : Machine.t -> t

  (** Queue input characters for interrupt-driven delivery. *)
  val feed : t -> string -> unit

  (** Everything written to the output register so far. *)
  val output : t -> string

  val clear_output : t -> unit
end

module Disk : sig
  val block_words : int

  type t

  (** 1,024 blocks; a command completes 2,000 µs of seek plus 1 µs per
      word after it is issued. *)
  val install : Machine.t -> t

  (** Host-side image access (populating disks in tests/examples). *)
  val write_block : t -> int -> int array -> unit

  val read_block : t -> int -> int array
  val blocks : t -> int

  (** {2 Power cuts and persistence (kcrash)} *)

  (** Freeze the platter now: an in-flight read is lost; an in-flight
      write vanishes ([torn_words] absent) or lands exactly its first
      [torn_words] words (prefix-torn).  No completion interrupt fires
      and commands are ignored until {!power_on}. *)
  val power_cut : ?torn_words:int -> t -> unit

  val power_on : t -> unit
  val powered : t -> bool

  (** Record every write that reaches the platter, in commit order,
      as [(block, post-write image)] — the crash-point explorer's
      ground truth for legal completion prefixes. *)
  val set_journaling : t -> bool -> unit

  val journal : t -> (int * int array) list

  (** Whole-platter snapshot / restore (reboot-and-recover runs). *)
  val image : t -> int array array

  val load_image : t -> int array array -> unit
end

module Ad : sig
  type t

  val install : Machine.t -> t

  (** Samples produced so far. *)
  val delivered : t -> int

  (** Sampling rate in Hz; 0 switches the source off. *)
  val set_rate : t -> int -> unit
end

module Da : sig
  type t

  val install : Machine.t -> t

  (** Remove and return all samples written so far. *)
  val drain : t -> int list

end

(** Network card (kserve): N queues, each an rx/tx pair of descriptor
    rings in guest memory (4-word descriptors [buf; len; status; tag],
    free-running head/tail indices) with its own mailbox cells, wire
    backlog, interrupt coalescing counter and interrupt, posted to the
    queue's core (queue [i] -> core [i mod cores]).  A queue
    interrupts per [coalesce] rx deliveries, flushing a partial batch
    once its backlog is empty; tx completions show only in the tail
    writeback.  A wire frame is
    steered to queue [steer frame mod N] (receive-side scaling on a
    host-chosen flow key); one queue is just N = 1.  Admission control
    caps every rx ring's occupancy; one-shot drops, duplicates and
    reorders queued through {!Machine.frame_fault} act on the wire.
    The card has no register window: kernel-build code configures it
    with the [host_*] functions below, and at run time it writes each
    queue's rx head back to a data cell after every delivery and polls
    the consumer/doorbell indices from data cells, so user-mode pumps
    drive it with plain loads and stores.

    A queue may also have an arm cell, polled the same way: while it
    is set, the queue interrupts as above and clears the cell when it
    posts (NAPI-style); while it is clear, rx completions are dropped
    rather than saved for the next arm, so arming never fires a late
    interrupt for frames that landed while the consumer was awake.  A
    consumer that polls while it has work and arms only on its way to
    sleep takes no interrupt while busy.  A queue with no arm cell
    (0) is always armed.

    The card polls its cells every [poll_us] while enabled, except
    that while every core sleeps it naps: an idle tick schedules the
    next one at the first point of its poll grid at or after the
    machine's next event ({!Machine.next_event}), and a kick or a core
    waking ({!Machine.on_wake}) puts it back on the grid.  The skipped
    ticks would all have been no-ops, so every delivery, drain and
    interrupt lands on the same cycle.  Host code that pokes a
    doorbell cell between bare {!Machine.step}s while every core
    sleeps must kick the card ([host_tx_head], [host_rx_tail]). *)
module Nic : sig
  val desc_words : int

  type frame = int array
  type t

  (** [poll_us] is the service-tick period while enabled (and some
      core is awake); [queues]
      (default 1) the number of ring pairs; [steer] (default
      [fun _ -> 0]) the flow key rx frames are steered by. *)
  val install :
    ?poll_us:float -> ?queues:int -> ?steer:(frame -> int) -> Machine.t -> t

  (** The core queue [q]'s interrupt is posted to. *)
  val queue_cpu : t -> int -> int

  (** {2 The wire (host side)} *)

  (** Offer a frame for delivery; re-kicks the service tick (ending a
      nap), so a dropped completion only delays until the next
      injection. *)
  val inject : t -> frame -> unit

  (** Divert sent frames to a callback (the load generator). *)
  val set_tx_sink : t -> (frame -> unit) option -> unit

  (** Injected frames not yet DMA'd into an rx ring, over all queues. *)
  val wire_backlog : t -> int

  (** {2 Control plane} (tests and kernel-build code; same precedent
      as [Disk.write_block]).  [?q] names the queue, default 0. *)

  (** [arm] is the queue's arm cell (default 0 = none: always armed). *)
  val host_config_rx :
    ?q:int -> ?arm:int -> t -> ring:int -> len:int -> mail:int -> tail_cell:int ->
    unit

  val host_config_tx :
    ?q:int -> t -> ring:int -> len:int -> mail:int -> head_cell:int -> unit

  val host_enable : t -> bool -> unit
  val host_set_coalesce : t -> int -> unit

  (** Max admitted occupancy of each rx ring; 0 = unlimited.  Frames
      arriving beyond it are shed and counted — admission control. *)
  val host_set_admit : t -> int -> unit

  val host_rx_tail : ?q:int -> t -> int -> unit
  val host_tx_head : ?q:int -> t -> int -> unit
  val rx_head : ?q:int -> t -> int
  val tx_tail : ?q:int -> t -> int

  type stats = {
    s_rx_injected : int;
    s_rx_delivered : int;
    s_rx_shed : int;
    s_rx_overruns : int;
    s_tx_sent : int;  (** tx descriptors the card drained *)
    s_irqs : int;
    s_rx_dropped : int;
    s_rx_dupped : int;
    s_rx_reordered : int;
    s_tx_dropped : int;
    s_tx_dupped : int;
    s_tx_reordered : int;
  }

  (** Summed over the queues, plus the wire's fault counters (the
      [s_rx_*]/[s_tx_*] drops, duplicates and reorders applied). *)
  val stats : t -> stats

  (** Queue [q]'s ring-level counters (rx frames steered to it, its
      deliveries, sheds, overruns, drained tx descriptors and
      interrupts); the fault counters belong to the wire and read 0. *)
  val queue_stats : t -> int -> stats
end
