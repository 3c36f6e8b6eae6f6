(** kserve: a synthesized network serving stack over the NIC model.

    The server is one thread running one synthesized serve pump
    (["serve/pump"], a registered code region): it lifts a request
    frame off the card's rx ring, dispatches it through a per-slot
    table of service routines, and lays the response on the tx ring
    before it reads the next frame.  The accept path
    {!Ksynth.instantiate}s the per-connection service routine at open
    time — the file's buffer base, capacity and size cell plus the
    connection's position cell folded in as constants — so a warm
    accept (same slot, same file) is a synthesis-cache hit.

    Spans are minted when the pump reads a request and closed when it
    stores the response; with a span layer
    attached ({!Kernel.attach_spans}, before or after [create]) every
    request's latency lands in the "kspan.serve.total_cycles"
    histogram.

    Overload handling is a scheduling policy (§3): a controller
    samples the rx/tx gauges each epoch, retunes the pump's quantum
    against the rx-ring occupancy ({!Ctx.set_quantum}), and past a
    high watermark arms
    the NIC's admission limit so excess offered load is shed at the rx
    ring rather than queueing without bound.

    {2 Protocol}

    One word per frame: [id:14 | op:3 | arg:15].  A request's [id] is
    the client's connection id for [op_open] (with [arg] = file
    index), the assigned slot otherwise.  Responses echo the slot in
    [id]; an open response carries the connection id (mod 2^15) in
    [arg] so the client can match it.  Reads return the next word of
    the file as a circular stream; writes append and wrap. *)

open Quamachine

val id_shift : int
val op_shift : int
val arg_mask : int
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
  cfg_files : int;  (** power of two; files served *)
  cfg_file_words : int;
  cfg_ring_len : int;  (** power of two; NIC rx/tx ring entries *)
  cfg_coalesce : int;  (** NIC completions per interrupt *)
  cfg_poll_us : float;  (** NIC service-tick period *)
  cfg_worker_quantum_us : int;  (** the pump's base; the controller retunes *)
  cfg_worker_quantum_max_us : int;
  cfg_ctl_epoch_us : float;  (** overload-controller sampling period *)
  cfg_admit_hi : int;  (** rx-ring occupancy that arms shedding *)
  cfg_admit_lo : int;  (** rx-ring occupancy that disarms it *)
  cfg_admit_limit : int;  (** rx occupancy admitted while shedding *)
}

val default_config : config

(** The accept-time code template (exposed for inspection). *)
val service_template : Template.t

type t

(** Install the NIC, create the served files (["/srv/<i>"] in the vfs
    name space), register the accept/close host routines, synthesize
    the serve pump, install the overload controller, and start the
    pump thread (on cpu 0).  Attach spans to the kernel (before or after
    [create]) if request latencies are wanted. *)
val create : ?config:config -> Boot.t -> t

(** {2 Lifecycle} *)

(** Ask the pump to stop: it finishes the request in hand, raises the
    done flag and exits. *)
val shutdown : t -> unit

(** Has the pump stopped? *)
val drained : t -> bool

(** Rearm after a drained run: clear the flags and respawn the pump
    thread on its entry point.  Rings, the dispatch table and the synthesis cache all carry over, so a warm
    restart's accepts are cache hits and the code footprint stays
    flat. *)
val restart : t -> unit

(** {2 Host-side accept/close} (tests; the exact logic the pump's
    hcalls run, minus the machine). *)

(** Returns the open response word ([msg_op] = [op_err] when
    refused). *)
val host_accept : t -> conn:int -> file:int -> int

val host_close : t -> slot:int -> unit

(** {2 Introspection} *)

type stats = {
  n_accepts : int;
  n_closes : int;
  n_refused : int;  (** opens refused for want of a slot *)
  n_dup_opens : int;
  n_hits : int;  (** accepts served from the synthesis cache *)
  n_misses : int;
  n_retunes : int;  (** controller quantum adjustments *)
  n_responses : int;  (** responses laid on the tx ring *)
  n_shed : int;  (** frames shed at the rx ring while overloaded *)
}

val stats : t -> stats
val nic : t -> Devices.Nic.t
val kernel : t -> Kernel.t
val config : t -> config

(** Is the admission limit currently armed? *)
val shedding : t -> bool

val open_slots : t -> int
