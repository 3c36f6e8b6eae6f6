(** kspan: request-scoped causal tracing.

    A span is one request's journey through a synthesized pipeline — a
    kpipe write burst, a disk transfer, a tty character, a kqueue
    item.  Spans are minted when the request enters the pipeline,
    carried across queue boundaries by a host-side side-table keyed by
    (queue descriptor, arrival index), and closed at completion.  Each
    hop attributes the cycles since the previous hop to a (stage,
    phase) pair and records them in per-stage histograms in the
    metrics registry ("kspan.<pipeline>.<stage>.<phase>_cycles",
    plus "kspan.<pipeline>.total_cycles" at close), so p50/p99/p999
    tail latency per pipeline stage falls out of any run.

    Overhead discipline matches ktrace: span probes on synthesized
    code are host closures the machine runs just before the probed
    instruction ([Kernel.Span] bindings), and all span bookkeeping is
    host-side, so a kernel with spans attached runs the instruction
    stream of one without, in the same cycles ([bench overhead]
    proves it).

    Sits below {!Kernel} (like {!Ktrace}); [Kernel.attach_spans] wires
    one in and arms the span probes. *)

open Quamachine

type t

(** Where a hop's cycles went. *)
type phase = Queue_wait | Service | Interrupt

(** Span events are emitted into [trace] (and its always-on black
    box) when given; histograms land in [metrics]. *)
val create : ?trace:Ktrace.t -> metrics:Metrics.t -> Machine.t -> t

(** Spans opened and not yet closed. *)
val open_count : t -> int

val pp_open : Format.formatter -> t -> unit

(** {1 Direct span lifecycle (host-side servers, e.g. disk)} *)

(** Mint a span: emits [Span_open], returns its id. *)
val open_span : t -> pipeline:string -> detail:string -> int

(** Attribute the cycles since the span's previous hop (or open) to
    [stage]/[phase]; emits [Span_hop].  Unknown ids are ignored (the
    side-table may have been reset under the caller). *)
val hop : t -> int -> stage:string -> phase:phase -> unit

(** Close: records "kspan.<pipeline>.total_cycles", emits
    [Span_close]. *)
val close : t -> int -> unit

(** Close a failed request; counts "kspan.failed" and tags the close
    event with [reason] instead of the pipeline name. *)
val fail : t -> int -> reason:string -> unit

(** {1 Queue carriage}

    The side-table: a FIFO of (span id, cumulative weight) per queue
    descriptor address.  Weights let byte-stream pipes match one
    drain against several bursts: a take closes every span whose
    cumulative enqueue weight the cumulative take weight has
    covered. *)

(** Stamp stage entry for [queue] (pipe write entry): the next
    [enqueue] counts service cycles from here. *)
val stage_enter : t -> queue:int -> unit

(** Open a span covering writer service since [stage_enter] (or the
    previous enqueue on this queue), record the service hop, and park
    it in the side-table with [weight] (words published). *)
val enqueue :
  t -> queue:int -> pipeline:string -> detail:string -> stage:string ->
  weight:int -> unit

(** Pop every span covered by [weight] more drained units: each gets
    a [stage]/[phase] hop (its queue residency) and closes. *)
val dequeue : t -> queue:int -> stage:string -> phase:phase -> weight:int -> unit

(** Unit-weight carriage for discrete queues: open-at-put (no service
    hop) / close-at-get. *)
val queue_put : t -> queue:int -> pipeline:string -> detail:string -> unit

val queue_take : t -> queue:int -> unit

(** Drop a queue's parked spans (pipe teardown/recycle); dropped spans
    close with reason ["reset"]. *)
val slot_reset : t -> queue:int -> unit
