(** Cycle-attributed kernel tracing.

    A bounded ring buffer of typed events stamped with the machine
    cycle counter, fed from three directions:

    {ul
    {- host-side machine hooks (interrupt post/accept, device ticks,
       faults) — free, no simulated cycles;}
    {- host-side kernel call sites (synthesis, patches, block/unblock,
       rebalances) — also free;}
    {- probes on synthesized code (context switches, queue put/get) —
       host closures the machine runs just before the probed
       instruction ([Kernel.Trace] bindings, {!Machine.add_probe}).
       They execute nothing in the simulated machine, so a traced
       kernel, collecting or not, runs the instruction stream of an
       untraced one in the same cycles ([bench overhead] proves it).}}

    Cycle attribution rides on {!Machine.set_owner_range}: every
    synthesized routine registers as an owner, and the per-owner
    totals sum exactly to the machine's cycle total over the traced
    window.  See [docs/OBSERVABILITY.md]. *)

open Quamachine

type t

type kind =
  | Switch_out of int  (** tid leaving the CPU *)
  | Switch_in of int  (** tid entering the CPU *)
  | Queue_put of string * bool  (** queue name, success (false = full) *)
  | Queue_get of string * bool  (** queue name, success (false = empty) *)
  | Block of string * int  (** wait-queue name, tid *)
  | Unblock of string * int
  | Synthesized of string * int  (** routine name, instruction count *)
  | Patched of int  (** code address rewritten in place *)
  | Rebalance of int  (** scheduler epoch number *)
  | Irq_posted of string * int  (** posting device, level *)
  | Irq_enter of int * int  (** level, vector *)
  | Device_tick of string
  | Fault of string
  | Span_open of int * string  (** span id, pipeline name (see {!Kspan}) *)
  | Span_hop of int * string  (** span id, "stage/phase" *)
  | Span_close of int * string  (** span id, pipeline name *)
  | Retune of int * int  (** scheduler quantum retune: tid, new quantum (µs) *)

type event = { ev_cycles : int; ev_kind : kind }

(** [capacity] (default 65,536) sizes the event ring, which only an
    [enabled] trace (the default) allocates; the always-on
    flight-recorder ring keeps the last 256 events (see
    {!blackbox_events}). *)
val create : ?capacity:int -> ?enabled:bool -> Machine.t -> t

(** Stamp [kind] with the cycle counter and record it in the black
    box and, when enabled, in the event ring and its [event_count]. *)
val emit : t -> kind -> unit

(** Buffered events, oldest first. *)
val events : t -> event list

(** Total collected, including events the ring has dropped: a trace's
    only event count. *)
val event_count : t -> int

val dropped : t -> int

(** {1 Flight recorder}

    A second, small ring that records every event reaching {!emit}
    even while collection is disabled — the crash black box dumped by
    [Kernel.postmortem].  Host-side state only: keeping it on does not
    change simulated cycle counts, so disabled runs stay
    cycle-identical. *)

(** Black-box contents, oldest first. *)
val blackbox_events : t -> event list

(** {1 Owners and cycle attribution} *)

(** Register a synthesized routine as a cycle owner; returns its id. *)
val register_owner : t -> name:string -> entry:int -> len:int -> int

(** Per-owner cycle totals (registered routines plus the reserved
    host/idle/irq/unowned owners), biggest first.  Flushes pending
    host charges first so the totals are balanced. *)
val owner_cycles : t -> (string * int) list

(** Sum over all owners — equals {!traced_cycles} whenever attribution
    was enabled for the whole window. *)
val attributed_total : t -> int

(** Machine cycles elapsed since {!install}. *)
val traced_cycles : t -> int

(** Per-thread CPU cycles reconstructed from the switch events. *)
val thread_cycles : t -> (int * int) list

(** {1 Installation} *)

(** Machine hooks (interrupt/device/fault activity lands in the ring)
    + cycle attribution, window starting now.  Use
    [Kernel.attach_tracing] instead when a kernel is up: it also
    registers already-synthesized routines as owners and arms the
    probes. *)
val install : t -> unit

(** {1 Export} *)

(** Event totals, per-kind counts of the buffered events, cycles by
    quaject and by thread, and the number of [Rebalance] events. *)
val pp_summary : Format.formatter -> t -> unit

(** One event as "cycles  kind detail" (postmortem dumps). *)
val pp_event : Format.formatter -> event -> unit

(** The whole ring as Chrome [chrome://tracing] JSON ([traceEvents]
    plus an [otherData] block with the per-quaject cycle totals). *)
val to_chrome_json : t -> string

(** Just the flight-recorder black box as Chrome JSON. *)
val blackbox_to_chrome_json : t -> string
