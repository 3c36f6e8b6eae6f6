(** Quaject building blocks and the interfacer's connection analysis
    (§2.3, §5.2): the case table that picks the cheapest connector for
    each producer/consumer pairing, plus the monitor as installable
    kernel code. *)

type endpoint = Active | Passive
type multiplicity = Single | Multiple

(** One end of a connection: [end_] says whether the participant
    drives control flow; [mult] how many participants share the end. *)
type port = { end_ : endpoint; mult : multiplicity }

(** [port ?mult e] — [mult] defaults to [Single]. *)
val port : ?mult:multiplicity -> endpoint -> port

type connector =
  | Procedure_call
  | Monitored_call
  | Queue_spsc
  | Queue_mpsc
  | Queue_spmc
  | Queue_mpmc
  | Pump_thread

(** The §5.2 case analysis — the principle of frugality applied to
    connections. *)
val connect : producer:port -> consumer:port -> connector

val connector_name : connector -> string

(** {1 Monitor}: serializes multiple participants at one end.
    [mon_enter]/[mon_exit] are kernel subroutines (Jsr/Rts) around a
    CAS spin lock. *)

type monitor = { mon_lock : int; mon_enter : int; mon_exit : int }

val create_monitor : Kernel.t -> name:string -> monitor
