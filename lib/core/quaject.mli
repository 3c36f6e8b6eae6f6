(** The connection analysis of §5.2: the case table that picks the
    cheapest connector for each producer/consumer pairing of quajects. *)

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
