(** Asynchronous queues (§2.3): never block — put and get return a
    status in r0.  One edge raises a signal: a put into an empty queue
    signals the registered consumer ("data available").  No producer
    edge is signalled: a get from a full queue wakes no one. *)

type t = {
  aq_queue : Kqueue.t;
  mutable aq_put : int;  (** the signalling put wrapper (Jsr; item in r1) *)
  aq_get : int;  (** the underlying queue's get (Jsr; item out in r1) *)
  mutable aq_consumer : Kernel.tte option;
}

val create : Kernel.t -> name:string -> size:int -> t
val set_consumer : t -> Kernel.tte -> unit
