(** Asynchronous queues (§2.3): never block — put and get return a
    status in r0, and the interesting edges raise signals: a put into
    an empty queue signals the registered consumer, a get from a full
    queue signals the registered producer. *)

type t = {
  aq_queue : Kqueue.t;
  mutable aq_put : int;  (** signalling wrappers (Jsr; item in r1) *)
  mutable aq_get : int;
  mutable aq_consumer : Kernel.tte option;
  mutable aq_producer : Kernel.tte option;
}

val create : Kernel.t -> name:string -> size:int -> t
val set_consumer : t -> Kernel.tte -> unit
