(** Single-producer single-consumer optimistic queue (paper Figure 1).

    No locks and no CAS: when the buffer is neither full nor empty the
    two sides operate on different slots; [head] is written only by
    the producer and [tail] only by the consumer (Code Isolation).
    Safe for exactly one producer domain and one consumer domain. *)

type 'a t

(** [create n] makes a queue with [n - 1] usable slots ([n >= 2]). *)
val create : int -> 'a t

(** [try_put q v] is [false] when the queue is full. *)
val try_put : 'a t -> 'a -> bool

(** [try_get q] is [None] when the queue is empty. *)
val try_get : 'a t -> 'a option

(** Spinning variants of [try_put]/[try_get]. *)
val put : 'a t -> 'a -> unit

val get : 'a t -> 'a
val is_empty : 'a t -> bool
val is_full : 'a t -> bool
