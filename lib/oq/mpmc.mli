(** Multiple-producer multiple-consumer optimistic queue.

    The valid flag of Figure 2 generalized to a per-slot sequence
    number (a flag with a generation) so that ring wrap-around stays
    safe when both ends race; head and tail are unbounded tickets.
    Every path is lock-free. *)

type 'a t

(** [create n] makes a queue with [n] usable slots ([n >= 2]). *)
val create : int -> 'a t

val try_put : 'a t -> 'a -> bool
val try_get : 'a t -> 'a option
val put : 'a t -> 'a -> unit
