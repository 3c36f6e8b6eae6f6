(** Single-producer multiple-consumer optimistic queue: the mirror
    image of MP-SC.  Consumers claim slots with compare-and-swap on
    [tail] and only then read them; the per-slot flag tells the
    producer when a slot has been fully drained. *)

type 'a t

val create : int -> 'a t
val try_put : 'a t -> 'a -> bool
val try_get : 'a t -> 'a option
