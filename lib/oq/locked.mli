(** Mutex-protected queue: the "powerful mutual exclusion" baseline
    the paper argues against (§1); used by benchmarks to show what
    optimistic synchronization buys. *)

type 'a t

val create : int -> 'a t
val try_put : 'a t -> 'a -> bool
val try_get : 'a t -> 'a option
val put : 'a t -> 'a -> unit
val get : 'a t -> 'a
