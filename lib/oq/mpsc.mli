(** Multiple-producer single-consumer optimistic queue with atomic
    multi-item insert (paper Figure 2).

    Producers stake a claim to buffer space with compare-and-swap on
    [head], fill their slots concurrently, and publish each slot
    through a per-slot valid flag; the single consumer trusts only the
    flags.  Safe for any number of producer domains and exactly one
    consumer domain. *)

type 'a t

(** [create n] makes a queue with [n - 1] usable slots ([n >= 2]). *)
val create : int -> 'a t

(** [try_put_many q item n] atomically claims space for [n] items and
    inserts [item 0 .. item (n-1)] contiguously; [false] if fewer than
    [n] slots are free.  Raises [Invalid_argument] if [n] exceeds the
    capacity. *)
val try_put_many : 'a t -> (int -> 'a) -> int -> bool

val try_put : 'a t -> 'a -> bool
val try_get : 'a t -> 'a option
val put : 'a t -> 'a -> unit
val get : 'a t -> 'a
val capacity : 'a t -> int
