(** Dedicated queue: all synchronization code omitted (§2.3).

    The cheapest queue there is — plain loads and stores.  The
    contract, enforced by whoever instantiates it (in the kernel, the
    server whose ends the §5.2 case analysis fixes), is that producer and consumer are
    already serialized: never share across domains. *)

type 'a t

val create : int -> 'a t
val try_put : 'a t -> 'a -> bool
val try_get : 'a t -> 'a option
