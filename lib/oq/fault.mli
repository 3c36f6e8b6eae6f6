(** kfault seam for the host-level optimistic queues.

    All CAS operations in [Mpsc]/[Spmc]/[Mpmc] route through {!cas}.
    Disarmed (the default) it is [Atomic.compare_and_set] plus one
    atomic load.  Armed with [arm ~seed ~every], every [every]-th call
    library-wide is vetoed — it returns [false] without attempting the
    exchange, indistinguishable from losing the race to another
    thread — so the retry loops get exercised even in single-threaded
    runs.  On a single domain the veto sequence is a pure function of
    (seed, every, call order); arm/disarm around each stress run. *)

val arm : seed:int -> every:int -> unit
(** Veto one in [every] CAS attempts, phase-shifted by [seed].
    [every] must be >= 2. *)

val disarm : unit -> unit

val armed : unit -> bool

val forced : unit -> int
(** Vetoes delivered since the last {!arm}. *)

val before_next_cas : (unit -> unit) -> unit
(** Run [f] once, just before the next {!cas} library-wide attempts its
    exchange (the seam is disarmed while [f] runs, so [f]'s own queue
    operations go straight through).  A deterministic single-domain
    stand-in for a thread stalled between reading a queue's state and
    its claim: [f] replays what the other threads did meanwhile.
    Replaces any armed veto schedule. *)

val cas : 'a Atomic.t -> 'a -> 'a -> bool
(** [compare_and_set], possibly vetoed. *)
