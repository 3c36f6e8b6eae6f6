(* kfault seam for the host-level optimistic queues.

   Every CAS in this library's claim/retry loops goes through [cas]
   below.  Disarmed (the default) it is [Atomic.compare_and_set] plus
   one atomic load — the queues behave exactly as before.  Armed, every
   [every]-th call site-wide is vetoed: it returns [false] without
   attempting the exchange, which to the caller is indistinguishable
   from losing the race to another thread.  Correct optimistic code
   must re-read and retry; code that "knew" its CAS would succeed
   loses items or duplicates them, which is what the stress tests
   look for.

   Determinism: on a single domain the veto sequence is a pure
   function of (seed, every, call order).  Under real parallelism the
   global ticket makes the veto pattern an interleaving-dependent
   pseudo-random 1/every sprinkle, which is still a valid stressor —
   the invariant checks never depend on *which* CAS was vetoed. *)

let period = Atomic.make 0 (* 0 = disarmed, -1 = interposer pending *)
let ticket = Atomic.make 0
let forced_count = Atomic.make 0
let interposer : (unit -> unit) option Atomic.t = Atomic.make None

let arm ~seed ~every =
  if every < 2 then invalid_arg "Oq.Fault.arm: every must be >= 2";
  Atomic.set ticket (((seed mod every) + every) mod every);
  Atomic.set forced_count 0;
  Atomic.set period every

let disarm () =
  Atomic.set period 0;
  Atomic.set interposer None

let armed () = Atomic.get period > 0
let forced () = Atomic.get forced_count

(* The next CAS runs [f] first, with the seam disarmed, then attempts
   its exchange: on one domain, [f] plays every other thread while
   the caller is stalled between reading the queue and its claim. *)
let before_next_cas f =
  Atomic.set interposer (Some f);
  Atomic.set period (-1)

let cas (a : 'a Atomic.t) (old : 'a) (nw : 'a) =
  let every = Atomic.get period in
  if every = 0 then Atomic.compare_and_set a old nw
  else if every < 0 then begin
    Atomic.set period 0;
    (match Atomic.exchange interposer None with Some f -> f () | None -> ());
    Atomic.compare_and_set a old nw
  end
  else if Atomic.fetch_and_add ticket 1 mod every = 0 then begin
    Atomic.incr forced_count;
    false
  end
  else Atomic.compare_and_set a old nw
