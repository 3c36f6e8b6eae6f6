(* Single-producer single-consumer optimistic queue (paper Figure 1).

   When the buffer is neither full nor empty the producer and consumer
   operate on different parts of it, so no locking is needed: of the
   two index variables, [head] is written only by the producer and
   [tail] only by the consumer (Code Isolation).  The producer
   publishes the item *before* advancing [head], so the consumer never
   observes an item that is not fully written.

   Indexes are atomics for cross-domain visibility; there is no CAS or
   retry loop anywhere on this path. *)

type 'a t = {
  buf : 'a option array;
  size : int;
  head : int Atomic.t; (* next slot the producer fills *)
  tail : int Atomic.t; (* next slot the consumer drains *)
}

let create size =
  if size < 2 then invalid_arg "Spsc.create: size must be >= 2";
  { buf = Array.make size None; size; head = Atomic.make 0; tail = Atomic.make 0 }

let next t x = if x = t.size - 1 then 0 else x + 1

let try_put t v =
  let h = Atomic.get t.head in
  if next t h = Atomic.get t.tail then false (* full *)
  else begin
    t.buf.(h) <- Some v;
    Atomic.set t.head (next t h);
    true
  end

let try_get t =
  let tl = Atomic.get t.tail in
  if tl = Atomic.get t.head then None (* empty *)
  else begin
    let v = t.buf.(tl) in
    t.buf.(tl) <- None;
    Atomic.set t.tail (next t tl);
    v
  end
