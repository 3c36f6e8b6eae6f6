(* Dedicated queue: the principle of frugality applied to queues.

   When the kernel knows a queue has exactly one producer *and* its
   consumer runs in a context already serialized with the producer
   (e.g. a filter thread draining a queue filled by an interrupt
   handler chained under the same thread), all synchronization code is
   omitted (§2.3).  This is the cheapest possible queue: plain loads
   and stores, no atomics at all.

   It must never be shared across domains — that is the contract a
   server keeps when the §5.2 case analysis picks this implementation. *)

type 'a t = {
  buf : 'a option array;
  size : int;
  mutable head : int;
  mutable tail : int;
}

let create size =
  if size < 2 then invalid_arg "Dedicated.create: size must be >= 2";
  { buf = Array.make size None; size; head = 0; tail = 0 }

let next t x = if x = t.size - 1 then 0 else x + 1

let try_put t v =
  if next t t.head = t.tail then false
  else begin
    t.buf.(t.head) <- Some v;
    t.head <- next t t.head;
    true
  end

let try_get t =
  if t.tail = t.head then None
  else begin
    let v = t.buf.(t.tail) in
    t.buf.(t.tail) <- None;
    t.tail <- next t t.tail;
    v
  end
