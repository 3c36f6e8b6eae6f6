(* Single-producer multiple-consumer optimistic queue.

   Mirror image of the MP-SC queue: the producer owns [head] and
   consumers race on [tail] with compare-and-swap.  A consumer first
   *claims* a ticket (CAS on tail) and only then reads its slot, so no
   two consumers ever touch the same slot.

   [head] and [tail] are unbounded tickets (slot = ticket mod size) and
   each slot carries a sequence number, as in [Mpmc]: the producer
   fills ticket [h] when its slot shows [h] (drained last lap) and
   publishes [h + 1]; a consumer claims ticket [t] when the slot shows
   [t + 1] and, after reading it, hands the slot to ticket [t + size].
   With wrapped indices and a bare valid flag, a consumer that stalled
   between reading [tail] and its CAS could claim a slot a whole lap
   later, after the other consumers had drained it: its CAS compared
   equal wrapped indices, it read an empty slot, and [tail] ended one
   past [head] for good.  Unbounded tickets make that CAS fail. *)

type 'a t = {
  buf : 'a option array;
  seq : int Atomic.t array;
  size : int;
  head : int Atomic.t; (* producer ticket, written only by the producer *)
  tail : int Atomic.t; (* consumer ticket, claimed by CAS *)
}

let create size =
  if size < 2 then invalid_arg "Spmc.create: size must be >= 2";
  {
    buf = Array.make size None;
    seq = Array.init size (fun i -> Atomic.make i);
    size;
    head = Atomic.make 0;
    tail = Atomic.make 0;
  }

let try_put t v =
  let h = Atomic.get t.head in
  let slot = h mod t.size in
  (* The slot is reusable only once the consumer of the previous lap
     has drained it; one slot stays empty, as in the other rings. *)
  if Atomic.get t.seq.(slot) <> h || h - Atomic.get t.tail >= t.size - 1 then false
  else begin
    t.buf.(slot) <- Some v;
    Atomic.set t.seq.(slot) (h + 1);
    Atomic.set t.head (h + 1);
    true
  end

let rec try_get t =
  let tl = Atomic.get t.tail in
  let slot = tl mod t.size in
  let s = Atomic.get t.seq.(slot) in
  if s = tl + 1 then
    if Fault.cas t.tail tl (tl + 1) then begin
      (* Ticket claimed: we are its slot's only reader. *)
      let v = t.buf.(slot) in
      t.buf.(slot) <- None;
      Atomic.set t.seq.(slot) (tl + t.size);
      v
    end
    else try_get t (* another consumer won the claim; retry *)
  else if s <= tl then None (* empty or not yet published *)
  else try_get t (* tail moved on since we read it *)

let rec put t v = if not (try_put t v) then (Domain.cpu_relax (); put t v)

let rec get t =
  match try_get t with
  | Some v -> v
  | None ->
    Domain.cpu_relax ();
    get t

let is_empty t =
  let tl = Atomic.get t.tail in
  Atomic.get t.seq.(tl mod t.size) <> tl + 1

let length t = max 0 (Atomic.get t.head - Atomic.get t.tail)
