(* Multiple-producer multiple-consumer optimistic queue.

   The paper builds MP-MC by combining the MP producer protocol with
   the MC consumer protocol.  With both ends racing, a single-bit
   valid flag is not enough: after the ring wraps, a stalled producer
   could mistake an old flag for its own generation.  We therefore
   generalize the flag to a per-slot *sequence number* — exactly the
   valid-flag idea of Figure 2 with a generation attached — and keep
   head/tail as unbounded tickets (slot = ticket mod size).

   A producer claims ticket [h] by CAS when slot [h mod size] shows
   sequence [h] (drained this generation); filling it publishes
   sequence [h + 1].  A consumer claims ticket [t] when the slot shows
   [t + 1]; draining it publishes [t + size] for the next lap.  Every
   path is lock-free: a CAS failure means another thread made
   progress. *)

type 'a t = {
  buf : 'a option array;
  seq : int Atomic.t array;
  size : int;
  head : int Atomic.t; (* producer ticket *)
  tail : int Atomic.t; (* consumer ticket *)
}

let create size =
  if size < 2 then invalid_arg "Mpmc.create: size must be >= 2";
  {
    buf = Array.make size None;
    seq = Array.init size (fun i -> Atomic.make i);
    size;
    head = Atomic.make 0;
    tail = Atomic.make 0;
  }

let rec try_put t v =
  let h = Atomic.get t.head in
  let slot = h mod t.size in
  let s = Atomic.get t.seq.(slot) in
  if s = h then
    if Fault.cas t.head h (h + 1) then begin
      t.buf.(slot) <- Some v;
      Atomic.set t.seq.(slot) (h + 1);
      true
    end
    else try_put t v
  else if s < h then false (* slot still holds the previous lap: full *)
  else try_put t v (* another producer advanced head; retry *)

let rec try_get t =
  let tl = Atomic.get t.tail in
  let slot = tl mod t.size in
  let s = Atomic.get t.seq.(slot) in
  if s = tl + 1 then
    if Fault.cas t.tail tl (tl + 1) then begin
      let v = t.buf.(slot) in
      t.buf.(slot) <- None;
      Atomic.set t.seq.(slot) (tl + t.size);
      v
    end
    else try_get t
  else if s <= tl then None (* not yet published: empty *)
  else try_get t
