(* Multiple-producer single-consumer optimistic queue with atomic
   multi-item insert (paper Figure 2).

   Producers "stake a claim" to buffer space by atomically advancing
   [head] with compare-and-swap, then fill their slots concurrently.
   Because [head] no longer proves that data is present, every slot
   carries a valid flag: the producer sets it when the slot is filled,
   the (single) consumer clears it as the item is taken out.  The
   consumer trusts only the flags.

   The paper reports a normal Q_put path of 11 instructions on the
   68020 and 20 with one CAS retry; the VM-level twin of this queue
   ([Synthesis.Kqueue]) reproduces those counts.  This host-level
   version trades a few instructions for OCaml safety but keeps the
   algorithm identical. *)

type 'a t = {
  buf : 'a option array;
  flag : bool Atomic.t array;
  size : int;
  head : int Atomic.t; (* claimed by producers (CAS) *)
  tail : int; (* dummy for layout symmetry; consumer index below *)
  tail_c : int Atomic.t; (* written only by the consumer *)
}

let create size =
  if size < 2 then invalid_arg "Mpsc.create: size must be >= 2";
  {
    buf = Array.make size None;
    flag = Array.init size (fun _ -> Atomic.make false);
    size;
    head = Atomic.make 0;
    tail = 0;
    tail_c = Atomic.make 0;
  }

let add_wrap t x n =
  let x = x + n in
  if x >= t.size then x - t.size else x

(* SpaceLeft from Figure 2: free slots between head [h] and the
   consumer's tail, leaving one slot as the full/empty sentinel. *)
let space_left t h =
  let tl = Atomic.get t.tail_c in
  if h >= tl then tl - h + t.size - 1 else tl - h - 1

(* Atomic insert of [n] items from [items] (Figure 2's Q_put).  Either
   all items are inserted contiguously or none are. *)
let try_put_many t items n =
  if n <= 0 || n > t.size - 1 then invalid_arg "Mpsc.try_put_many";
  let rec claim () =
    let h = Atomic.get t.head in
    if space_left t h < n then None
    else
      let hi = add_wrap t h n in
      if Fault.cas t.head h hi then Some h else claim ()
  in
  match claim () with
  | None -> false
  | Some h ->
    for i = 0 to n - 1 do
      let slot = add_wrap t h i in
      t.buf.(slot) <- Some (items i);
      Atomic.set t.flag.(slot) true
    done;
    true

let try_put t v = try_put_many t (fun _ -> v) 1

(* Single consumer: no synchronization beyond the per-slot flags. *)
let try_get t =
  let tl = Atomic.get t.tail_c in
  if not (Atomic.get t.flag.(tl)) then None
  else begin
    let v = t.buf.(tl) in
    t.buf.(tl) <- None;
    Atomic.set t.flag.(tl) false;
    Atomic.set t.tail_c (add_wrap t tl 1);
    v
  end

let rec put t v = if not (try_put t v) then (Domain.cpu_relax (); put t v)

let rec get t =
  match try_get t with
  | Some v -> v
  | None ->
    Domain.cpu_relax ();
    get t
