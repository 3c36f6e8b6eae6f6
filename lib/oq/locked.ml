(* Mutex-protected queue: the "powerful mutual exclusion" baseline the
   paper argues against (§1).  Used by the benchmarks to show what the
   optimistic queues buy. *)

type 'a t = {
  buf : 'a option array;
  size : int;
  mutable head : int;
  mutable tail : int;
  lock : Mutex.t;
}

let create size =
  if size < 2 then invalid_arg "Locked.create: size must be >= 2";
  { buf = Array.make size None; size; head = 0; tail = 0; lock = Mutex.create () }

let next t x = if x = t.size - 1 then 0 else x + 1

let try_put t v =
  Mutex.lock t.lock;
  let ok =
    if next t t.head = t.tail then false
    else begin
      t.buf.(t.head) <- Some v;
      t.head <- next t t.head;
      true
    end
  in
  Mutex.unlock t.lock;
  ok

let try_get t =
  Mutex.lock t.lock;
  let r =
    if t.tail = t.head then None
    else begin
      let v = t.buf.(t.tail) in
      t.buf.(t.tail) <- None;
      t.tail <- next t t.tail;
      v
    end
  in
  Mutex.unlock t.lock;
  r

let rec put t v = if not (try_put t v) then (Domain.cpu_relax (); put t v)

let rec get t =
  match try_get t with
  | Some v -> v
  | None ->
    Domain.cpu_relax ();
    get t
