(* Kernel memory allocator over the machine's data memory.

   The paper's allocator is an executable data structure implementing
   a fast-fit heap (§6.3).  We implement the fast-fit policy —
   segregated free lists indexed by size class, falling back to
   first-fit on a sorted large-block list — as a host-side service
   with explicit cycle charging, since allocation is never on a
   synthesized hot path that the evaluation measures per-instruction.
   The code arenas below recycle their ranges through the same
   first-fit list walker.  The heap holds data words and the arenas
   code-store slots, so a data free can never reach code; a shared
   page's one refcount is Ksynth's. *)

open Quamachine

type block = { addr : int; len : int }

(* First fit on an address-sorted free list: the first block of at
   least [len] words gives up its front; returns the address and the
   remaining list. *)
let carve free len =
  let rec go acc = function
    | [] -> None
    | b :: rest when b.len >= len ->
      let remainder =
        if b.len = len then rest else { addr = b.addr + len; len = b.len - len } :: rest
      in
      Some (b.addr, List.rev_append acc remainder)
    | b :: rest -> go (b :: acc) rest
  in
  go [] free

(* Return [len] words at [addr] to an address-sorted free list,
   coalescing with both neighbours. *)
let insert free addr len =
  let rec go = function
    | [] -> [ { addr; len } ]
    | b :: rest when addr + len = b.addr -> { addr; len = len + b.len } :: rest
    | b :: rest when b.addr + b.len = addr -> merge b rest
    | b :: rest when addr < b.addr -> { addr; len } :: b :: rest
    | b :: rest -> b :: go rest
  and merge b rest =
    match rest with
    | nxt :: rest' when b.addr + b.len + len = nxt.addr ->
      { addr = b.addr; len = b.len + len + nxt.len } :: rest'
    | _ -> { addr = b.addr; len = b.len + len } :: rest
  in
  go free

type t = {
  machine : Machine.t;
  (* size-class free lists: class i holds blocks of exactly 2^(i+4) words *)
  classes : block list array;
  mutable large : block list; (* sorted by address, coalesced *)
  mutable live_words : int;
  allocated : (int, int) Hashtbl.t; (* addr -> len *)
}

let num_classes = 8
let class_words i = 1 lsl (i + 4) (* 16 .. 2048 words *)

let create machine ~base ~limit =
  {
    machine;
    classes = Array.make num_classes [];
    large = [ { addr = base; len = limit - base } ];
    live_words = 0;
    allocated = Hashtbl.create 64;
  }

let class_for len =
  let rec go i = if i >= num_classes then None else if class_words i >= len then Some i else go (i + 1) in
  go 0

(* Carve [len] words from the large list. *)
let carve_large t len =
  match carve t.large len with
  | None -> None
  | Some (addr, large) ->
    t.large <- large;
    Some addr

exception Out_of_memory

(* Allocate [len] words; returns the address.  Fast path: pop the
   size-class list (the "fast fit"); slow path: carve from the large
   region.  Cost: ~20 cycles fast, ~60 slow (charged). *)
let alloc t len =
  if len <= 0 then invalid_arg "Kalloc.alloc";
  let addr, charged =
    match class_for len with
    | Some cls -> (
      match t.classes.(cls) with
      | b :: rest ->
        t.classes.(cls) <- rest;
        (Some b.addr, 20)
      | [] -> (carve_large t (class_words cls), 60))
    | None -> (carve_large t len, 80)
  in
  Machine.charge t.machine charged;
  match addr with
  | None -> raise Out_of_memory
  | Some addr ->
    let stored_len =
      match class_for len with Some cls -> class_words cls | None -> len
    in
    Hashtbl.replace t.allocated addr stored_len;
    t.live_words <- t.live_words + stored_len;
    addr

(* Allocate and zero. *)
let alloc_zeroed t len =
  let addr = alloc t len in
  for i = addr to addr + len - 1 do
    Machine.poke t.machine i 0
  done;
  (* zeroing touches memory for real *)
  Machine.charge_refs t.machine len;
  addr

let free t addr =
  match Hashtbl.find_opt t.allocated addr with
  | None -> invalid_arg "Kalloc.free: not an allocated block"
  | Some len -> (
    Hashtbl.remove t.allocated addr;
    t.live_words <- t.live_words - len;
    Machine.charge t.machine 15;
    match class_for len with
    | Some cls when class_words cls = len ->
      t.classes.(cls) <- { addr; len } :: t.classes.(cls)
    | _ -> t.large <- insert t.large addr len)

let live_words t = t.live_words
let block_len t addr = Hashtbl.find_opt t.allocated addr

(* ------------------------------------------------------------------ *)
(* Arenas: per-region-kind sub-allocators for synthesized code.

   An arena owns a set of chunks obtained from a [grow] callback (the
   kernel grows code arenas with [Machine.reserve_code], so every word
   is a patchable slot) and hands out first-fit ranges from a sorted,
   coalesced free list.  Arenas never return space to the machine —
   the code store is append-only — so "free" means recyclable for the
   next instantiation of the same kind. *)

(* Minimum words an arena acquires from [grow] when it grows.  Chunky
   growth keeps the patchable-slot reservations coarse enough to
   recycle. *)
let chunk_words = 256

type arena = {
  ar_machine : Machine.t;
  ar_grow : int -> int; (* words -> base of a fresh chunk *)
  mutable ar_free : block list; (* addr-sorted, coalesced *)
  mutable ar_total : int; (* words ever acquired *)
  mutable ar_live : int;
  ar_blocks : (int, int) Hashtbl.t; (* addr -> len *)
}

let arena t ~grow =
  {
    ar_machine = t.machine;
    ar_grow = grow;
    ar_free = [];
    ar_total = 0;
    ar_live = 0;
    ar_blocks = Hashtbl.create 32;
  }

let arena_live_words a = a.ar_live
let arena_total_words a = a.ar_total

let arena_alloc a len =
  if len <= 0 then invalid_arg "Kalloc.arena_alloc";
  let addr, free, charged =
    match carve a.ar_free len with
    | Some (addr, free) -> (addr, free, 30)
    | None -> (
      let want = max len chunk_words in
      let base = a.ar_grow want in
      a.ar_total <- a.ar_total + want;
      match carve (insert a.ar_free base want) len with
      | Some (addr, free) -> (addr, free, 90)
      | None -> assert false)
  in
  a.ar_free <- free;
  Machine.charge a.ar_machine charged;
  Hashtbl.replace a.ar_blocks addr len;
  a.ar_live <- a.ar_live + len;
  addr

let arena_free a addr =
  match Hashtbl.find_opt a.ar_blocks addr with
  | None -> invalid_arg "Kalloc.arena_free: not an arena block"
  | Some len ->
    Hashtbl.remove a.ar_blocks addr;
    a.ar_live <- a.ar_live - len;
    Machine.charge a.ar_machine 15;
    a.ar_free <- insert a.ar_free addr len
