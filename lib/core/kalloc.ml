(* Kernel memory allocator over the machine's data memory.

   The paper's allocator is an executable data structure implementing
   a fast-fit heap (§6.3).  We implement the fast-fit policy —
   segregated free lists indexed by size class, falling back to
   first-fit on a sorted large-block list — as a host-side service
   with explicit cycle charging, since allocation is never on a
   synthesized hot path that the evaluation measures per-instruction. *)

open Quamachine

type block = { addr : int; len : int }

(* Shared code pages: base -> (len, refcount).  Registered by the
   synthesis cache so a stray [free] of an address inside a page that
   other threads still execute refuses instead of silently recycling
   the words under them. *)
type shared_page = { sp_len : int; mutable sp_refs : int }

type t = {
  machine : Machine.t;
  (* size-class free lists: class i holds blocks of exactly 2^(i+4) words *)
  classes : block list array;
  mutable large : block list; (* sorted by address, coalesced *)
  mutable live_words : int;
  allocated : (int, int) Hashtbl.t; (* addr -> len *)
  shared_pages : (int, shared_page) Hashtbl.t; (* base -> page *)
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
    shared_pages = Hashtbl.create 32;
  }

let class_for len =
  let rec go i = if i >= num_classes then None else if class_words i >= len then Some i else go (i + 1) in
  go 0

(* Carve [len] words from the large list (first fit). *)
let carve t len =
  let rec go acc = function
    | [] -> None
    | b :: rest when b.len >= len ->
      let remainder =
        if b.len = len then rest else { addr = b.addr + len; len = b.len - len } :: rest
      in
      Some (b.addr, List.rev_append acc remainder)
    | b :: rest -> go (b :: acc) rest
  in
  match go [] t.large with
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
      | [] -> (
        match carve t (class_words cls) with
        | Some addr -> (Some addr, 60)
        | None -> (None, 60)))
    | None -> (
      match carve t len with Some addr -> (Some addr, 80) | None -> (None, 80))
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

(* ------------------------------------------------------------------ *)
(* Shared code pages (refcounted).

   The synthesis cache hands the same code page to many owners.  The
   registry below is how [free] learns that an address belongs to one
   of those pages: the allocated-block table is always checked first
   (code and data addresses overlap numerically, and a data block that
   merely aliases a page base must still free normally), and only an
   address that is NOT an allocated data block but IS covered by a
   live shared page raises [Shared_page] instead of corrupting the
   co-owners. *)

exception Shared_page of int

let share t ~base ~len =
  Hashtbl.replace t.shared_pages base { sp_len = len; sp_refs = 1 }

let retain t ~base =
  match Hashtbl.find_opt t.shared_pages base with
  | None -> invalid_arg "Kalloc.retain: not a shared page"
  | Some p ->
    p.sp_refs <- p.sp_refs + 1;
    p.sp_refs

let release t ~base =
  match Hashtbl.find_opt t.shared_pages base with
  | None -> invalid_arg "Kalloc.release: not a shared page"
  | Some p ->
    p.sp_refs <- max 0 (p.sp_refs - 1);
    p.sp_refs

let unshare t ~base = Hashtbl.remove t.shared_pages base

(* Covering lookup: is [addr] inside any registered page?  Only runs
   on the failure path of [free]/[arena_free], so a scan is fine. *)
let shared_page t addr =
  Hashtbl.fold
    (fun base p acc ->
      if addr >= base && addr < base + p.sp_len then Some (base, p.sp_refs)
      else acc)
    t.shared_pages None

let shared_refs t ~base =
  match Hashtbl.find_opt t.shared_pages base with
  | None -> 0
  | Some p -> p.sp_refs

let free t addr =
  match Hashtbl.find_opt t.allocated addr with
  | None -> (
    match shared_page t addr with
    | Some (base, _) -> raise (Shared_page base)
    | None -> invalid_arg "Kalloc.free: not an allocated block")
  | Some len ->
    Hashtbl.remove t.allocated addr;
    t.live_words <- t.live_words - len;
    Machine.charge t.machine 15;
    (match class_for len with
    | Some cls when class_words cls = len ->
      t.classes.(cls) <- { addr; len } :: t.classes.(cls)
    | _ ->
      (* return to the large list, keeping it address-sorted and
         coalescing neighbours *)
      let rec insert = function
        | [] -> [ { addr; len } ]
        | b :: rest when addr + len = b.addr -> { addr; len = len + b.len } :: rest
        | b :: rest when b.addr + b.len = addr -> insert_merge b rest
        | b :: rest when addr < b.addr -> { addr; len } :: b :: rest
        | b :: rest -> b :: insert rest
      and insert_merge b rest =
        match rest with
        | nxt :: rest' when b.addr + b.len + len = nxt.addr ->
          { addr = b.addr; len = b.len + len + nxt.len } :: rest'
        | _ -> { addr = b.addr; len = b.len + len } :: rest
      in
      t.large <- insert t.large)

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
  ar_parent : t;
  ar_grow : int -> int; (* words -> base of a fresh chunk *)
  mutable ar_free : block list; (* addr-sorted, coalesced *)
  mutable ar_total : int; (* words ever acquired *)
  mutable ar_live : int;
  ar_blocks : (int, int) Hashtbl.t; (* addr -> len *)
}

let arena t ~grow =
  {
    ar_parent = t;
    ar_grow = grow;
    ar_free = [];
    ar_total = 0;
    ar_live = 0;
    ar_blocks = Hashtbl.create 32;
  }

let arena_live_words a = a.ar_live
let arena_total_words a = a.ar_total

(* Insert a block into the free list, address-sorted, coalescing. *)
let arena_insert a addr len =
  let rec insert = function
    | [] -> [ { addr; len } ]
    | b :: rest when addr + len = b.addr -> { addr; len = len + b.len } :: rest
    | b :: rest when b.addr + b.len = addr -> insert_merge b rest
    | b :: rest when addr < b.addr -> { addr; len } :: b :: rest
    | b :: rest -> b :: insert rest
  and insert_merge b rest =
    match rest with
    | nxt :: rest' when b.addr + b.len + len = nxt.addr ->
      { addr = b.addr; len = b.len + len + nxt.len } :: rest'
    | _ -> { addr = b.addr; len = b.len + len } :: rest
  in
  a.ar_free <- insert a.ar_free

let arena_carve a len =
  let rec go acc = function
    | [] -> None
    | b :: rest when b.len >= len ->
      let remainder =
        if b.len = len then rest
        else { addr = b.addr + len; len = b.len - len } :: rest
      in
      Some (b.addr, List.rev_append acc remainder)
    | b :: rest -> go (b :: acc) rest
  in
  match go [] a.ar_free with
  | None -> None
  | Some (addr, free) ->
    a.ar_free <- free;
    Some addr

let arena_alloc a len =
  if len <= 0 then invalid_arg "Kalloc.arena_alloc";
  let addr, charged =
    match arena_carve a len with
    | Some addr -> (addr, 30)
    | None ->
      let want = max len chunk_words in
      let base = a.ar_grow want in
      a.ar_total <- a.ar_total + want;
      arena_insert a base want;
      (match arena_carve a len with
      | Some addr -> (addr, 90)
      | None -> assert false)
  in
  Machine.charge a.ar_parent.machine charged;
  Hashtbl.replace a.ar_blocks addr len;
  a.ar_live <- a.ar_live + len;
  addr

let arena_free a addr =
  match Hashtbl.find_opt a.ar_blocks addr with
  | None -> invalid_arg "Kalloc.arena_free: not an arena block"
  | Some len ->
    (match shared_page a.ar_parent addr with
    | Some (base, refs) when refs > 0 -> raise (Shared_page base)
    | _ -> ());
    Hashtbl.remove a.ar_blocks addr;
    a.ar_live <- a.ar_live - len;
    Machine.charge a.ar_parent.machine 15;
    arena_insert a addr len

