(** Kernel memory allocator: a fast-fit heap (§6.3) over the
    machine's data memory — segregated power-of-two free lists with a
    coalescing first-fit fallback.  Allocation costs are charged to
    the simulated clock. *)

type t

exception Out_of_memory

val create : Quamachine.Machine.t -> base:int -> limit:int -> t

(** Allocate [len] words; returns the address. *)
val alloc : t -> int -> int

(** Allocate and zero-fill (the zeroing touches memory and is
    charged). *)
val alloc_zeroed : t -> int -> int

(** Release a block.  Raises [Shared_page base] when [addr] is not an
    allocated data block but falls inside a live refcounted shared
    code page — freeing it would corrupt the page's co-owners. *)
val free : t -> int -> unit

val live_words : t -> int
val block_len : t -> int -> int option

(** {1 Shared code pages}

    Refcounted registry of code pages handed out to multiple owners by
    the synthesis cache.  [free] and [arena_free] consult it so a
    stray free of a shared address refuses instead of silently
    recycling words other threads still execute. *)

exception Shared_page of int

(** Register a page at refcount 1. *)
val share : t -> base:int -> len:int -> unit

(** Bump / drop a page's refcount; both return the new count. *)
val retain : t -> base:int -> int

val release : t -> base:int -> int

(** Remove a page from the registry (after eviction). *)
val unshare : t -> base:int -> unit

(** Current refcount of the page at [base]; 0 when unknown. *)
val shared_refs : t -> base:int -> int

(** {1 Arenas}

    Per-region-kind sub-allocators for synthesized code.  An arena
    grows by chunks of at least 256 words via its [grow] callback (the kernel passes
    [Machine.reserve_code], so every word is a patchable slot) and
    recycles freed ranges first-fit; the code store itself is
    append-only, so arena reuse is what keeps peak code bytes
    sublinear in the number of instantiations. *)

type arena

val arena : t -> grow:(int -> int) -> arena

(** Allocate [len] words, growing the arena if no free range fits. *)
val arena_alloc : arena -> int -> int

(** Recycle a range for the next instantiation.  Raises [Shared_page]
    if the address still belongs to a live shared page. *)
val arena_free : arena -> int -> unit

val arena_live_words : arena -> int
val arena_total_words : arena -> int
