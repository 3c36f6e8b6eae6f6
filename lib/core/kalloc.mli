(** Kernel memory allocator: a fast-fit heap (§6.3) over the
    machine's data memory — segregated power-of-two free lists with a
    coalescing first-fit fallback — and per-kind code arenas that
    recycle through the same first-fit list.  Allocation costs are
    charged to the simulated clock. *)

type t

exception Out_of_memory

val create : Quamachine.Machine.t -> base:int -> limit:int -> t

(** Allocate [len] words; returns the address. *)
val alloc : t -> int -> int

(** Allocate and zero-fill (the zeroing touches memory and is
    charged). *)
val alloc_zeroed : t -> int -> int

(** Release a block.  Raises [Invalid_argument] when [addr] is not
    an allocated block. *)
val free : t -> int -> unit

val live_words : t -> int
val block_len : t -> int -> int option

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

(** Recycle a range for the next instantiation.  The caller frees a
    shared page only once its last claim is gone (Ksynth's refcount). *)
val arena_free : arena -> int -> unit

val arena_live_words : arena -> int
val arena_total_words : arena -> int
