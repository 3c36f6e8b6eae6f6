(** ksynth: the memoizing synthesis cache — the kernel's single
    code-generation API.

    The paper's kernel synthesizes a fresh specialized routine on
    every [open]; most of those routines are byte-identical to one
    generated moments earlier (same template, same folded invariants).
    [instantiate] memoizes: the first request pays full generation
    cost and installs the code in a per-kind arena of patchable slots;
    subsequent requests with the same key pay a table probe and share
    the installed page, refcounted by live handles.

    Keys are content-addressed — template id + a hash of the
    optimized body — so instantiations share pages exactly when the
    generated code is byte-identical, never otherwise.  A template's
    invariants are OCaml arguments closed over by its generator: two
    argument sets that fold into the same body share one page.  Probe
    points ([Insn.Probe]) emit no code and stay out of the key; each
    instantiation binds the page's probes to its own [?probes].

    Pages are read-only by convention and copy-on-patch in fact:
    [patch] on a page with several co-owners forks a private copy
    (full synthesis cost) and repoints only this handle; on a sole
    owner it patches in place, silently detaching the page from the
    cache so patched content is never served to a fresh instantiation.

    [release]d pages with no remaining handles stay warm in the cache
    until a per-kind budget ([set_cap]) forces LRU eviction.  The
    caller's template is the generator, so an evicted page leaves only
    its key behind (in a bounded set): a later miss on that key is
    *resynthesis*, counted apart from a cold build.  Arena ranges are
    recycled first-fit, which is what keeps peak code bytes sublinear
    in the number of opens.

    Every page is also kheal's unit of repair: the record
    ({!Kernel.synth_page}) carries the template, checksum, live
    patches and probes the kernel needs to audit and rebuild it. *)

open Quamachine

(** A claim on one cache page.  Handles are what callers hold;
    refcounts count handles. *)
type handle

(** Cache statistics, read from the kernel's metrics registry plus the
    live cache tables. *)
type stats = {
  st_hits : int;
  st_misses : int;
  st_evictions : int;
  st_resynth : int;  (** misses on the key of an evicted page *)
  st_cached_pages : int;  (** pages reachable through the cache *)
  st_footprint_words : int;  (** arena words ever acquired (peak) *)
  st_live_words : int;  (** arena words currently allocated *)
}

(** {1 The code-generation entry point} *)

(** [instantiate k ~template] returns a handle on the code [template]
    generates with its invariants folded in (§2.2).

    Cache hit (same key and the same optimized body, probe points
    aside): charges a table probe (~30 cycles), bumps the page's
    refcount.  Miss: charges full generation cost plus the arena
    allocation, installs, and caches the page.  [?name] labels the
    page (default: the template id); [?kind] picks
    the arena (default: [name] up to the first ['/']); [?probes] binds the template's probe
    points (on a hit too, replacing the page's bindings). *)
val instantiate :
  ?name:string ->
  ?kind:string ->
  ?probes:Kernel.probe list ->
  Kernel.t ->
  template:Template.t ->
  handle

(** Boot-time shared kernel code: installed append-path (no charge,
    once), pinned — never evicted, never released — and registered by
    [name] for [lookup].  Memoized on name + body; [?probes] binds the
    body's probe points as in {!instantiate}. *)
val install :
  ?probes:Kernel.probe list ->
  Kernel.t ->
  name:string ->
  Insn.insn list ->
  int * Asm.symbols

(** {1 Named entries (the boot-time service directory)} *)

(** Entry of an installed/registered name; raises [Invalid_argument]
    when unknown. *)
val lookup : Kernel.t -> string -> int

(** {1 Handles} *)

val entry : handle -> int

(** Absolute address of a label in the page. *)
val sym : handle -> string -> int

val refs : handle -> int

(** The underlying page record (inspection/tests). *)
val page : handle -> Kernel.synth_page

(** Patch the word at [entry + off] through the copy-on-patch rule:
    forks a private copy first when the page has co-owners (full
    synthesis cost), detaches from the cache when it was the sole
    cached owner.  After a fork the handle points at the copy. *)
val patch : Kernel.t -> handle -> off:int -> Insn.insn -> unit

(** Drop this handle's claim.  The last release of an unreachable
    (detached) page frees its arena range immediately; a cached page
    stays warm for the next instantiate.  Idempotent per handle. *)
val release : Kernel.t -> handle -> unit

(** [release_entry k addr]: release by code address, for callers that
    kept only the entry (fd tables).  Pinned pages ([install]'s
    boot-time code) and addresses outside any page are ignored. *)
val release_entry : Kernel.t -> int -> unit

(** {1 Budgets and eviction} *)

(** Set the live-word budget for one arena kind and evict LRU
    refcount-zero pages until under it. *)
val set_cap : Kernel.t -> kind:string -> int -> unit

(** The cache key a page was stored under (tests/eviction probes). *)
val key : handle -> string

(** {1 Introspection} *)

val stats : Kernel.t -> stats
