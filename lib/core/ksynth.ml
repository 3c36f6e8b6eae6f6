(* ksynth: the memoizing synthesis cache.

   The cache sits between the templates and the raw synthesis engine
   in [Kernel]: keys are content-addressed (template id + a hash of
   the optimized body), so two instantiations share a page exactly
   when the code they would generate is byte-identical.  A template
   takes its invariants as OCaml arguments, so an invariant the body
   folds in disambiguates through the body hash, and one it ignores
   costs no page.  Probe points are not
   code: the key ignores them, and every instantiation (hit or miss)
   binds the page's probes to its own [?probes].

   Pages live in per-kind [Kalloc] arenas whose every word is a
   patchable slot ([Machine.reserve_code]), so installing into a
   recycled range is patching, not appending: the code store stops
   growing once the working set of distinct routines is built, which
   is what makes peak code bytes sublinear in opens.

   The mutation rule is copy-on-patch: [Kernel.patch_code] refuses to
   write into a page with several co-owners (this module's [patch]
   forks a private copy first) and silently detaches a sole-owner
   cached page, so the cache never serves patched content to a fresh
   instantiation.  Eviction (LRU over refcount-zero pages, per-kind
   budgets) remembers only the page's key: the caller's template is
   the generator, so a later miss on that key is resynthesis, counted
   apart from a cold build. *)

open Quamachine
open Kernel

type handle = { mutable h_page : synth_page; mutable h_live : bool }

type stats = {
  st_hits : int;
  st_misses : int;
  st_evictions : int;
  st_resynth : int;
  st_cached_pages : int;
  st_footprint_words : int;
  st_live_words : int;
}

(* Probing the cache is a hash lookup plus a refcount bump — priced
   like the allocator's fast path, not like running the synthesizer. *)
let hit_cycles = 30

(* Keys of evicted pages are bounded: a workload that churns through
   unbounded distinct keys must not grow an unbounded set. *)
let evicted_cap = 512

(* ------------------------------------------------------------------ *)
(* Keys *)

(* Per-instruction folding: [Hashtbl.hash] on a whole instruction list
   only inspects a bounded prefix, so fold instruction by instruction
   (each insn is a small constructor tree it hashes fully).  Probe
   points are not code. *)
let body_hash insns =
  List.fold_left
    (fun h i ->
      match i with
      | Insn.Probe _ -> h
      | i -> ((h * 16777619) lxor Hashtbl.hash i) land max_int)
    0x811C9DC5 insns

let key_of ~id h = Printf.sprintf "%s#%x" id h

(* Does [a] hold the same code as [b]?  A hit checks the whole body,
   so a hash collision cannot share a page.  Probe points are not
   code.  One walk, no allocation. *)
let rec same_code a b =
  match (a, b) with
  | Insn.Probe _ :: a, b | a, Insn.Probe _ :: b -> same_code a b
  | x :: a, y :: b -> x = y && same_code a b
  | [], [] -> true
  | _ -> false

(* Bind a fragment's probe points: each [Insn.Probe] whose name has
   bindings, as (offset, probe) for every binding, in fragment order. *)
let probe_points insns (bindings : probe list) =
  List.concat_map
    (fun (name, off) ->
      List.filter_map
        (fun ((n, _) as b) -> if n = name then Some (off, b) else None)
        bindings)
    (Asm.probe_points insns)

(* Arena kind: the registry's subsystem prefix ("pipe/...", "ctx/..."),
   so related routines recycle each other's ranges. *)
let kind_of name =
  match String.index_opt name '/' with
  | Some i -> String.sub name 0 i
  | None -> name

(* ------------------------------------------------------------------ *)
(* Arenas and footprint *)

let arena_for k kind =
  match Hashtbl.find_opt k.synth_arenas kind with
  | Some a -> a
  | None ->
    let a =
      Kalloc.arena k.alloc ~grow:(fun n -> Machine.reserve_code k.machine n)
    in
    Hashtbl.replace k.synth_arenas kind a;
    a

let footprint_words k =
  Hashtbl.fold (fun _ a acc -> acc + Kalloc.arena_total_words a) k.synth_arenas 0

let live_words k =
  Hashtbl.fold (fun _ a acc -> acc + Kalloc.arena_live_words a) k.synth_arenas 0

let tick k =
  k.synth_clock <- k.synth_clock + 1;
  k.synth_clock

(* ------------------------------------------------------------------ *)
(* Page bookkeeping *)

(* Return a dead page's storage to its arena and forget its record.
   [sp_refs] is the page's one refcount: a page some handle still
   holds is never freed. *)
let free_page k p =
  if p.sp_refs > 0 then invalid_arg "Ksynth.free_page: page still referenced";
  Kernel.drop_page k p;
  Kalloc.arena_free (arena_for k p.sp_kind) p.sp_entry

(* Remember an evicted page's key, so a later miss on it counts as
   resynthesis. *)
let remember_evicted k p =
  if
    Hashtbl.length k.evicted_keys >= evicted_cap
    && not (Hashtbl.mem k.evicted_keys p.sp_key)
  then begin
    (* bounded set: drop one (arbitrary) old key *)
    match
      Hashtbl.fold
        (fun key () acc -> match acc with None -> Some key | s -> s)
        k.evicted_keys None
    with
    | Some victim -> Hashtbl.remove k.evicted_keys victim
    | None -> ()
  end;
  Hashtbl.replace k.evicted_keys p.sp_key ()

(* Evict the least-recently-used unreferenced cached page of [kind];
   false when none qualifies (everything still has handles). *)
let evict_lru k kind =
  let victim =
    Hashtbl.fold
      (fun _ p best ->
        if p.sp_kind = kind && p.sp_refs = 0 && p.sp_cached && not p.sp_pinned
        then
          match best with
          | Some b when b.sp_stamp <= p.sp_stamp -> best
          | _ -> Some p
        else best)
      k.synth_cache None
  in
  match victim with
  | None -> false
  | Some p ->
    remember_evicted k p;
    Hashtbl.remove k.synth_cache p.sp_key;
    p.sp_cached <- false;
    free_page k p;
    Metrics.bump k.metrics Metrics.synth_cache_evictions;
    true

let rec enforce_cap k kind =
  match (Hashtbl.find_opt k.synth_caps kind, Hashtbl.find_opt k.synth_arenas kind) with
  | Some cap, Some a when Kalloc.arena_live_words a > cap ->
    if evict_lru k kind then enforce_cap k kind
  | _ -> ()

let set_cap k ~kind words =
  Hashtbl.replace k.synth_caps kind words;
  enforce_cap k kind

(* ------------------------------------------------------------------ *)
(* Full synthesis into an arena range *)

(* Record [len] instructions of [optimized] just installed at [entry]
   as a page, with one claim. *)
let record k ~key ~name ~kind ~entry ~len ~syms ~template ~points ~cached ~pinned
    optimized =
  let p =
    {
      sp_key = key;
      sp_name = name;
      sp_kind = kind;
      sp_entry = entry;
      sp_len = len;
      sp_body = optimized;
      sp_template = template;
      sp_syms = syms;
      sp_refs = 1;
      sp_stamp = tick k;
      sp_cached = cached;
      sp_pinned = pinned;
      sp_patches = [];
      sp_mutable = [];
      sp_checksum = 0;
      sp_probes = points;
    }
  in
  Kernel.add_page k p;
  p

(* Charge generation, install [optimized] at a fresh range of [kind]
   (every word a patchable slot) and record the page. *)
let place k ~key ~name ~kind ~template ~points ~cached optimized =
  let n = Asm.length optimized in
  Machine.charge k.machine (k.codegen_cycles_fixed + (n * k.codegen_cycles_per_insn));
  let entry = Kalloc.arena_alloc (arena_for k kind) n in
  let resolved, syms = Asm.resolve ~at:entry optimized in
  List.iteri (fun i insn -> Machine.patch_code k.machine (entry + i) insn) resolved;
  k.synthesized_insns <- k.synthesized_insns + n;
  record k ~key ~name ~kind ~entry ~len:n ~syms ~template ~points ~cached
    ~pinned:false optimized

let miss k ~name ~kind ~key ~template ~points optimized =
  Metrics.bump k.metrics Metrics.synth_cache_misses;
  if Hashtbl.mem k.evicted_keys key then begin
    Hashtbl.remove k.evicted_keys key;
    Metrics.bump k.metrics Metrics.synth_cache_resynth
  end;
  let p = place k ~key ~name ~kind ~template ~points ~cached:true optimized in
  (* a cached page under the same key holds other code (a hash
     collision): detach it, and free it if no handle holds it *)
  (match Hashtbl.find_opt k.synth_cache key with
  | Some old ->
    old.sp_cached <- false;
    if old.sp_refs = 0 then free_page k old
  | None -> ());
  Hashtbl.replace k.synth_cache key p;
  enforce_cap k kind;
  p

(* ------------------------------------------------------------------ *)
(* Copy-on-patch *)

(* Fork a private copy of [h]'s page: resynthesize its generator at a
   fresh arena range (full generation cost — a fork is a synthesis),
   carry the live patches and mutable-slot marks across, drop the
   claim on the source, repoint the handle. *)
let fork k h =
  let p = h.h_page in
  let optimized = Peephole.optimize (Template.instantiate p.sp_template) in
  let fp =
    place k ~key:(p.sp_key ^ "#fork") ~name:(p.sp_name ^ "#fork") ~kind:p.sp_kind
      ~template:p.sp_template ~points:p.sp_probes ~cached:false optimized
  in
  let delta = fp.sp_entry - p.sp_entry in
  List.iter
    (fun (addr, insn) -> Kernel.patch_code k (addr + delta) insn)
    (List.rev p.sp_patches);
  List.iter
    (fun addr -> Kernel.region_mark_mutable k ~addr:(addr + delta))
    p.sp_mutable;
  p.sp_refs <- p.sp_refs - 1;
  if p.sp_refs = 0 && (not p.sp_cached) && not p.sp_pinned then free_page k p;
  h.h_page <- fp

let patch k h ~off insn =
  if not h.h_live then invalid_arg "Ksynth.patch: released handle";
  if h.h_page.sp_refs > 1 then fork k h;
  Kernel.patch_code k (h.h_page.sp_entry + off) insn

(* ------------------------------------------------------------------ *)
(* The entry point *)

let release_page k p =
  if not p.sp_pinned then begin
    p.sp_refs <- max 0 (p.sp_refs - 1);
    if p.sp_refs = 0 then
      if not p.sp_cached then free_page k p
      else begin
        p.sp_stamp <- tick k;
        enforce_cap k p.sp_kind
      end
  end

(* A hit hands out code another instantiation built: its probe points
   are the same, but what they observe is this instantiation's (none
   if it bound none).  Code without probe points has none to rebind. *)
let rebind_probes k p ~code points =
  if List.exists (function Insn.Probe _ -> true | _ -> false) code then
    Kernel.set_region_probes k p points

let instantiate ?name ?kind ?(probes = []) k ~template =
  let name = match name with Some n -> n | None -> Template.id template in
  let kind = match kind with Some s -> s | None -> kind_of name in
  (* Instantiation and optimization are host-side and free in
     simulated cycles; only installing new code is charged.  Running
     them unconditionally is what lets the key see the body. *)
  let optimized = Peephole.optimize (Template.instantiate template) in
  let points = probe_points optimized probes in
  let key = key_of ~id:(Template.id template) (body_hash optimized) in
  let page =
    match Hashtbl.find_opt k.synth_cache key with
    | Some p when same_code p.sp_body optimized ->
      p.sp_refs <- p.sp_refs + 1;
      p.sp_stamp <- tick k;
      Machine.charge k.machine hit_cycles;
      Metrics.bump k.metrics Metrics.synth_cache_hits;
      rebind_probes k p ~code:optimized points;
      p
    | _ -> miss k ~name ~kind ~key ~template ~points optimized
  in
  { h_page = page; h_live = true }

(* Boot-time shared code: append-path (pinned pages are never
   recycled, so arena slots would be wasted on them), uncharged, and
   registered in the kernel's name directory. *)
let install ?(probes = []) k ~name insns =
  let optimized = Peephole.optimize insns in
  let points = probe_points optimized probes in
  let key = Printf.sprintf "!%s#%x" name (body_hash optimized) in
  match Hashtbl.find_opt k.synth_cache key with
  | Some p when same_code p.sp_body optimized ->
    p.sp_stamp <- tick k;
    Metrics.bump k.metrics Metrics.synth_cache_hits;
    rebind_probes k p ~code:optimized points;
    (p.sp_entry, p.sp_syms)
  | _ ->
    let entry, syms = Asm.assemble k.machine optimized in
    Hashtbl.replace k.shared name entry;
    (* the page's generator is a closed template over the optimized
       body *)
    let p =
      record k ~key ~name ~kind:"shared" ~entry ~len:(Asm.length optimized) ~syms
        ~template:(Template.make ~name (fun () -> optimized))
        ~points ~cached:true ~pinned:true optimized
    in
    Hashtbl.replace k.synth_cache key p;
    (entry, syms)

(* ------------------------------------------------------------------ *)
(* Named entries *)

let lookup k name =
  match Hashtbl.find_opt k.shared name with
  | Some a -> a
  | None -> invalid_arg ("Ksynth.lookup: unknown " ^ name)

(* ------------------------------------------------------------------ *)
(* Handles *)

let entry h = h.h_page.sp_entry
let sym h name = Asm.symbol h.h_page.sp_syms name
let refs h = h.h_page.sp_refs
let page h = h.h_page
let key h = h.h_page.sp_key

let release k h =
  if h.h_live then begin
    h.h_live <- false;
    release_page k h.h_page
  end

let release_entry k addr =
  match Hashtbl.find_opt k.page_index addr with
  | Some p -> release_page k p
  | None -> () (* code outside any page: nothing to release *)

(* ------------------------------------------------------------------ *)
(* Introspection *)

let stats k =
  {
    st_hits = Metrics.read k.metrics Metrics.synth_cache_hits;
    st_misses = Metrics.read k.metrics Metrics.synth_cache_misses;
    st_evictions = Metrics.read k.metrics Metrics.synth_cache_evictions;
    st_resynth = Metrics.read k.metrics Metrics.synth_cache_resynth;
    st_cached_pages = Hashtbl.length k.synth_cache;
    st_footprint_words = footprint_words k;
    st_live_words = live_words k;
  }
