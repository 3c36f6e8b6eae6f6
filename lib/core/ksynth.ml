(* ksynth: the memoizing synthesis cache.

   The cache sits between the templates and the raw synthesis engine
   in [Kernel]: keys are content-addressed (template id + sorted
   invariants + a hash of the optimized body), so two instantiations
   share a page exactly when the code they would generate is
   byte-identical — templates that close over host state (pipe
   records, scheduling gauges) disambiguate themselves through the
   body hash without any per-site annotations.  Probe points are not
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
   budgets) records the page's generator as a recipe; a later miss on
   the same key is resynthesis — kheal's repair discipline applied to
   deliberate forgetting. *)

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

(* Recipes of evicted pages are bounded: a workload that churns
   through unbounded distinct keys must not grow an unbounded table. *)
let recipe_cap = 512

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

let key_of ~id ~env h =
  Printf.sprintf "%s|%s#%x" id
    (String.concat ";"
       (List.map
          (fun (p, v) -> p ^ "=" ^ string_of_int v)
          (List.sort compare env)))
    h

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
      Kalloc.arena k.alloc ~name:kind ~chunk:Layout.synth_chunk_words
        ~grow:(fun n -> Machine.reserve_code k.machine n)
        ()
    in
    Hashtbl.replace k.synth_arenas kind a;
    a

let footprint_words k =
  Hashtbl.fold (fun _ a acc -> acc + Kalloc.arena_total_words a) k.synth_arenas 0

let live_words k =
  Hashtbl.fold (fun _ a acc -> acc + Kalloc.arena_live_words a) k.synth_arenas 0

let note_peak k =
  let bytes = float_of_int (4 * footprint_words k) in
  let g = Metrics.gauge k.metrics Metrics.code_bytes_peak in
  if bytes > Metrics.gauge_value g then Metrics.set_gauge g bytes

let tick k =
  k.synth_clock <- k.synth_clock + 1;
  k.synth_clock

(* ------------------------------------------------------------------ *)
(* Page bookkeeping *)

let index_page k p =
  for a = p.sp_entry to p.sp_entry + p.sp_len - 1 do
    Hashtbl.replace k.page_index a p
  done

let deindex_page k p =
  for a = p.sp_entry to p.sp_entry + p.sp_len - 1 do
    Hashtbl.remove k.page_index a
  done

(* Return a dead page's storage to its arena and forget its records
   (its recipe, if evicted, survives in [synth_evicted]). *)
let free_page k p =
  deindex_page k p;
  Kernel.unregister_region k ~entry:p.sp_entry;
  Kalloc.unshare k.alloc ~base:p.sp_entry;
  Kalloc.arena_free (arena_for k p.sp_kind) p.sp_entry

(* Remember an evicted page's generator so a later miss on the same
   key resynthesizes instead of building cold. *)
let record_recipe k p =
  match Kernel.find_region k p.sp_entry with
  | None -> ()
  | Some r ->
    if
      Hashtbl.length k.synth_evicted >= recipe_cap
      && not (Hashtbl.mem k.synth_evicted p.sp_key)
    then begin
      (* bounded table: drop one (arbitrary) old recipe *)
      match
        Hashtbl.fold
          (fun key _ acc -> match acc with None -> Some key | s -> s)
          k.synth_evicted None
      with
      | Some victim -> Hashtbl.remove k.synth_evicted victim
      | None -> ()
    end;
    Hashtbl.replace k.synth_evicted p.sp_key
      {
        rc_name = p.sp_name;
        rc_kind = p.sp_kind;
        rc_template = r.cr_template;
        rc_env = r.cr_env;
        rc_probes = r.cr_probes;
      }

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
    record_recipe k p;
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
(* Miss path: full synthesis into an arena range *)

let miss k ~name ~kind ~key ~template ~env ~points optimized =
  let n = Asm.length optimized in
  Machine.charge k.machine (k.codegen_cycles_fixed + (n * k.codegen_cycles_per_insn));
  Metrics.bump k.metrics Metrics.synth_cache_misses;
  (match Hashtbl.find_opt k.synth_evicted key with
  | Some _ ->
    Hashtbl.remove k.synth_evicted key;
    Metrics.bump k.metrics Metrics.synth_cache_resynth
  | None -> ());
  let entry = Kalloc.arena_alloc (arena_for k kind) n in
  let syms =
    Kernel.install_at ~probes:points k ~name ~at:entry ~template ~env optimized
  in
  let p =
    {
      sp_key = key;
      sp_name = name;
      sp_kind = kind;
      sp_entry = entry;
      sp_len = n;
      sp_syms = syms;
      sp_refs = 1;
      sp_hits = 0;
      sp_stamp = tick k;
      sp_cached = true;
      sp_pinned = false;
    }
  in
  Kalloc.share k.alloc ~base:entry ~len:n;
  index_page k p;
  (* key collision with a live page can only follow a hash collision;
     detach the old page rather than orphan the new one *)
  (match Hashtbl.find_opt k.synth_cache key with
  | Some old -> old.sp_cached <- false
  | None -> ());
  Hashtbl.replace k.synth_cache key p;
  note_peak k;
  enforce_cap k kind;
  p

(* ------------------------------------------------------------------ *)
(* Copy-on-patch *)

(* Fork a private copy of [h]'s page: resynthesize the region's
   generator at a fresh arena range (full generation cost — a fork is
   a synthesis), carry the live patches and mutable-slot marks across,
   drop the claim on the source, repoint the handle. *)
let fork k h =
  let p = h.h_page in
  let r =
    match Kernel.find_region k p.sp_entry with
    | Some r -> r
    | None -> invalid_arg ("Ksynth.patch: no region for page " ^ p.sp_name)
  in
  let optimized =
    Peephole.optimize (Template.instantiate r.cr_template ~env:r.cr_env)
  in
  let n = Asm.length optimized in
  Machine.charge k.machine (k.codegen_cycles_fixed + (n * k.codegen_cycles_per_insn));
  let entry = Kalloc.arena_alloc (arena_for k p.sp_kind) n in
  let name = p.sp_name ^ "#fork" in
  let syms =
    Kernel.install_at ~probes:r.cr_probes k ~name ~at:entry
      ~template:r.cr_template ~env:r.cr_env optimized
  in
  let fp =
    {
      p with
      sp_key = p.sp_key ^ "#fork";
      sp_name = name;
      sp_entry = entry;
      sp_len = n;
      sp_syms = syms;
      sp_refs = 1;
      sp_hits = 0;
      sp_stamp = tick k;
      sp_cached = false;
      sp_pinned = false;
    }
  in
  Kalloc.share k.alloc ~base:entry ~len:n;
  index_page k fp;
  let delta = entry - p.sp_entry in
  List.iter
    (fun (addr, insn) -> Kernel.patch_code k (addr + delta) insn)
    (List.rev r.cr_patches);
  List.iter
    (fun addr -> Kernel.region_mark_mutable k ~addr:(addr + delta))
    r.cr_mutable;
  note_peak k;
  p.sp_refs <- p.sp_refs - 1;
  ignore (Kalloc.release k.alloc ~base:p.sp_entry);
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
    ignore (Kalloc.release k.alloc ~base:p.sp_entry);
    if p.sp_refs = 0 then
      if not p.sp_cached then free_page k p
      else begin
        p.sp_stamp <- tick k;
        enforce_cap k p.sp_kind
      end
  end

(* A hit hands out code another instantiation built: its probe points
   are the same, but what they observe is this instantiation's (none
   if it bound none).  Code without probe points has none to rebind,
   which spares the common hit a region lookup. *)
let rebind_probes k p ~code points =
  if List.exists (function Insn.Probe _ -> true | _ -> false) code then
    Option.iter
      (fun r -> Kernel.set_region_probes k r points)
      (Kernel.find_region k p.sp_entry)

let instantiate ?name ?kind ?(patches = []) ?(probes = []) k ~template
    ~invariants =
  let name = match name with Some n -> n | None -> Template.id template in
  let kind = match kind with Some s -> s | None -> kind_of name in
  (* Instantiation and optimization are host-side and free in
     simulated cycles; only installing new code is charged.  Running
     them unconditionally is what lets the key see the body. *)
  let optimized =
    Peephole.optimize (Template.instantiate template ~env:invariants)
  in
  let points = Kernel.probe_points optimized probes in
  let key = key_of ~id:(Template.id template) ~env:invariants (body_hash optimized) in
  let page =
    match Hashtbl.find_opt k.synth_cache key with
    | Some p when p.sp_len = Asm.length optimized ->
      p.sp_refs <- p.sp_refs + 1;
      ignore (Kalloc.retain k.alloc ~base:p.sp_entry);
      p.sp_hits <- p.sp_hits + 1;
      p.sp_stamp <- tick k;
      Machine.charge k.machine hit_cycles;
      Metrics.bump k.metrics Metrics.synth_cache_hits;
      rebind_probes k p ~code:optimized points;
      p
    | _ -> miss k ~name ~kind ~key ~template ~env:invariants ~points optimized
  in
  let h = { h_page = page; h_live = true } in
  List.iter (fun (off, insn) -> patch k h ~off insn) patches;
  h

(* Boot-time shared code: append-path (pinned pages are never
   recycled, so arena slots would be wasted on them), uncharged, and
   registered in the kernel's name directory. *)
let install ?(probes = []) k ~name insns =
  let optimized = Peephole.optimize insns in
  let points = Kernel.probe_points optimized probes in
  let key = Printf.sprintf "!%s#%x" name (body_hash optimized) in
  match Hashtbl.find_opt k.synth_cache key with
  | Some p ->
    p.sp_hits <- p.sp_hits + 1;
    p.sp_stamp <- tick k;
    Metrics.bump k.metrics Metrics.synth_cache_hits;
    rebind_probes k p ~code:optimized points;
    (p.sp_entry, p.sp_syms)
  | None ->
    let n = Asm.length optimized in
    let entry, syms = Asm.assemble k.machine optimized in
    Hashtbl.replace k.shared name entry;
    (* no run-time invariants: the region's generator is a closed
       template over the optimized body *)
    Kernel.register_region ~probes:points k ~name ~entry ~len:n
      ~template:(Template.make ~name ~params:[] (fun _ -> optimized))
      ~env:[];
    let p =
      {
        sp_key = key;
        sp_name = name;
        sp_kind = "shared";
        sp_entry = entry;
        sp_len = n;
        sp_syms = syms;
        sp_refs = 1;
        sp_hits = 0;
        sp_stamp = tick k;
        sp_cached = true;
        sp_pinned = true;
      }
    in
    Kalloc.share k.alloc ~base:entry ~len:n;
    index_page k p;
    Hashtbl.replace k.synth_cache key p;
    (entry, syms)

(* ------------------------------------------------------------------ *)
(* Named entries *)

let lookup k name =
  match Hashtbl.find_opt k.shared name with
  | Some a -> a
  | None -> invalid_arg ("Ksynth.lookup: unknown " ^ name)

let register k ~name entry = Hashtbl.replace k.shared name entry
let mem k name = Hashtbl.mem k.shared name

(* ------------------------------------------------------------------ *)
(* Handles *)

let entry h = h.h_page.sp_entry
let syms h = h.h_page.sp_syms
let sym h name = Asm.symbol h.h_page.sp_syms name
let refs h = h.h_page.sp_refs
let name h = h.h_page.sp_name
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
  | None -> () (* append-path or pinned-adjacent code: nothing to release *)

(* ------------------------------------------------------------------ *)
(* Resynthesis from recipes *)

let revive k key =
  match Hashtbl.find_opt k.synth_evicted key with
  | None -> None
  | Some rc ->
    let h =
      instantiate k ~name:rc.rc_name ~kind:rc.rc_kind ~template:rc.rc_template
        ~invariants:rc.rc_env
    in
    Option.iter (fun r -> Kernel.set_region_probes k r rc.rc_probes)
      (Kernel.find_region k (entry h));
    Some h

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
