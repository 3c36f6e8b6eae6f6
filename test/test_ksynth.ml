(* Ksynth tests: the memoizing synthesis cache behind the redesigned
   code-generation API — content-addressed hits, refcounts and release,
   copy-on-patch (refusal on shared pages, sole-owner detach, forking),
   the Kalloc shared-page free guard, LRU eviction with counted
   resynthesis, the page index against the page list, and a property
   pinning that
   evict/re-instantiate rebuilds byte-identical code with exactly-once
   side effects under forced-CAS storms. *)

open Quamachine
open Synthesis
module I = Insn

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A tiny synthesizable routine with one folded invariant and a
   CAS-guarded exactly-once increment: CAS cell 0->1 (retrying on
   forced failure), then bump the adjacent count cell. *)
let once_template ~cell =
  Template.make ~name:"prop_once" (fun () ->
      [
        I.Label "retry";
        I.Move (I.Imm 0, I.Reg I.r6);
        I.Move (I.Imm 1, I.Reg I.r7);
        I.Cas (I.r6, I.r7, I.Abs cell);
        I.B (I.Ne, I.To_label "retry");
        I.Alu_mem (I.Add, I.Imm 1, I.Abs (cell + 1));
        I.Move (I.Imm 0, I.Reg I.r0);
        I.Rts;
      ])

let run_call m ~entry () =
  let frag = [ I.Jsr (I.To_addr entry); I.Halt ] in
  let start, _ = Asm.assemble m frag in
  Machine.set_halted m false;
  Machine.set_supervisor m true;
  Machine.set_reg m I.sp 0xE00;
  Machine.set_pc m start;
  (match Machine.run ~max_insns:10_000 m with
  | Machine.Halted -> ()
  | Machine.Insn_limit ->
    failwith
      (Printf.sprintf "run_call: did not return (pc=%d sp=%d)" (Machine.get_pc m)
         (Machine.get_reg m I.sp)));
  Machine.get_reg m I.r0

(* ------------------------------------------------------------------ *)
(* Hits, refcounts, release *)

let test_hit_shares_page () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let before = (Ksynth.stats k).Ksynth.st_misses in
  let h1 =
    Ksynth.instantiate k ~name:"prop/once" ~template:(once_template ~cell)
  in
  let h2 =
    Ksynth.instantiate k ~name:"prop/once" ~template:(once_template ~cell)
  in
  check_int "same entry" (Ksynth.entry h1) (Ksynth.entry h2);
  check_int "two handles share one page" 2 (Ksynth.refs h1);
  check_int "one miss for two instantiations" (before + 1)
    (Ksynth.stats k).Ksynth.st_misses;
  check_bool "hits counted" true ((Ksynth.stats k).Ksynth.st_hits > 0);
  check_int "kalloc refcount mirrors"
    2
    (Kalloc.shared_refs k.Kernel.alloc ~base:(Ksynth.entry h1));
  Ksynth.release k h1;
  check_int "release drops the refcount" 1 (Ksynth.refs h2);
  Ksynth.release k h1;
  check_int "release is idempotent per handle" 1 (Ksynth.refs h2);
  Ksynth.release k h2;
  check_int "unreferenced page stays cached for the next hit" 0 (Ksynth.refs h2);
  let h3 =
    Ksynth.instantiate k ~name:"prop/once" ~template:(once_template ~cell)
  in
  check_int "warm re-instantiation reuses the page" (Ksynth.entry h2)
    (Ksynth.entry h3)

let test_distinct_invariants_distinct_pages () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let c1 = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let c2 = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let h1 =
    Ksynth.instantiate k ~name:"prop/once" ~template:(once_template ~cell:c1)
  in
  let h2 =
    Ksynth.instantiate k ~name:"prop/once" ~template:(once_template ~cell:c2)
  in
  check_bool "different invariants never share" true
    (Ksynth.entry h1 <> Ksynth.entry h2)

(* The key is the template id plus the optimized body.  Arguments that
   reach the body split pages; one the body ignores does not. *)
let test_key_follows_the_body () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let c1 = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let c2 = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let template ~cell ~spare:_ = once_template ~cell in
  let inst ~cell ~spare =
    Ksynth.instantiate k ~name:"prop/once" ~template:(template ~cell ~spare)
  in
  let misses () = (Ksynth.stats k).Ksynth.st_misses in
  let hits () = (Ksynth.stats k).Ksynth.st_hits in
  let h1 = inst ~cell:c1 ~spare:1 in
  let h2 = inst ~cell:c2 ~spare:1 in
  check_bool "a folded argument splits the page" true
    (Ksynth.entry h1 <> Ksynth.entry h2);
  let misses0 = misses () and hits0 = hits () in
  let h3 = inst ~cell:c1 ~spare:2 in
  check_int "an ignored argument shares the page" (Ksynth.entry h1)
    (Ksynth.entry h3);
  check_int "no miss" misses0 (misses ());
  check_int "one hit" (hits0 + 1) (hits ());
  check_int "two handles on the page" 2 (Ksynth.refs h1)

(* A hit compares the whole body, not just the key: forge a key
   collision by filing one body's unreferenced page under another
   body's key.  Instantiating that other body must build its own page
   and free the colliding one. *)
let test_hit_checks_the_body () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let c1 = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let c2 = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let inst ~cell =
    Ksynth.instantiate k ~name:"prop/once" ~template:(once_template ~cell)
  in
  let h1 = inst ~cell:c1 in
  let h2 = inst ~cell:c2 in
  let e1 = Ksynth.entry h1 in
  let key1 = Ksynth.key h1 and key2 = Ksynth.key h2 in
  (* forget the second body's page, keep the first one cached *)
  Ksynth.release k h2;
  Ksynth.set_cap k ~kind:"prop" 0;
  Ksynth.set_cap k ~kind:"prop" max_int;
  Ksynth.release k h1;
  let cache = k.Kernel.synth_cache in
  Hashtbl.replace cache key2 (Hashtbl.find cache key1);
  Hashtbl.remove cache key1;
  let misses0 = (Ksynth.stats k).Ksynth.st_misses in
  let h3 = inst ~cell:c2 in
  check_bool "a colliding key with another body does not share" true
    (Ksynth.entry h3 <> e1);
  check_int "it is a miss" (misses0 + 1) (Ksynth.stats k).Ksynth.st_misses;
  check_bool "the colliding page is freed" true
    (Option.is_none (Kernel.find_region k e1))

(* ------------------------------------------------------------------ *)
(* Copy-on-patch *)

let test_patch_refuses_shared_page () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let h1 =
    Ksynth.instantiate k ~name:"prop/once" ~template:(once_template ~cell)
  in
  let _h2 =
    Ksynth.instantiate k ~name:"prop/once" ~template:(once_template ~cell)
  in
  check_bool "raw patch of a shared page refuses" true
    (try
       Kernel.patch_code k (Ksynth.entry h1) (I.Move (I.Imm 9, I.Reg I.r0));
       false
     with Invalid_argument _ -> true)

let test_sole_owner_patch_detaches () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let h1 =
    Ksynth.instantiate k ~name:"prop/once" ~template:(once_template ~cell)
  in
  let e1 = Ksynth.entry h1 in
  Kernel.patch_code k e1 (I.Move (I.Imm 0, I.Reg I.r6));
  (* patched content must not be served to a fresh instantiation *)
  let h2 =
    Ksynth.instantiate k ~name:"prop/once" ~template:(once_template ~cell)
  in
  check_bool "detached page is not served again" true (Ksynth.entry h2 <> e1)

(* Find the offset of an instruction inside a page. *)
let find_off m ~entry ~len insn =
  let rec go i =
    if i >= len then Alcotest.fail "instruction not found in page"
    else if Machine.read_code m (entry + i) = insn then i
    else go (i + 1)
  in
  go 0

let test_patch_forks_private_copy () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let h1 =
    Ksynth.instantiate k ~name:"prop/once" ~template:(once_template ~cell)
  in
  let h2 =
    Ksynth.instantiate k ~name:"prop/once" ~template:(once_template ~cell)
  in
  let e1 = Ksynth.entry h1 in
  let len = (Ksynth.page h1).Kernel.sp_len in
  let off = find_off m ~entry:e1 ~len (I.Move (I.Imm 0, I.Reg I.r0)) in
  Ksynth.patch k h2 ~off (I.Move (I.Imm 42, I.Reg I.r0));
  check_bool "patch forked a private copy" true (Ksynth.entry h2 <> e1);
  check_int "source refcount back to one" 1 (Ksynth.refs h1);
  check_int "fork refcount is one" 1 (Ksynth.refs h2);
  check_int "unpatched page returns 0" 0 (run_call m ~entry:e1 ());
  (* the CAS-guarded cell is one-shot: rearm it for the second run *)
  Machine.poke m cell 0;
  check_int "forked page returns 42" 42 (run_call m ~entry:(Ksynth.entry h2) ());
  (* the fork ran its CAS path: reset and confirm exactly-once *)
  check_int "exactly one increment per successful run" 2
    (Machine.peek m (cell + 1))

(* ------------------------------------------------------------------ *)
(* Kalloc shared-page guard (regression) *)

let test_free_refuses_shared_code_page () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let h =
    Ksynth.instantiate k ~name:"prop/once" ~template:(once_template ~cell)
  in
  let entry = Ksynth.entry h in
  check_bool "Kalloc.free refuses a live shared code address" true
    (try
       Kalloc.free k.Kernel.alloc (entry + 1);
       false
     with Kalloc.Shared_page _ -> true)

(* ------------------------------------------------------------------ *)
(* Eviction and resynthesis *)

let test_evict_and_resynthesize () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let inst () =
    Ksynth.instantiate k ~name:"prop/once" ~template:(once_template ~cell)
  in
  let h = inst () in
  let e = Ksynth.entry h in
  let key = Ksynth.key h in
  Ksynth.release k h;
  let s0 = Ksynth.stats k in
  (* a zero budget for this kind evicts every unreferenced page *)
  Ksynth.set_cap k ~kind:"prop" 0;
  let s1 = Ksynth.stats k in
  check_int "page evicted" (s0.Ksynth.st_evictions + 1) s1.Ksynth.st_evictions;
  (* the template is the generator: instantiating it again rebuilds
     the evicted page *)
  let h2 = inst () in
  check_bool "resynthesis rebuilds the evicted key" true (Ksynth.key h2 = key);
  check_int "resynthesis reuses the recycled arena range" e (Ksynth.entry h2);
  Ksynth.release k h2;
  let s2 = Ksynth.stats k in
  check_int "resynthesis counted" (s1.Ksynth.st_resynth + 1) s2.Ksynth.st_resynth;
  check_int "resynthesis is also a miss" (s1.Ksynth.st_misses + 1)
    s2.Ksynth.st_misses

(* The page list and the address index describe the same pages: after
   churn under a cap and a fork, [find_region] answers every address of
   every live page with that page, and nothing in a freed range. *)
let test_find_region_matches_pages () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let ranges = ref [] in
  let note h =
    let p = Ksynth.page h in
    ranges := (p.Kernel.sp_entry, p.Kernel.sp_len) :: !ranges
  in
  Ksynth.set_cap k ~kind:"churn" 16;
  for v = 1 to 40 do
    let h =
      Ksynth.instantiate k
        ~template:
          (Template.make ~name:"churn/decoy" (fun () ->
               [ I.Move (I.Imm v, I.Reg I.r0); I.Rts ]))
    in
    note h;
    Ksynth.release k h
  done;
  let inst () =
    Ksynth.instantiate k ~name:"prop/once" ~template:(once_template ~cell)
  in
  let h1 = inst () in
  let h2 = inst () in
  let e1 = Ksynth.entry h1 in
  let off =
    find_off m ~entry:e1 ~len:(Ksynth.page h1).Kernel.sp_len
      (I.Move (I.Imm 0, I.Reg I.r0))
  in
  Ksynth.patch k h2 ~off (I.Move (I.Imm 7, I.Reg I.r0));
  check_bool "patch forked" true (Ksynth.entry h2 <> e1);
  note h1;
  note h2;
  (* the fork's only handle goes: its range is freed *)
  Ksynth.release k h2;
  let pages = Kernel.pages k in
  List.iter
    (fun p ->
      for a = p.Kernel.sp_entry to p.Kernel.sp_entry + p.Kernel.sp_len - 1 do
        match Kernel.find_region k a with
        | Some q when q == p -> ()
        | _ -> Alcotest.failf "find_region disagrees at %d (page %s)" a p.Kernel.sp_name
      done)
    pages;
  let live a =
    List.exists
      (fun p -> a >= p.Kernel.sp_entry && a < p.Kernel.sp_entry + p.Kernel.sp_len)
      pages
  in
  let freed = ref 0 in
  List.iter
    (fun (entry, len) ->
      for a = entry to entry + len - 1 do
        if not (live a) then begin
          incr freed;
          if Option.is_some (Kernel.find_region k a) then
            Alcotest.failf "find_region finds a page at freed address %d" a
        end
      done)
    !ranges;
  check_bool "churn and the fork freed some range" true (!freed > 0)

(* ------------------------------------------------------------------ *)
(* Property: instantiate -> patch(fork) -> evict -> re-instantiate is
   exact — the rebuilt store hashes identically (same content at the
   same recycled addresses) and the CAS-guarded side effect stays
   exactly-once per run under a forced-CAS-failure storm. *)

let prop_rebuild_exact_under_storm =
  QCheck.Test.make ~count:20
    ~name:"evict/re-instantiate exact under forced-CAS storm"
    (QCheck.make QCheck.Gen.(int_bound 0xFFFF) ~print:string_of_int)
    (fun salt ->
      let b = Boot.boot () in
      let k = b.Boot.kernel in
      let m = k.Kernel.machine in
      let cell = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
      let ok = ref true in
      let expect cond = if not cond then ok := false in
      let storm i =
        if (not (Machine.cas_fail_armed m)) && (salt + i) land 3 <> 0 then
          Machine.set_cas_fail m
            ~at:(Machine.cas_executed m + 1 + ((salt lxor i) land 1))
            ~hook:(fun _ -> ())
      in
      let run_once i entry =
        Machine.poke m cell 0;
        storm i;
        let before = Machine.peek m (cell + 1) in
        ignore (run_call m ~entry ());
        expect (Machine.peek m (cell + 1) = before + 1)
      in
      let inst () =
        Ksynth.instantiate k ~name:"prop/once" ~template:(once_template ~cell)
      in
      let h1 = inst () in
      let e1 = Ksynth.entry h1 in
      let hash1 = Kernel.code_state_hash k in
      run_once 0 e1;
      (* fork a patched private copy, exercise it, drop it *)
      let h2 = inst () in
      let len = (Ksynth.page h1).Kernel.sp_len in
      let off = find_off m ~entry:e1 ~len (I.Move (I.Imm 0, I.Reg I.r0)) in
      Ksynth.patch k h2 ~off (I.Move (I.Imm 1, I.Reg I.r0));
      run_once 1 (Ksynth.entry h2);
      Ksynth.release k h2;
      (* evict the original, then rebuild it *)
      Ksynth.release k h1;
      Ksynth.set_cap k ~kind:"prop" 0;
      let h3 = inst () in
      expect (Ksynth.entry h3 = e1);
      expect (Kernel.code_state_hash k = hash1);
      run_once 2 (Ksynth.entry h3);
      expect (Kernel.audit_code k = 0);
      !ok)

(* ------------------------------------------------------------------ *)

(* kserve's accept path leans on the cache: opening and closing 100
   connections must reuse the recycled slots' cached service pages —
   the arena footprint and the code_bytes_peak gauge stay exactly
   where the warmup left them, and the cache serves every warm
   accept. *)
let test_serve_connection_churn_no_leak () =
  let boot = Boot.boot () in
  let srv = Kserve.create boot in
  let k = Kserve.kernel srv in
  let cfg = Kserve.config srv in
  let nfiles = cfg.Kserve.cfg_files in
  let cycle conn =
    let r = Kserve.host_accept srv ~conn ~file:(conn mod nfiles) in
    check_bool "open accepted" true (Kserve.msg_op r <> Kserve.op_err);
    Kserve.host_close srv ~slot:(Kserve.msg_id r)
  in
  (* warmup: one synthesis per (slot, file) pairing in this pattern *)
  for c = 0 to nfiles - 1 do
    cycle c
  done;
  let footprint () = (Ksynth.stats k).Ksynth.st_footprint_words in
  let peak () = Metrics.gauge_value (Metrics.gauge k.Kernel.metrics Metrics.code_bytes_peak) in
  let fp0 = footprint () and peak0 = peak () in
  let hits0 = (Ksynth.stats k).Ksynth.st_hits in
  let live0 = (Ksynth.stats k).Ksynth.st_live_words in
  for c = 0 to 99 do
    cycle c
  done;
  check_int "arena footprint flat across 100 open/close cycles" fp0 (footprint ());
  Alcotest.(check (float 0.0)) "code_bytes_peak gauge flat" peak0 (peak ());
  check_int "every churned accept was a cache hit" (hits0 + 100)
    (Ksynth.stats k).Ksynth.st_hits;
  check_int "live words flat (no detached copies accumulating)" live0
    (Ksynth.stats k).Ksynth.st_live_words

let () =
  Alcotest.run "ksynth"
    [
      ( "cache",
        [
          Alcotest.test_case "hit shares the page" `Quick test_hit_shares_page;
          Alcotest.test_case "distinct invariants, distinct pages" `Quick
            test_distinct_invariants_distinct_pages;
          Alcotest.test_case "key follows the body" `Quick test_key_follows_the_body;
          Alcotest.test_case "a hit checks the body" `Quick test_hit_checks_the_body;
        ] );
      ( "copy-on-patch",
        [
          Alcotest.test_case "patch refuses a shared page" `Quick
            test_patch_refuses_shared_page;
          Alcotest.test_case "sole-owner patch detaches" `Quick
            test_sole_owner_patch_detaches;
          Alcotest.test_case "patch forks a private copy" `Quick
            test_patch_forks_private_copy;
        ] );
      ( "kalloc guard",
        [
          Alcotest.test_case "free refuses a shared code page" `Quick
            test_free_refuses_shared_code_page;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "evict then resynthesize" `Quick
            test_evict_and_resynthesize;
          Alcotest.test_case "find_region matches the page list" `Quick
            test_find_region_matches_pages;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_rebuild_exact_under_storm ] );
      ( "serve-churn",
        [
          Alcotest.test_case "100 open/close cycles leak nothing" `Quick
            test_serve_connection_churn_no_leak;
        ] );
    ]
