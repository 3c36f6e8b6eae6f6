(* kcrash tests: power-cut device behavior, barrier ordering in the
   elevator, the LRU cache + dirty write-back against a naive model
   disk, and the crash-consistency litmus families — both the
   positive runs (barriers + intent log hold) and the committed
   repros showing each litmus fails with its mechanism disabled. *)

open Quamachine
open Synthesis
module I = Insn
module E = Repro_harness.Explorer

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bwords = Disk_server.block_words

let setup ?cache_capacity ?timeout_us () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let ds = Disk_server.install k ?cache_capacity ?timeout_us () in
  Boot.park_on_idle k;
  (b, k, ds)

(* ---------------------------------------------------------------- *)
(* Power-cut device behavior *)

let test_power_cut_torn_write () =
  let _b, k, ds = setup () in
  let m = k.Kernel.machine in
  let disk = k.Kernel.disk in
  Devices.Disk.write_block disk 5 (Array.init bwords (fun i -> 5000 + i));
  (match Disk_server.read_block_sync ds 5 ~max_insns:10_000_000 with
  | None -> Alcotest.fail "block 5 never arrived"
  | Some buf ->
    for i = 0 to bwords - 1 do
      Machine.poke m (buf + i) (7000 + i)
    done;
    Disk_server.mark_dirty ds 5);
  ignore (Disk_server.flush ds ());
  (* the write-back is pending at the device; the cut lands its first
     8 words and loses the rest — the prefix-torn sector model *)
  Machine.power_cut m ~device:"disk" ~torn_words:8;
  check_bool "power off" false (Devices.Disk.powered disk);
  let blk = Devices.Disk.read_block disk 5 in
  for i = 0 to 7 do
    check_int (Fmt.str "torn word %d (new)" i) (7000 + i) blk.(i)
  done;
  for i = 8 to bwords - 1 do
    check_int (Fmt.str "word %d (old)" i) (5000 + i) blk.(i)
  done

let test_power_cut_drops_whole_write () =
  let _b, k, ds = setup () in
  let m = k.Kernel.machine in
  let disk = k.Kernel.disk in
  Devices.Disk.write_block disk 6 (Array.init bwords (fun i -> 600 + i));
  (match Disk_server.read_block_sync ds 6 ~max_insns:10_000_000 with
  | None -> Alcotest.fail "block 6 never arrived"
  | Some buf ->
    Machine.poke m buf 31337;
    Disk_server.mark_dirty ds 6);
  ignore (Disk_server.flush ds ());
  Machine.power_cut k.Kernel.machine ~device:"disk" ~torn_words:(-1);
  let blk = Devices.Disk.read_block disk 6 in
  check_int "whole write lost, old data intact" 600 blk.(0)

let test_sync_timeout_then_reawait () =
  let _b, k, ds = setup () in
  let disk = k.Kernel.disk in
  Devices.Disk.write_block disk 7 (Array.init bwords (fun i -> 700 + i));
  (* a budget far too small for the transfer latency: the sync read
     gives up, counts the timeout, and leaves the request in flight *)
  (match Disk_server.read_block_sync ds 7 ~max_insns:3 with
  | Some _ -> Alcotest.fail "read completed in 3 instructions"
  | None -> ());
  check_int "sync timeout counted" 1
    (Metrics.read k.Kernel.metrics "disk.sync_timeouts");
  (* same block again: joins the same transfer instead of issuing a
     second one *)
  (match Disk_server.read_block_sync ds 7 ~max_insns:10_000_000 with
  | None -> Alcotest.fail "re-await never completed"
  | Some buf ->
    let m = k.Kernel.machine in
    check_int "word 0" 700 (Machine.peek m buf);
    check_int "last word" (700 + bwords - 1)
      (Machine.peek m (buf + bwords - 1)));
  let _hits, misses = Disk_server.stats ds in
  check_int "one miss: re-await did not double-issue" 1 misses

let test_dead_device_fails_cleanly_then_recovers () =
  let _b, k, ds = setup () in
  let disk = k.Kernel.disk in
  Devices.Disk.write_block disk 9 (Array.init bwords (fun i -> 900 + i));
  Machine.power_cut k.Kernel.machine ~device:"disk" ~torn_words:(-1);
  (* the fill command is swallowed by the dead device; the completion
     watchdog retries with backoff, then fails the request — the
     waiter wakes with an error instead of wedging forever *)
  (match Disk_server.read_block_sync ds 9 ~max_insns:10_000_000 with
  | Some _ -> Alcotest.fail "read completed against a dead device"
  | None -> ());
  check_bool "bounded retry gave up" true
    (Metrics.read k.Kernel.metrics "disk.failed" >= 1);
  check_bool "watchdog retried first" true
    (Metrics.read k.Kernel.metrics "disk.retries" >= 1);
  (* power restored: the failed fill dropped its cache slot, so a
     fresh read issues cleanly and completes *)
  Devices.Disk.power_on disk;
  (match Disk_server.read_block_sync ds 9 ~max_insns:50_000_000 with
  | None -> Alcotest.fail "read never completed after power_on"
  | Some buf ->
    let m = k.Kernel.machine in
    check_int "word 0" 900 (Machine.peek m buf);
    check_int "last word" (900 + bwords - 1)
      (Machine.peek m (buf + bwords - 1)))

(* ---------------------------------------------------------------- *)
(* Barrier ordering in the elevator *)

let submit_write k ds blk =
  let buf = Kalloc.alloc k.Kernel.alloc bwords in
  ignore (Disk_server.submit ds ~block:blk ~buffer:buf ~write:true ())

let pos order blk =
  let rec go i = function
    | [] -> Alcotest.failf "block %d never serviced" blk
    | b :: _ when b = blk -> i
    | _ :: tl -> go (i + 1) tl
  in
  go 0 order

let test_barrier_fences_elevator () =
  let _b, k, ds = setup () in
  (* without the fence the elevator would sort 10 < 20 < 30; the
     barrier pins 20 after both earlier submissions *)
  submit_write k ds 30;
  submit_write k ds 10;
  Disk_server.barrier ds;
  submit_write k ds 20;
  check_bool "drained" true (Disk_server.drain ds ~max_insns:50_000_000);
  let order = Disk_server.service_order ds in
  check_bool
    (Fmt.str "20 after 30 and 10 (got %a)" Fmt.(Dump.list int) order)
    true
    (pos order 20 > pos order 30 && pos order 20 > pos order 10);
  check_bool "fence counted" true
    (Metrics.read k.Kernel.metrics "disk.barriers" >= 1)

let test_barrier_request_private_epoch () =
  let _b, k, ds = setup () in
  let buf = Kalloc.alloc k.Kernel.alloc bwords in
  submit_write k ds 40;
  submit_write k ds 10;
  ignore (Disk_server.submit ds ~barrier:true ~block:25 ~buffer:buf ~write:true ());
  submit_write k ds 20;
  submit_write k ds 35;
  check_bool "drained" true (Disk_server.drain ds ~max_insns:50_000_000);
  let order = Disk_server.service_order ds in
  let p = pos order in
  check_bool
    (Fmt.str "25 strictly between epochs (got %a)" Fmt.(Dump.list int) order)
    true
    (p 25 > p 40 && p 25 > p 10 && p 25 < p 20 && p 25 < p 35)

(* ---------------------------------------------------------------- *)
(* LRU cache + dirty write-back vs a naive model disk *)

(* Random op sequences over 8 blocks through a 4-slot cache (so
   eviction write-back runs constantly), mirrored into a host-side
   model: every read must return exactly the model contents, and
   after a final flush + drain the platter must equal the model. *)
let prop_cache_matches_model =
  QCheck.Test.make ~count:15 ~name:"cache + write-back matches model disk"
    QCheck.(
      list_of_size
        Gen.(int_range 1 40)
        (quad (int_bound 2) (int_bound 7) (int_bound (bwords - 1))
           (int_bound 9999)))
    (fun ops ->
      let _b, k, ds = setup ~cache_capacity:4 () in
      let m = k.Kernel.machine in
      let disk = k.Kernel.disk in
      let model =
        Array.init 8 (fun blk ->
            Array.init bwords (fun i -> ((blk * 1000) + i) land 0xFFFF))
      in
      Array.iteri
        (fun blk data -> Devices.Disk.write_block disk blk (Array.copy data))
        model;
      let read blk =
        match Disk_server.read_block_sync ds blk ~max_insns:10_000_000 with
        | Some buf -> buf
        | None -> QCheck.Test.fail_reportf "block %d never arrived" blk
      in
      List.iter
        (fun (tag, blk, idx, v) ->
          match tag with
          | 0 ->
            let buf = read blk in
            for i = 0 to bwords - 1 do
              if Machine.peek m (buf + i) <> model.(blk).(i) then
                QCheck.Test.fail_reportf
                  "read of block %d word %d: got %d, model %d" blk i
                  (Machine.peek m (buf + i))
                  model.(blk).(i)
            done
          | 1 ->
            let buf = read blk in
            Machine.poke m (buf + idx) v;
            Disk_server.mark_dirty ds blk;
            model.(blk).(idx) <- v
          | _ -> ignore (Disk_server.flush ds ~barrier:true ()))
        ops;
      ignore (Disk_server.flush ds ~barrier:true ());
      if not (Disk_server.drain ds ~max_insns:100_000_000) then
        QCheck.Test.fail_report "pipeline never drained";
      Array.iteri
        (fun blk data ->
          let platter = Devices.Disk.read_block disk blk in
          Array.iteri
            (fun i v ->
              if platter.(i) <> v then
                QCheck.Test.fail_reportf
                  "platter block %d word %d: got %d, model %d" blk i
                  platter.(i) v)
            data)
        model;
      true)

(* ---------------------------------------------------------------- *)
(* Crash-consistency litmus families *)

(* With every mechanism on, a clean verdict also requires the
   enumerator's health checks: a torn variant explored, the live power
   cut fired, the intent log replayed. *)
let test_litmus_holds_with_mechanisms () =
  List.iter
    (fun fam ->
      let r = E.run_subject (E.crash_subject fam) ~seed:1 () in
      Alcotest.(check (list string))
        (r.E.s_subject ^ " litmus") [] r.E.s_violations;
      check_bool "explored crash states" true (r.E.s_progress > 2);
      check_int "explored every enumerated state" r.E.s_goal r.E.s_progress)
    E.crash_families

(* Committed repros: each family must FAIL with its load-bearing
   mechanism disabled — otherwise the mechanism is dead weight and
   the litmus proves nothing.  The subject's sabotage lever is exactly
   that switch. *)

let sabotaged fam = E.run_subject ~sabotage:true (E.crash_subject fam) ~seed:1 ()

let test_repro_barriers_off () =
  List.iter
    (fun fam ->
      let r = sabotaged fam in
      check_bool
        (r.E.s_subject ^ " violates without write barriers")
        true
        (r.E.s_violations <> []))
    [ E.Create_rename; E.Prefix_append ]

let test_repro_journal_off () =
  let r = sabotaged E.Replace in
  check_bool "replace tears without the intent log" true
    (r.E.s_violations <> [])

let test_recovery_replays_counted () =
  (* at least one enumerated crash state lands inside the commit
     window, so the intent log must replay; a run where it never does
     reports a health violation *)
  List.iter
    (fun seed ->
      let r = E.run_subject (E.crash_subject E.Replace) ~seed () in
      Alcotest.(check (list string))
        (Fmt.str "seed %d: clean, intent log replayed" seed)
        [] r.E.s_violations)
    [ 1; 2 ]

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "crash"
    [
      ( "power",
        [
          Alcotest.test_case "cut tears the pending write" `Quick
            test_power_cut_torn_write;
          Alcotest.test_case "cut can drop the pending write whole" `Quick
            test_power_cut_drops_whole_write;
          Alcotest.test_case "sync timeout leaves request re-awaitable" `Quick
            test_sync_timeout_then_reawait;
          Alcotest.test_case "dead device fails cleanly, recovers on power"
            `Quick test_dead_device_fails_cleanly_then_recovers;
        ] );
      ( "barriers",
        [
          Alcotest.test_case "fence pins service order" `Quick
            test_barrier_fences_elevator;
          Alcotest.test_case "barrier request gets a private epoch" `Quick
            test_barrier_request_private_epoch;
        ] );
      ( "litmus",
        [
          Alcotest.test_case "all families hold with barriers + journal"
            `Quick test_litmus_holds_with_mechanisms;
          Alcotest.test_case "repro: barriers off breaks rename/append" `Quick
            test_repro_barriers_off;
          Alcotest.test_case "repro: journal off tears replace" `Quick
            test_repro_journal_off;
          Alcotest.test_case "recovery replays the intent log" `Quick
            test_recovery_replays_counted;
        ] );
      ("properties", qcheck [ prop_cache_matches_model ]);
    ]
