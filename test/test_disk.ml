(* Disk pipeline tests: raw server + elevator scheduler + cache
   manager (§5.1). *)

open Quamachine
open Synthesis
module I = Insn

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let setup () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let ds = Disk_server.install k () in
  (* idle thread must be runnable so completion interrupts can be
     taken while we spin the machine from the host *)
  Boot.park_on_idle k;
  (b, k, ds)

let fill_disk k pattern_of_block =
  List.iter
    (fun blk ->
      Devices.Disk.write_block k.Kernel.disk blk
        (Array.init Devices.Disk.block_words (pattern_of_block blk)))
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 20; 30; 40 ]

let test_read_through_cache () =
  let _b, k, ds = setup () in
  let m = k.Kernel.machine in
  fill_disk k (fun blk i -> (blk * 1000) + i);
  (match Disk_server.read_block_sync ds 3 ~max_insns:10_000_000 with
  | Some buf ->
    check_int "first word" 3000 (Machine.peek m buf);
    check_int "last word" (3000 + Devices.Disk.block_words - 1)
      (Machine.peek m (buf + Devices.Disk.block_words - 1))
  | None -> Alcotest.fail "read never completed");
  (* second read of the same block: cache hit, no device involvement *)
  let before = Devices.Disk.blocks k.Kernel.disk in
  ignore before;
  (match Disk_server.read_block_sync ds 3 ~max_insns:100 with
  | Some _ -> ()
  | None -> Alcotest.fail "cache hit should be instant");
  let hits, misses = Disk_server.stats ds in
  check_int "one hit" 1 hits;
  check_int "one miss" 1 misses

let test_elevator_order () =
  let _b, k, ds = setup () in
  let m = k.Kernel.machine in
  fill_disk k (fun blk i -> blk + i);
  (* queue requests out of order while the first is in flight; the
     scheduler should then serve them in one upward sweep *)
  let r40 = Disk_server.submit ds ~block:40 ~buffer:(Kalloc.alloc k.Kernel.alloc 256) ~write:false () in
  ignore r40;
  let mk blk = Disk_server.submit ds ~block:blk ~buffer:(Kalloc.alloc k.Kernel.alloc 256) ~write:false () in
  let r10 = mk 10 in
  let r30 = mk 30 in
  let r20 = mk 20 in
  ignore (r10, r30, r20);
  (* run until all complete *)
  let rec spin n =
    if n = 0 then Alcotest.fail "requests never completed"
    else if List.length (Disk_server.service_order ds) >= 4 && Machine.peek m (r20.Disk_server.r_desc + 3) = 1
    then ()
    else begin
      Machine.step m;
      spin (n - 1)
    end
  in
  spin 50_000_000;
  match Disk_server.service_order ds with
  | [ 40; 10; 20; 30 ] | [ 40; 20; 30; 10 ] ->
    (* after 40, the sweep reverses down to 10 then climbs, or climbs
       from wherever the arm settled — exact order depends on arrival
       interleaving; what matters is: not FIFO *)
    ()
  | [ 40; 10; 30; 20 ] -> Alcotest.fail "FIFO order: elevator not applied"
  | order ->
    (* accept any monotone sweep after the in-flight request *)
    let rest = List.tl order in
    let sorted_up = List.sort compare rest in
    let sorted_down = List.rev sorted_up in
    check_bool
      (Fmt.str "sweep order (got %a)" Fmt.(Dump.list int) order)
      true
      (rest = sorted_up || rest = sorted_down)

let test_cache_eviction_and_writeback () =
  let _b, k, ds = setup () in
  let m = k.Kernel.machine in
  fill_disk k (fun blk i -> blk + i);
  (* small cache: force evictions *)
  let ds2 = ds in
  ignore ds2;
  (* read blocks 0..9 through a 16-entry cache: all misses *)
  List.iter
    (fun blk ->
      match Disk_server.read_block_sync ds blk ~max_insns:10_000_000 with
      | Some _ -> ()
      | None -> Alcotest.failf "block %d never arrived" blk)
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ];
  let _, misses = Disk_server.stats ds in
  check_int "ten misses" 10 misses;
  (* dirty a block and verify writeback reaches the device *)
  (match Disk_server.read_block_sync ds 5 ~max_insns:10_000_000 with
  | Some buf ->
    Machine.poke m (buf + 0) 4242;
    Disk_server.mark_dirty ds 5
  | None -> Alcotest.fail "block 5 missing");
  (* force enough traffic to evict block 5 (capacity 16) *)
  List.iter
    (fun blk -> ignore (Disk_server.read_block_sync ds blk ~max_insns:10_000_000))
    [ 20; 30; 40; 100; 101; 102; 103; 104; 105; 106; 107; 108; 109; 110; 111; 112 ];
  (* writeback is asynchronous: spin the machine until it lands *)
  let rec spin n =
    if n = 0 then ()
    else if (Devices.Disk.read_block k.Kernel.disk 5).(0) = 4242 then ()
    else begin
      Machine.step m;
      spin (n - 1)
    end
  in
  spin 50_000_000;
  check_int "dirty block written back" 4242 (Devices.Disk.read_block k.Kernel.disk 5).(0)

(* Disk-backed file system: a user thread opens a file on disk, its
   read blocks on the cache miss, the completion interrupt wakes it,
   and the data comes through intact. *)
let test_dfs_thread_read () =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let content = Array.init 600 (fun i -> i * 7) in
  Dfs.format k ~files:[ ("notes", content) ] ();
  let ds = Disk_server.install k () in
  (* the superblock read needs a running machine: start the idle
     thread first *)
  Boot.park_on_idle k;
  let _dfs = Dfs.mount b.Boot.vfs ds in
  let region = Kalloc.alloc_zeroed k.Kernel.alloc 1024 in
  let poke_string addr s =
    String.iteri (fun i c -> Machine.poke m (addr + i) (Char.code c)) s;
    Machine.poke m (addr + String.length s) 0
  in
  poke_string region "/disk/notes";
  let buf = region + 64 in
  let prog =
    [
      I.Move (I.Imm region, I.Reg I.r1);
      I.Trap 3; (* open the disk file *)
      I.Move (I.Reg I.r0, I.Reg I.r13);
      (* read 600 words across three device blocks, 200 at a time *)
      I.Move (I.Imm 0, I.Reg I.r12); (* total *)
      I.Label "loop";
      I.Move (I.Reg I.r13, I.Reg I.r1);
      I.Move (I.Imm buf, I.Reg I.r2);
      I.Alu (I.Add, I.Reg I.r12, I.r2);
      I.Move (I.Imm 200, I.Reg I.r3);
      I.Trap 1; (* blocks on cache misses *)
      I.Alu (I.Add, I.Reg I.r0, I.r12);
      I.Cmp (I.Imm 600, I.Reg I.r12);
      I.B (I.Ne, I.To_label "loop");
      I.Move (I.Reg I.r12, I.Abs (region + 32));
      I.Trap 0;
    ]
  in
  let entry, _ = Asm.assemble m prog in
  let _t = Thread.create k ~entry ~segments:[ (region, 1024) ] () in
  (match Boot.go ~max_insns:100_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> Alcotest.fail "dfs read never finished");
  check_int "read all 600 words" 600 (Machine.peek m (region + 32));
  let ok = ref true in
  for i = 0 to 599 do
    if Machine.peek m (buf + i) <> i * 7 then ok := false
  done;
  check_bool "contents intact through the pipeline" true !ok;
  let hits, misses = Disk_server.stats ds in
  check_bool "the cache served rereads" true (hits > misses)

let test_dfs_mount_lists_files () =
  let b, k, ds = setup () in
  Dfs.format k ~files:[ ("a", [| 1 |]); ("b", Array.make 300 9) ] ();
  let dfs = Dfs.mount b.Boot.vfs ds in
  match Dfs.files dfs with
  | [ fa; fb ] ->
    Alcotest.(check string) "first name" "a" fa.Dfs.df_name;
    check_int "first size" 1 fa.Dfs.df_words;
    Alcotest.(check string) "second name" "b" fb.Dfs.df_name;
    check_int "second size" 300 fb.Dfs.df_words;
    check_int "contiguous allocation" (fa.Dfs.df_start + 1) fb.Dfs.df_start
  | l -> Alcotest.failf "expected 2 files, got %d" (List.length l)

let () =
  Alcotest.run "disk"
    [
      ( "pipeline",
        [
          Alcotest.test_case "read through cache" `Quick test_read_through_cache;
          Alcotest.test_case "elevator service order" `Quick test_elevator_order;
          Alcotest.test_case "eviction and writeback" `Quick
            test_cache_eviction_and_writeback;
        ] );
      ( "dfs",
        [
          Alcotest.test_case "mount lists files" `Quick test_dfs_mount_lists_files;
          Alcotest.test_case "thread read blocks on misses" `Quick
            test_dfs_thread_read;
        ] );
    ]
