(* kcrash: what power-cut safety costs.

   Two rows price the clean path: one append burst (appends + sync)
   with every mechanism off (no barriers, no intent log — the
   eatmydata configuration) and the same burst with barriers +
   journaling on; barrier_overhead is their relative cost in percent.

   Two more rows price the reboot side: remounting a cleanly synced
   image, and remounting after a device-level power cut fired in the
   middle of the burst — boot-time intent-log replay plus whatever
   directory work the mount re-does.  All in simulated microseconds,
   recorded in the bench JSON trajectory and gated by `bench compare`.
   The recovery row depends on where the cut lands relative to the
   commit sequence, which decides how much replay work the next boot
   inherits. *)

open Quamachine
open Synthesis
module I = Insn

let us_of_cycles m cy =
  float_of_int cy /. float_of_int (Cost.cycles_of_us (Machine.cost_model m) 1.0)

let bwords = Disk_server.block_words
let bursts = 8
let chunk = bwords + 17

let chunk_data i =
  Array.init chunk (fun j -> 1 + (((i * 131) + (j * 7) + 13) land 0x3FFF))

let burst dfs =
  for i = 0 to bursts - 1 do
    Dfs.append dfs "log" (chunk_data i)
  done;
  Dfs.sync dfs

(* Boot, format, mount with [mech], settle, then time the burst. *)
let timed_burst mech =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  Dfs.format k ~capacities:[ ("log", 4 + (bursts * 2)) ]
    ~files:[ ("log", chunk_data 99) ]
    ();
  let ds = Disk_server.install k () in
  Boot.park_on_idle k;
  let dfs = Dfs.mount ~mechanisms:mech ~budget:20_000_000 b.Boot.vfs ds in
  Dfs.sync dfs;
  let m = k.Kernel.machine in
  let c0 = Machine.cycles m in
  burst dfs;
  let cy = Machine.cycles m - c0 in
  (match Dfs.read_file dfs "log" with
  | Some c when Array.length c = Array.length (chunk_data 99) + (bursts * chunk)
    -> ()
  | _ -> failwith "fs_crash: burst did not land");
  (b, dfs, cy)

(* Reboot a platter image through at-boot recovery and time boot →
   halt (recovery-only boots halt once the mount hook finishes). *)
let timed_remount img =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  Devices.Disk.load_image k.Kernel.disk img;
  let ds = Disk_server.install k () in
  let get = Dfs.mount_at_boot ~budget:20_000_000 b b.Boot.vfs ds in
  let m = k.Kernel.machine in
  let c0 = Machine.cycles m in
  (match Boot.go ~max_insns:200_000_000 b with
  | Machine.Halted -> ()
  | Machine.Insn_limit -> failwith "fs_crash: remount did not settle");
  let cy = Machine.cycles m - c0 in
  Machine.set_halted m false;
  match get () with
  | None -> failwith "fs_crash: mount never ran at boot"
  | Some dfs ->
    if Dfs.read_file dfs "log" = None then
      failwith "fs_crash: file lost across reboot";
    (cy, Metrics.read k.Kernel.metrics "dfs.replays")

let run () =
  Repro_harness.Harness.header "kcrash: crash-consistency cost";
  let unsafe_mech = { Dfs.m_barriers = false; m_journal = false } in
  let _, _, unsafe_cy = timed_burst unsafe_mech in
  let b_safe, _, safe_cy = timed_burst Dfs.all_mechanisms in
  let m0 = b_safe.Boot.kernel.Kernel.machine in
  let clean_img = Devices.Disk.image b_safe.Boot.kernel.Kernel.disk in
  let unsafe_us = us_of_cycles m0 unsafe_cy in
  let safe_us = us_of_cycles m0 safe_cy in
  let overhead_pct = 100.0 *. (safe_us -. unsafe_us) /. unsafe_us in
  Fmt.pr "%-44s %10.1f us@." "append burst, mechanisms off" unsafe_us;
  Fmt.pr "%-44s %10.1f us@." "append burst, barriers + intent log" safe_us;
  Fmt.pr "%-44s %10.1f %%@." "barrier + journal overhead" overhead_pct;
  (* Mid-burst power cut on the safe configuration.  The interesting
     reboot is one that inherits an open intent (log header state=1 on
     the platter), so probe cut cycles across the burst window and
     keep the first image the cut caught mid-commit; if every probe
     lands between commits, fall back to the mid-burst image. *)
  let cut_image_at ev_after =
    let b = Boot.boot () in
    let k = b.Boot.kernel in
    Dfs.format k ~capacities:[ ("log", 4 + (bursts * 2)) ]
      ~files:[ ("log", chunk_data 99) ]
      ();
    let ds = Disk_server.install k () in
    Boot.park_on_idle k;
    let m = k.Kernel.machine in
    let dfs = Dfs.mount ~budget:3_000_000 b.Boot.vfs ds in
    Dfs.sync dfs;
    let fi =
      Fault_inject.arm m
        (Fault_inject.make_plan ~seed:1
           [
             {
               Fault_inject.ev_after;
               ev_action = Fault_inject.Power_cut { device = "disk"; torn_words = 7 };
             };
           ])
    in
    (try burst dfs with Failure _ | Invalid_argument _ -> ());
    Fault_inject.disarm m fi;
    if Devices.Disk.powered k.Kernel.disk then
      failwith "fs_crash: power cut never fired";
    let img = Devices.Disk.image k.Kernel.disk in
    (img, img.(Dfs.log_header_block).(1) = 1)
  in
  let cut_img =
    let probes = 16 in
    let rec scan i =
      if i > probes then fst (cut_image_at (safe_cy / 2))
      else
        let img, mid_commit = cut_image_at (i * safe_cy / (probes + 1)) in
        if mid_commit then img else scan (i + 1)
    in
    scan 1
  in
  let clean_cy, _ = timed_remount clean_img in
  let cut_cy, replays = timed_remount cut_img in
  let clean_us = us_of_cycles m0 clean_cy in
  let cut_us = us_of_cycles m0 cut_cy in
  Fmt.pr "%-44s %10.1f us@." "remount, clean image" clean_us;
  Fmt.pr "%-44s %10.1f us  (%d intent-log replay%s)@."
    "remount after mid-burst power cut" cut_us replays
    (if replays = 1 then "" else "s");
  Bench_json.record ~table:"fs_crash" ~row:"append_unsafe" ~metric:"us" unsafe_us;
  Bench_json.record ~table:"fs_crash" ~row:"append_safe" ~metric:"us" safe_us;
  Bench_json.record ~table:"fs_crash" ~row:"barrier_overhead" ~metric:"pct"
    overhead_pct;
  Bench_json.record ~table:"fs_crash" ~row:"remount_clean" ~metric:"us" clean_us;
  Bench_json.record ~table:"fs_crash" ~row:"recovery_cut" ~metric:"us" cut_us
