(* Host cost of the simulator's step loop: Bechamel times [Machine.step]
   on 1 and 4 cores, with the observability hooks off and on.

   Every experiment in this repository runs through [Machine.step], so
   its host cost is the ceiling on serve runs and explorer sweeps.  The
   workload is a user-mode loop under an installed address map (so
   every data reference takes the protection check) with a mix of
   register, load, store and read-modify-write instructions, plus a
   device that re-arms itself every 16 cycles the way the NIC polls
   its doorbell cells.  On 4 cores every core runs its own copy of the
   loop.  Wall-clock numbers are noisy, so this table is recorded, not
   gated; the simulated rows elsewhere are the gate.

   A second one-core line runs kpipe's block copy in supervisor mode:
   eight [Move (Post_inc, Post_inc)] and a [Dbra] per block, the loop
   the unix_syscalls workload spends most of its steps in.

   One more line times a sleeping machine: an idle one-core kserve
   (its pump asleep, its card enabled), in host ns per simulated µs.
   There no instruction runs and the host time is all device ticks
   and the stopped-core fast-forward, which the card's nap cuts. *)

open Bechamel
open Toolkit
module M = Quamachine.Machine
module I = Quamachine.Insn

let steps_per_run = 1_000
let poll_cycles = 16
let data = 0x4000

let noop_hooks =
  {
    M.h_post = (fun ~source:_ ~level:_ ~vector:_ -> ());
    h_irq = (fun ~level:_ ~vector:_ -> ());
    h_device = (fun _ -> ());
    h_fault = (fun _ -> ());
  }

let loop cell =
  [
    I.Label "lap";
    I.Move (I.Abs cell, I.Reg I.r1);
    I.Alu (I.Add, I.Imm 3, I.r1);
    I.Move (I.Reg I.r1, I.Abs cell);
    I.Alu_mem (I.Add, I.Imm 1, I.Abs (cell + 1));
    I.Cmp (I.Imm 0, I.Reg I.r1);
    I.B (I.Always, I.To_label "lap");
  ]

(* A machine whose cores all spin in user mode over their own cells. *)
let machine ~cores ~hooks =
  let m = M.create ~mem_words:(1 lsl 16) ~cores Quamachine.Cost.sun3_emulation in
  M.define_map m ~id:1 [ (data, 16 * cores) ];
  for i = 0 to cores - 1 do
    let entry, _ = Quamachine.Asm.assemble m (loop (data + (16 * i))) in
    M.set_active_core m i;
    M.set_pc m entry;
    M.set_map m 1;
    M.set_supervisor m false;
    if i > 0 then M.start_core m i
  done;
  M.set_active_core m 0;
  let poll = M.add_device m ~name:"poll" ~due:poll_cycles ~tick:(fun _ -> ()) in
  poll.M.dev_tick <- (fun m' -> M.device_schedule m' poll (M.cycles m' + poll_cycles));
  if hooks then M.set_hooks m (Some noop_hooks);
  m

let configs = [ (1, false); (1, true); (4, false); (4, true) ]

(* kpipe's block loop, copying [copy_blocks] blocks of 8 words and
   starting over. *)
let copy_blocks = 64

let copy_loop =
  [
    I.Label "lap";
    I.Move (I.Imm data, I.Reg I.r5);
    I.Move (I.Imm (data + (8 * copy_blocks)), I.Reg I.r2);
    I.Move (I.Imm (copy_blocks - 1), I.Reg I.r4);
    I.Label "blk";
  ]
  @ List.init 8 (fun _ -> I.Move (I.Post_inc I.r5, I.Post_inc I.r2))
  @ [ I.Dbra (I.r4, I.To_label "blk"); I.B (I.Always, I.To_label "lap") ]

let copy_machine () =
  let m = M.create ~mem_words:(1 lsl 16) Quamachine.Cost.sun3_emulation in
  let entry, _ = Quamachine.Asm.assemble m copy_loop in
  M.set_pc m entry;
  m

let copy_name = "1 core, kpipe copy loop"

(* Simulated time one timed run of the idle server covers. *)
let idle_run_us = 1_000.0

(* A one-core kserve with nothing to serve, run until its pump sleeps. *)
let idle_server () =
  let open Synthesis in
  let b = Boot.boot () in
  ignore (Kserve.create b);
  let m = b.Boot.kernel.Kernel.machine in
  ignore (Boot.go ~max_cycles:(Quamachine.Cost.cycles_of_us (M.cost_model m) 2_000.0) b);
  if not (M.all_stopped m) then failwith "host-step: the idle server did not sleep";
  m

let name (cores, hooks) =
  Printf.sprintf "%d core%s, hooks %s" cores
    (if cores = 1 then "" else "s")
    (if hooks then "on" else "off")

let tests () =
  let steps name m =
    Test.make ~name
      (Staged.stage (fun () ->
           for _ = 1 to steps_per_run do
             M.step m
           done))
  in
  Test.make_grouped ~name:"Machine.step" ~fmt:"%s %s"
    (List.map
       (fun (cores, hooks) -> steps (name (cores, hooks)) (machine ~cores ~hooks))
       configs
    @ [
        steps copy_name (copy_machine ());
        (let m = idle_server () in
         let cycles = Quamachine.Cost.cycles_of_us (M.cost_model m) idle_run_us in
         Test.make ~name:"idle kserve"
           (Staged.stage (fun () -> ignore (M.run ~max_cycles:cycles m))));
      ])

let run () =
  Repro_harness.Harness.header
    "host: Machine.step host time (Bechamel, recorded, not gated)";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~stabilize:true () in
  let raw = Benchmark.all cfg [ instance ] (tests ()) in
  let results = Analyze.all ols instance raw in
  let estimate test =
    match Hashtbl.find_opt results ("Machine.step " ^ test) with
    | Some o -> (
      match Analyze.OLS.estimates o with Some (est :: _) -> Some est | _ -> None)
    | None -> None
  in
  Fmt.pr "%-36s %12s %14s@." "config" "ns/step" "Msteps/host s";
  List.iter
    (fun n ->
      match estimate n with
      | Some est ->
        let ns = est /. float_of_int steps_per_run in
        Fmt.pr "%-36s %12.1f %14.2f@." n ns (1e3 /. ns)
      | None -> Fmt.pr "%-36s %12s@." n "n/a")
    (List.map name configs @ [ copy_name ]);
  let idle = "idle 1-core kserve (pump asleep)" in
  Fmt.pr "@.%-36s %12s@." "sleeping machine" "ns/sim us";
  match estimate "idle kserve" with
  | Some est -> Fmt.pr "%-36s %12.1f@." idle (est /. idle_run_us)
  | None -> Fmt.pr "%-36s %12s@." idle "n/a"
