(* synthesis-cli: poke at a booted Synthesis kernel from the command
   line — list and disassemble synthesized routines, show the code the
   kernel generates for an `open`, run a demo workload with the
   monitor's counters, and print the boot inventory. *)

open Quamachine
open Synthesis
module I = Insn

(* A fully-populated kernel: all servers plus one opened file and one
   opened tty so the registry shows specialized routines. *)
let booted_with_opens () =
  let se = Repro_harness.Harness.synthesis_setup () in
  let k = se.Repro_harness.Harness.s_boot.Boot.kernel in
  let env = se.Repro_harness.Harness.s_env in
  let program =
    [
      I.Move (I.Imm env.Repro_harness.Programs.e_name_file, I.Reg I.r1);
      I.Trap 3;
      I.Move (I.Imm env.Repro_harness.Programs.e_name_tty, I.Reg I.r1);
      I.Trap 3;
      I.Trap 0;
    ]
  in
  ignore (Repro_harness.Harness.synthesis_run se ~program);
  k

let cmd_registry () =
  let k = booted_with_opens () in
  Fmt.pr "synthesized/installed kernel routines (entry, length, name):@.";
  Inspect.pp_registry k Fmt.stdout ();
  Fmt.pr "@.%d routines, %d instructions total@."
    (List.length (Kernel.pages k))
    (Kernel.synthesized_insns k)

let cmd_disasm pattern =
  let k = booted_with_opens () in
  match Inspect.grep k pattern with
  | [] -> Fmt.pr "no routine matching %S@." pattern
  | matches ->
    List.iter (Inspect.disassemble_routine k Fmt.stdout) matches

let cmd_switch_code () =
  let k = booted_with_opens () in
  Fmt.pr
    "The executable ready queue: each thread's sw_out ends in a jmp@.\
     patched to the next thread's sw_in — this is the dispatcher.@.@.";
  (match Inspect.grep k "/sw_out" with
  | p :: _ -> Inspect.disassemble_routine k Fmt.stdout p
  | [] -> ());
  match Inspect.grep k "/sw_in" with
  | p :: _ -> Inspect.disassemble_routine k Fmt.stdout p
  | [] -> ()

(* kperf: boot with tracing attached (exact owner attribution), turn
   on PMU pc sampling, run the two-stage pipe pipeline, and report
   flat + per-owner profiles.  The owner percentages must partition
   the machine's cycle total exactly — the command fails if not. *)
let cmd_profile out =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let tr = Ktrace.create m in
  Kernel.attach_tracing k tr;
  ignore (Kernel.attach_spans k);
  let pmu = Pmu.create m in
  (* prime period so sampling never locks onto a loop's cycle pattern *)
  Pmu.enable_sampling pmu ~period:251;
  Pmu.start pmu;
  let pl = Repro_harness.Harness.Pipeline.build ~total:4096 b in
  Repro_harness.Harness.Pipeline.run pl;
  Pmu.stop pmu;
  let p = Profile.collect k pmu in
  Fmt.pr "two-stage pipe pipeline (%d words through the pipe):@.@."
    pl.Repro_harness.Harness.Pipeline.pl_total;
  Profile.pp Fmt.stdout p;
  Fmt.pr "@.pmu counters over the run:@.";
  Pmu.pp Fmt.stdout pmu;
  Fmt.pr "@.attribution check: %d cycles in owner lines, %d machine total -> %s@."
    (Profile.owners_total p) p.Profile.p_total
    (if Profile.balanced p then "balanced" else "IMBALANCED");
  (match out with
  | None -> ()
  | Some path ->
    (match open_out path with
    | oc ->
      output_string oc (Profile.to_json p);
      close_out oc;
      Fmt.pr "wrote %s@." path
    | exception Sys_error msg ->
      Fmt.epr "cannot write profile: %s@." msg;
      exit 1));
  if not (Profile.balanced p) then exit 1

let cmd_demo () =
  let se = Repro_harness.Harness.synthesis_setup () in
  let k = se.Repro_harness.Harness.s_boot.Boot.kernel in
  let m = k.Kernel.machine in
  Machine.trace_enable m true;
  let env = se.Repro_harness.Harness.s_env in
  let program = Repro_harness.Programs.pipe_rw env ~chunk:64 ~iters:100 in
  let secs = Repro_harness.Harness.synthesis_run se ~program in
  Fmt.pr "ran 100 x 64-word pipe write+read in %.2f ms simulated@." (secs *. 1000.0);
  Monitor.pp_counters m Fmt.stdout ();
  Fmt.pr "@.last instructions executed (kernel monitor trace):@.";
  Monitor.pp_trace m Fmt.stdout 12;
  Fmt.pr "@.threads at exit:@.";
  Inspect.pp_threads k Fmt.stdout ()

(* Boot a kernel with tracing attached, run the quickstart-style
   two-stage pipe workload, then print the cycle-attribution summary
   and export Chrome trace JSON. *)
let cmd_trace out =
  let b = Boot.boot () in
  let k = b.Boot.kernel in
  let m = k.Kernel.machine in
  let tr = Ktrace.create m in
  Kernel.attach_tracing k tr;
  Scheduler.install k ~epoch_us:2_000 ();
  let pl = Repro_harness.Harness.Pipeline.build ~total:4096 b in
  Repro_harness.Harness.Pipeline.run pl;
  Ktrace.pp_summary Fmt.stdout tr;
  let attributed = Ktrace.attributed_total tr in
  let traced = Ktrace.traced_cycles tr in
  Fmt.pr "@.attribution check: %d cycles attributed, %d traced -> %s@." attributed
    traced
    (if attributed = traced then "balanced" else "IMBALANCED");
  let json = Ktrace.to_chrome_json tr in
  (match open_out out with
  | oc ->
    output_string oc json;
    close_out oc
  | exception Sys_error msg ->
    Fmt.epr "cannot write trace: %s@." msg;
    exit 1);
  Fmt.pr "wrote %s (%d events, %d dropped) — load it at chrome://tracing@." out
    (List.length (Ktrace.events tr))
    (Ktrace.dropped tr);
  if attributed <> traced then exit 1

(* What --subject accepts: every explorer subject by name, plus the
   groups "all", "queues" (every queue/ subject) and "crash" (every
   crash/ subject). *)
let subject_choices =
  String.concat ", "
    ([ "all"; "queues"; "crash" ]
    @ List.map Repro_harness.Explorer.subject_name
        Repro_harness.Explorer.subjects)

(* kfault: run the interleaving explorer over the selected subjects
   for one seed (or a --seeds N sweep), plus the targeted recovery
   scenarios.  Exits non-zero on any invariant violation, so CI can
   gate on `make faultsim`. *)
let cmd_faultsim subject cores seed seeds verbose postmortem_dir =
  let module E = Repro_harness.Explorer in
  let failures = ref 0 in
  let first = seed and last = seed + seeds - 1 in
  (* flight-recorder forensics: when a run fails, print its postmortem
     and (with --postmortem-dir) drop the dump plus the black-box ring
     as Chrome trace JSON, one pair per failing (subject, seed) *)
  let save_forensics (r : E.subject_result) =
    (match r.E.s_postmortem with
    | Some pm -> Fmt.pr "%s@." pm
    | None -> ());
    match postmortem_dir with
    | None -> ()
    | Some dir ->
      (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
       with Sys_error _ -> ());
      let base =
        Fmt.str "%s/%s-seed%d"
          dir
          (String.map (fun c -> if c = '/' then '_' else c) r.E.s_subject)
          r.E.s_seed
      in
      let write path contents =
        match open_out path with
        | oc ->
          output_string oc contents;
          close_out oc;
          Fmt.pr "    wrote %s@." path
        | exception Sys_error msg -> Fmt.epr "cannot write %s: %s@." path msg
      in
      Option.iter (write (base ^ ".postmortem.txt")) r.E.s_postmortem;
      Option.iter (write (base ^ ".blackbox.json")) r.E.s_blackbox_json
  in
  (* one pluggable subject: seed sweep, then a determinism re-run and
     a sabotage run that must be caught *)
  let run_subject_sweep sub =
    let name = E.subject_name sub in
    let before = !failures in
    for s = first to last do
      let r = E.run_subject sub ~seed:s () in
      (* a driven seed that was never preempted explored one
         interleaving only: a clean verdict from it means nothing *)
      let unpreempted = r.E.s_stride > 0 && r.E.s_preemptions = 0 in
      let ok = r.E.s_violations = [] && not unpreempted in
      if not ok then incr failures;
      if verbose || not ok then
        Fmt.pr
          "seed %3d %-19s: %d/%d progress, stride %d, %d preemptions, %d \
           faults, trace %x -> %s@."
          r.E.s_seed name r.E.s_progress r.E.s_goal r.E.s_stride
          r.E.s_preemptions r.E.s_injected r.E.s_trace_hash
          (if ok then "ok" else "FAIL");
      List.iter (fun v -> Fmt.pr "    violation: %s@." v) r.E.s_violations;
      if unpreempted then
        Fmt.pr "    FAIL: no forced preemption landed (stride %d)@."
          r.E.s_stride;
      if not ok then save_forensics r
    done;
    let a = E.run_subject sub ~seed:first () in
    let b = E.run_subject sub ~seed:first () in
    if a.E.s_trace_hash <> b.E.s_trace_hash then begin
      incr failures;
      Fmt.pr "    FAIL: %s seed %d is nondeterministic (%x vs %x)@." name
        first a.E.s_trace_hash b.E.s_trace_hash
    end;
    let n = E.run_subject sub ~sabotage:true ~seed:first () in
    if n.E.s_violations = [] then begin
      incr failures;
      Fmt.pr "    FAIL: %s sabotage run reported no violation@." name
    end;
    Fmt.pr
      "faultsim[%s]: seeds %d..%d + determinism + sabotage, %d failed@." name
      first last
      (!failures - before)
  in
  (* targeted timer-loss recovery: the watchdog must re-arm a lost
     quantum-timer completion *)
  let run_timer_loss () =
    let tl = E.timer_loss ~seed () in
    Fmt.pr
      "timer-loss: dropped completion at cycle %d, watchdog restarts %d, \
       recovered in %d cycles (stall %d)@."
      tl.E.tl_drop_cycle tl.E.tl_restarts tl.E.tl_recovery_cycles
      tl.E.tl_stall_cycles;
    if tl.E.tl_restarts < 1 || tl.E.tl_recovery_cycles <= 0 then begin
      incr failures;
      Fmt.pr "    FAIL: timer loss not recovered@."
    end
  in
  (* targeted disk-recovery scenarios *)
  let run_disk_recovery () =
    List.iter
      (fun (mode, name, want_completed) ->
        let d = E.disk_fault ~seed ~mode () in
        Fmt.pr
          "disk-%s: completed=%b timeouts=%d retries=%d failed=%d recovery=%d \
           cycles@."
          name d.E.df_completed d.E.df_timeouts d.E.df_retries d.E.df_failed
          d.E.df_recovery_cycles;
        if d.E.df_completed <> want_completed then begin
          incr failures;
          Fmt.pr "    FAIL: expected completed=%b@." want_completed
        end)
      [
        (E.Disk_stall, "stall", true);
        (E.Disk_drop, "drop", true);
        (E.Disk_bad_block, "bad-block", false);
      ]
  in
  let named prefix =
    List.filter
      (fun sub -> String.starts_with ~prefix (E.subject_name sub))
      E.subjects
  in
  (match subject with
  | "all" ->
    List.iter run_subject_sweep E.subjects;
    run_timer_loss ();
    run_disk_recovery ()
  | "queues" ->
    List.iter run_subject_sweep (named "queue/");
    run_timer_loss ()
  | "crash" -> List.iter run_subject_sweep (named "crash/")
  | "smp" -> run_subject_sweep (E.smp_subject ?cores ())
  | "disk" ->
    run_subject_sweep E.disk_subject;
    run_disk_recovery ()
  | s -> (
    match List.find_opt (fun sub -> E.subject_name sub = s) E.subjects with
    | Some sub -> run_subject_sweep sub
    | None ->
      Fmt.pr "unknown subject %S (try %s)@." s subject_choices;
      exit 2));
  if !failures > 0 then begin
    Fmt.pr "faultsim FAILED (%d)@." !failures;
    exit 1
  end
  else Fmt.pr "faultsim passed@."

open Cmdliner

let pattern =
  Arg.(value & pos 0 string "open" & info [] ~docv:"PATTERN" ~doc:"registry name substring")

let cmds =
  [
    Cmd.v (Cmd.info "registry" ~doc:"List all synthesized kernel routines")
      Term.(const cmd_registry $ const ());
    Cmd.v
      (Cmd.info "disasm" ~doc:"Disassemble synthesized routines matching PATTERN")
      Term.(const cmd_disasm $ pattern);
    Cmd.v
      (Cmd.info "switch-code"
         ~doc:"Show a thread's synthesized context-switch code (Figure 3)")
      Term.(const cmd_switch_code $ const ());
    Cmd.v (Cmd.info "demo" ~doc:"Run a pipe workload and show monitor counters")
      Term.(const cmd_demo $ const ());
    (let out =
       Arg.(
         value
         & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"JSON profile output path")
     in
     Cmd.v
       (Cmd.info "profile"
          ~doc:
            "kperf: PMU-sampled flat + exact per-owner cycle profile of the \
             two-stage pipe pipeline")
       Term.(const cmd_profile $ out));
    (let out =
       Arg.(
         value & opt string "trace.json"
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Chrome trace output path")
     in
     Cmd.v
       (Cmd.info "trace"
          ~doc:
            "Run a two-stage pipe workload with ktrace attached; print the \
             cycle-attribution summary and write Chrome trace JSON")
       Term.(const cmd_trace $ out));
    (let seed =
       Arg.(
         value & opt int 1
         & info [ "s"; "seed" ] ~docv:"N" ~doc:"first fault-plan seed")
     in
     let seeds =
       Arg.(
         value & opt int 1
         & info [ "n"; "seeds" ] ~docv:"COUNT" ~doc:"number of seeds to sweep")
     in
     let verbose =
       Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"print every run")
     in
     let subject =
       Arg.(
         value & opt string "all"
         & info [ "subject" ] ~docv:"SUBJECT"
             ~doc:("workload to stress: one of " ^ subject_choices))
     in
     let cores =
       Arg.(
         value
         & opt (some int) None
         & info [ "cores" ] ~docv:"N"
             ~doc:
               "core count for the smp subject (default: 2-4 picked by \
                seed)")
     in
     let postmortem_dir =
       Arg.(
         value
         & opt (some string) None
         & info [ "postmortem-dir" ] ~docv:"DIR"
             ~doc:
               "write each failing run's flight-recorder postmortem and \
                black-box Chrome trace JSON into DIR")
     in
     Cmd.v
       (Cmd.info "faultsim"
          ~doc:
            "kfault: sweep the interleaving explorer (forced preemption + \
             injected faults) over the selected subject — the four lock-free \
             queue kinds, the executable ready queue, a kpipe pair, the \
             disk elevator, the kheal code-flip/self-repair storm, the \
             ksynth shared-page repair storm, the kSMP multi-core \
             work-stealing storm, and the kcrash power-cut \
             crash-consistency litmus families — plus the timer-loss and \
             disk-fault recovery scenarios")
       Term.(
         const cmd_faultsim $ subject $ cores $ seed $ seeds $ verbose
         $ postmortem_dir));
  ]

let () =
  exit
    (Cmd.eval
       (Cmd.group
          ~default:Term.(const cmd_demo $ const ())
          (Cmd.info "synthesis-cli" ~doc:"Inspect the Synthesis kernel reproduction")
          cmds))
