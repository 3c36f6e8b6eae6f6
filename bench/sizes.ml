(* §6.4: kernel size.  The paper reports hand-written source lines and
   a 64 KiB kernel (32 KiB without the monitor).  Our equivalent: the
   synthesized/installed instruction counts by subsystem after a full
   boot with all servers, plus the per-open incremental cost of code
   synthesis (the space argument of §6.4). *)

open Quamachine
open Synthesis

let run () =
  Repro_harness.Harness.header "Kernel size (synthesized code inventory, ~ section 6.4)";
  let se = Repro_harness.Harness.synthesis_setup () in
  let k = se.Repro_harness.Harness.s_boot.Boot.kernel in
  let boot_insns = Kernel.synthesized_insns k in
  let boot_code = Machine.code_size k.Kernel.machine in
  Fmt.pr "after boot (all servers, no opens): %d routines, %d synthesized insns, %d code words@."
    (List.length (Kernel.pages k))
    boot_insns boot_code;
  Fmt.pr "@.by subsystem:@.";
  List.iter
    (fun (prefix, count, insns) ->
      Fmt.pr "  %-12s %4d routines %6d insns@." prefix count insns)
    (Kernel.registry_report k);
  (* incremental cost of opens: the dynamic-space trade-off *)
  let program =
    Repro_harness.Programs.open_close ~name_addr:se.Repro_harness.Harness.s_env.Repro_harness.Programs.e_name_tty ~iters:50
  in
  ignore (Repro_harness.Harness.synthesis_run se ~program);
  let after = Kernel.synthesized_insns k in
  Fmt.pr "@.50 open(tty)/close pairs added %d insns (%.1f insns/open)@."
    (after - boot_insns)
    (float_of_int (after - boot_insns) /. 50.0);
  Fmt.pr "paper: 64 KiB kernel, 32 KiB without the monitor; ~1000 lines of templates@."
