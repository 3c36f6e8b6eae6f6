(* Bechamel wrapping: one Test.make per table.

   The tables themselves are *simulated-time* measurements (exact,
   deterministic, printed by the table commands); what Bechamel
   measures here is host wall-time of running each table's core
   workload on the simulator — a regression check on the simulator
   and kernel implementation, and the harness the task of
   re-benchmarking lives in. *)

open Bechamel
open Toolkit
module H = Repro_harness.Harness
module P = Repro_harness.Programs

let table1_pipe () =
  let se = H.synthesis_setup () in
  ignore (H.synthesis_run se ~program:(P.pipe_rw se.H.s_env ~chunk:64 ~iters:50))

let table1_compute () =
  let se = H.synthesis_setup () in
  ignore
    (H.synthesis_run se ~program:(P.compute ~arr:se.H.s_env.P.e_arr ~n:2_000))

let table2_openclose () =
  let se = H.synthesis_setup () in
  ignore
    (H.synthesis_run se
       ~program:(P.open_close ~name_addr:se.H.s_env.P.e_name_null ~iters:25))

let table3_threads () =
  let b = Synthesis.Boot.boot () in
  let k = b.Synthesis.Boot.kernel in
  let spin, _ =
    Synthesis.Ksynth.install k ~name:"bb/spin"
      Quamachine.Insn.[ Label "s"; B (Always, To_label "s") ]
  in
  for _ = 1 to 8 do
    let t = Synthesis.Thread.create k ~entry:spin () in
    Synthesis.Thread.stop k t;
    Synthesis.Thread.start k t;
    Synthesis.Thread.destroy k t
  done

let table4_switches () =
  let se = H.synthesis_setup () in
  (* two competing threads force switches for a few quanta *)
  let k = se.H.s_boot.Synthesis.Boot.kernel in
  let m = k.Synthesis.Kernel.machine in
  let spin n =
    Quamachine.Insn.
      [ Move (Imm n, Reg 9); Label "s"; Dbra (9, To_label "s"); Trap 0 ]
  in
  let e1, _ = Quamachine.Asm.assemble m (spin 20_000) in
  let e2, _ = Quamachine.Asm.assemble m (spin 20_000) in
  let _t1 = Synthesis.Thread.create k ~quantum_us:100 ~entry:e1 () in
  let _t2 = Synthesis.Thread.create k ~quantum_us:100 ~entry:e2 () in
  ignore (Synthesis.Boot.go ~max_insns:10_000_000 se.H.s_boot)

let table5_interrupts () =
  let b = Synthesis.Boot.boot () in
  let k = b.Synthesis.Boot.kernel in
  let _adq = Synthesis.Interrupt.install_adq k ~n_elems:16 () in
  let m = k.Synthesis.Kernel.machine in
  Synthesis.Boot.park_on_idle k;
  Quamachine.Devices.Ad.set_rate k.Synthesis.Kernel.ad 44_100;
  ignore (Quamachine.Machine.run ~max_insns:100_000 m)

let tests =
  Test.make_grouped ~name:"tables" ~fmt:"%s %s"
    [
      Test.make ~name:"table1 pipes" (Staged.stage table1_pipe);
      Test.make ~name:"table1 compute" (Staged.stage table1_compute);
      Test.make ~name:"table2 open/close" (Staged.stage table2_openclose);
      Test.make ~name:"table3 thread ops" (Staged.stage table3_threads);
      Test.make ~name:"table4 switches" (Staged.stage table4_switches);
      Test.make ~name:"table5 interrupts" (Staged.stage table5_interrupts);
    ]

let run () =
  H.header "Bechamel: host-time per table workload (simulator regression)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  Fmt.pr "%-36s %14s@." "benchmark" "host ms/run";
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> Fmt.pr "%-36s %14.2f@." name (est /. 1e6)
      | _ -> Fmt.pr "%-36s %14s@." name "n/a")
    results
