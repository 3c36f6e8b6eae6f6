(* Benchmark driver: regenerates every table and figure of the
   paper's evaluation (§6), plus the ablations called out in
   DESIGN.md.  Run with no arguments for the full suite.

   The table benches also feed Bench_json; `tables` writes the
   machine-readable BENCH_tables.json and `compare` diffs a fresh run
   against the committed bench/baseline.json (any row that differs or
   is in only one of them fails). *)

let emit_json path =
  Bench_json.write path;
  Fmt.pr "@.wrote %s (%d rows)@." path (List.length (Bench_json.rows ()))

(* The benches that report simulated time: deterministic, so their
   JSON rows are exactly reproducible run to run. *)
let json_benches ~scale () =
  Table1.run ~scale ();
  Table2.run ();
  Table3.run ();
  Table4.run ();
  Table5.run ();
  Overhead.run ();
  Latency.run ();
  Fault_recovery.run ();
  Fault_repair.run ();
  Fs_crash.run ();
  Synth_scale.run ();
  Smp_bench.run ();
  Serve.run ~scale ()

let all_benches ~scale () =
  json_benches ~scale ();
  Queues.run ();
  Ablations.run ();
  Sizes.run ();
  Host_queues.run ();
  Host_step.run ();
  Bechamel_suite.run ();
  emit_json "BENCH_tables.json"

let tables ~scale ~out () =
  json_benches ~scale ();
  emit_json out

let compare_run ~scale ~baseline () =
  json_benches ~scale ();
  emit_json "BENCH_tables.json";
  Fmt.pr "@.comparing against %s:@.@." baseline;
  let base_rows = Bench_json.load baseline in
  (* a gate that compares against nothing passes vacuously — refuse *)
  if base_rows = [] then begin
    Fmt.epr "bench compare: no rows parsed from %s@." baseline;
    exit 1
  end;
  let failed =
    Bench_json.compare_rows ~baseline:base_rows ~current:(Bench_json.rows ())
  in
  if failed > 0 then begin
    Fmt.epr "bench compare: %d row(s) moved, missing or new@." failed;
    exit 1
  end

open Cmdliner

let scale =
  let doc = "Divide Table 1 iteration counts by this factor." in
  Arg.(value & opt int 10 & info [ "scale" ] ~doc)

let cmd_of name f =
  Cmd.v (Cmd.info name) Term.(const (fun () -> f ()) $ const ())

let table1_cmd =
  Cmd.v (Cmd.info "table1")
    Term.(const (fun scale -> Table1.run ~scale ()) $ scale)

(* Standalone `bench serve` defaults to scale 1 — the full 12,000
   client sessions — where the suite-wide default of 10 keeps the
   all/tables/compare runs quick. *)
let serve_cmd =
  let serve_scale =
    Arg.(value & opt int 1 & info [ "scale" ] ~doc:"Divide client counts.")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Network serving stack: throughput and latency")
    Term.(const (fun scale -> Serve.run ~scale ()) $ serve_scale)

let all_cmd =
  Cmd.v (Cmd.info "all")
    Term.(const (fun scale -> all_benches ~scale ()) $ scale)

let tables_cmd =
  let out =
    Arg.(
      value
      & opt string "BENCH_tables.json"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"JSON output path")
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:"Run the table benches and write machine-readable BENCH_tables.json")
    Term.(const (fun scale out -> tables ~scale ~out ()) $ scale $ out)

let compare_cmd =
  let baseline =
    Arg.(
      value
      & opt string "bench/baseline.json"
      & info [ "baseline" ] ~docv:"FILE" ~doc:"Committed baseline to diff against")
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Re-run the table benches and fail on any metric that differs \
          from the committed baseline or is in only one of them")
    Term.(
      const (fun scale baseline -> compare_run ~scale ~baseline ())
      $ scale $ baseline)

let main_cmd =
  let default = Term.(const (fun scale -> all_benches ~scale ()) $ scale) in
  Cmd.group ~default
    (Cmd.info "bench" ~doc:"Synthesis kernel reproduction benchmarks")
    [
      all_cmd;
      tables_cmd;
      compare_cmd;
      table1_cmd;
      cmd_of "table2" Table2.run;
      cmd_of "table3" Table3.run;
      cmd_of "table4" Table4.run;
      cmd_of "table5" Table5.run;
      cmd_of "queues" Queues.run;
      cmd_of "sizes" Sizes.run;
      cmd_of "host-queues" Host_queues.run;
      cmd_of "host-step" Host_step.run;
      cmd_of "ablations" Ablations.run;
      cmd_of "overhead" Overhead.run;
      cmd_of "latency" Latency.run;
      cmd_of "fault-recovery" Fault_recovery.run;
      cmd_of "fault-repair" Fault_repair.run;
      cmd_of "synth-scale" Synth_scale.run;
      cmd_of "smp" Smp_bench.run;
      serve_cmd;
      cmd_of "bechamel" Bechamel_suite.run;
    ]

let () = exit (Cmd.eval main_cmd)
