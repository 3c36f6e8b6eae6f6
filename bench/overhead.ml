(* Zero cost on and off: every instrumentation layer attached, with or
   without collection, leaves the kernel's instruction stream and its
   cycles identical to a plain kernel's
   ([Repro_harness.Harness.Zero_cost] holds the setups and the
   workload).

   One table proves it for all four layers.  The shared two-stage pipe
   pipeline runs once plain, then once per row with that row's setup
   applied right after boot (before anything is synthesized).  Every
   row must match the plain run's cycles *and* instructions, and lands
   in the [overhead] baseline table as [extra_cycles]. *)

module Z = Repro_harness.Harness.Zero_cost

let run () =
  Repro_harness.Harness.header
    "zero cost on and off: ktrace, kspan, the PMU and kfault";
  let _, plain_cy, plain_in = Z.workload Z.plain in
  Fmt.pr "%-44s %12s %12s %8s@." "configuration" "cycles" "insns" "extra";
  Fmt.pr "%-44s %12d %12d@." "plain kernel (no instrumentation)" plain_cy
    plain_in;
  Bench_json.record ~table:"overhead" ~row:"pipeline_plain" ~metric:"cycles"
    (float_of_int plain_cy);
  let failed =
    List.filter
      (fun (row, label, setup) ->
        let _, cy, insns = Z.workload setup in
        Fmt.pr "%-44s %12d %12d %8d@." label cy insns (cy - plain_cy);
        Bench_json.record ~table:"overhead" ~row ~metric:"extra_cycles"
          (float_of_int (cy - plain_cy));
        cy <> plain_cy || insns <> plain_in)
      Z.rows
  in
  match failed with
  | [] -> Fmt.pr "every row: exactly zero (identical instruction streams)@."
  | _ ->
    Fmt.failwith "overhead: %s perturbed the plain run"
      (String.concat ", " (List.map (fun (row, _, _) -> row) failed))
