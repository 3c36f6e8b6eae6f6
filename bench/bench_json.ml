(* The machine-readable bench trajectory.

   Every table bench records its rows here as flat
   (table, row, metric, value) tuples; the driver serializes them to
   BENCH_tables.json after a run.  `bench compare` re-runs the tables
   and diffs the fresh numbers against a committed bench/baseline.json,
   failing on any >5% regression — the repo's perf regression gate.

   The format is deliberately flat so the loader below stays a
   ~40-line scanner instead of a JSON library dependency:

     { "schema": 1,
       "rows": [
         {"table":"table1","row":"pipe_1w","metric":"ratio","value":7.62},
         ... ] }

   Direction is encoded in the metric name: metrics ending in "ratio"
   or "mbps" are better when higher; everything else (us, s, cycles)
   is better when lower.

   Tolerance is per-row: tail percentiles are inherently noisier than
   medians (one recovered fault lands entirely in p999), so the base
   tolerance is scaled by a class derived from the metric name — p999
   4x, p99 2.5x, p90 2x, everything else 1x.  `compare` prints the
   class whenever it is not 1x.

   Tolerance 0 is the exact gate for a change that claims to move no
   row: every row must equal its baseline as written (six significant
   digits), and a row that moved in either direction fails. *)

type row = {
  bj_table : string;
  bj_row : string;
  bj_metric : string;
  bj_value : float;
}

let rows_rev : row list ref = ref []

let record ~table ~row ~metric value =
  rows_rev :=
    { bj_table = table; bj_row = row; bj_metric = metric; bj_value = value }
    :: !rows_rev

let rows () = List.rev !rows_rev
let clear () = rows_rev := []

let key r = Fmt.str "%s.%s.%s" r.bj_table r.bj_row r.bj_metric

(* A value as [write] serializes it. *)
let written v = Fmt.str "%.6g" v

let higher_is_better metric =
  let ends_with suf s =
    let ls = String.length suf and l = String.length s in
    l >= ls && String.sub s (l - ls) ls = suf
  in
  ends_with "ratio" metric || ends_with "mbps" metric

(* Per-row tolerance class: how much wider than the base tolerance
   this metric is allowed to swing before it counts as a regression.
   Keyed on the full (table, row, metric) so structurally noisy rows
   can be widened without loosening their whole table: the fs-crash
   recovery row depends on where the seeded cut lands relative to the
   intent-log commit sequence (replay vs no replay on the next boot),
   and the overhead row is a small difference of two burst times, so
   unrelated cost-model drift is amplified through the subtraction. *)
let tolerance_scale ?(table = "") ?(row = "") metric =
  let has_prefix p s =
    String.length s >= String.length p
    && String.sub s 0 (String.length p) = p
  in
  if table = "fs_crash" && has_prefix "recovery" row then 3.0
  else if table = "fs_crash" && row = "barrier_overhead" then 2.0
  else if has_prefix "p999" metric then 4.0
  else if has_prefix "p99" metric then 2.5
  else if has_prefix "p90" metric then 2.0
  else 1.0

(* ---------------------------------------------------------------- *)
(* Serialization *)

let write path =
  let oc = open_out path in
  output_string oc "{ \"schema\": 1,\n  \"rows\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then output_string oc ",\n";
      output_string oc
        (Fmt.str "    {\"table\":%S,\"row\":%S,\"metric\":%S,\"value\":%s}"
           r.bj_table r.bj_row r.bj_metric (written r.bj_value)))
    (rows ());
  output_string oc "\n] }\n";
  close_out oc

(* Minimal loader for the format [write] produces (and hand-edited or
   pretty-printed variants of it): scans for one object per '{',
   extracts the three string fields and the number.  Whitespace around
   the ':' is tolerated; table/row/metric names are slugs, so no
   escape handling is needed. *)

(* Position just past ["k"] and its colon, skipping whitespace. *)
let after_key seg k =
  let pat = Fmt.str "\"%s\"" k in
  let pl = String.length pat and sl = String.length seg in
  let rec find i =
    if i + pl > sl then None
    else if String.sub seg i pl = pat then Some (i + pl)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
    let skip j =
      let j = ref j in
      while !j < sl && (seg.[!j] = ' ' || seg.[!j] = '\t' || seg.[!j] = '\n') do
        incr j
      done;
      !j
    in
    let i = skip i in
    if i < sl && seg.[i] = ':' then Some (skip (i + 1)) else None

let field_str seg k =
  match after_key seg k with
  | Some start when start < String.length seg && seg.[start] = '"' -> (
    let start = start + 1 in
    match String.index_from_opt seg start '"' with
    | None -> None
    | Some stop -> Some (String.sub seg start (stop - start)))
  | _ -> None

let field_num seg k =
  let sl = String.length seg in
  match after_key seg k with
  | None -> None
  | Some start ->
    let stop = ref start in
    while
      !stop < sl
      && (match seg.[!stop] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr stop
    done;
    float_of_string_opt (String.sub seg start (!stop - start))

let load path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  let out = ref [] in
  List.iter
    (fun seg ->
      match
        (field_str seg "table", field_str seg "row", field_str seg "metric",
         field_num seg "value")
      with
      | Some t, Some r, Some m, Some v ->
        out := { bj_table = t; bj_row = r; bj_metric = m; bj_value = v } :: !out
      | _ -> ())
    (String.split_on_char '{' s);
  List.rev !out

(* ---------------------------------------------------------------- *)
(* Comparison: the regression gate *)

type verdict = Ok_same | Regressed of float | Improved of float | Missing

let compare_rows ~baseline ~current ~tolerance =
  let cur = Hashtbl.create 64 in
  (* compared as written, so a row that reproduces is exactly equal *)
  List.iter
    (fun r -> Hashtbl.replace cur (key r) (float_of_string (written r.bj_value)))
    current;
  let verdicts =
    List.map
      (fun b ->
        let k = key b in
        match Hashtbl.find_opt cur k with
        | None -> (b, Missing)
        | Some v ->
          let base = b.bj_value in
          let rel =
            if base = 0.0 then (if v = 0.0 then 0.0 else infinity)
            else (v -. base) /. Float.abs base
          in
          let tol =
            tolerance
            *. tolerance_scale ~table:b.bj_table ~row:b.bj_row b.bj_metric
          in
          (* sign of "worse": lower-better metrics regress upward *)
          let worse = if higher_is_better b.bj_metric then -.rel else rel in
          if worse > tol then (b, Regressed rel)
          else if -.worse > tol then (b, Improved rel)
          else (b, Ok_same))
      baseline
  in
  let exact = tolerance = 0.0 in
  let regressions =
    List.filter
      (fun (_, v) -> match v with Regressed _ | Missing -> true | _ -> false)
      verdicts
  in
  let improved =
    List.filter (fun (_, v) -> match v with Improved _ -> true | _ -> false)
      verdicts
  in
  Fmt.pr "%-44s %12s %12s %9s@." "table.row.metric" "baseline" "current" "delta";
  List.iter
    (fun (b, v) ->
      match v with
      | Ok_same -> ()
      | Missing -> Fmt.pr "%-44s %12.6g %12s %9s@." (key b) b.bj_value "-" "MISSING"
      | Regressed rel | Improved rel ->
        let cur_v = Option.get (Hashtbl.find_opt cur (key b)) in
        let scale = tolerance_scale ~table:b.bj_table ~row:b.bj_row b.bj_metric in
        Fmt.pr "%-44s %12.6g %12.6g %+8.1f%%%s%s@." (key b) b.bj_value cur_v
          (100.0 *. rel)
          (if scale <> 1.0 then Fmt.str " [tol x%.1f]" scale else "")
          (match v with
          | Regressed _ -> "  REGRESSION"
          | _ -> if exact then "  MOVED" else ""))
    verdicts;
  let within = List.length verdicts - List.length regressions - List.length improved in
  Fmt.pr
    "@.%d metrics within %.0f%% (x their class), %d improved, %d \
     regressed/missing@."
    within
    (100.0 *. tolerance)
    (List.length improved) (List.length regressions);
  if improved <> [] then
    if exact then Fmt.pr "exact gate: an improved row fails too@."
    else
      Fmt.pr "improvements beyond tolerance: refresh bench/baseline.json to lock them in@.";
  List.length regressions + if exact then List.length improved else 0

let compare_files ~baseline_path ~current_path ~tolerance =
  compare_rows ~baseline:(load baseline_path) ~current:(load current_path)
    ~tolerance
