(* The machine-readable bench trajectory.

   Every table bench records its rows here as flat
   (table, row, metric, value) tuples; the driver serializes them to
   BENCH_tables.json after a run.  `bench compare` re-runs the tables
   and diffs the fresh numbers against a committed bench/baseline.json,
   failing on any row that differs or is in only one of them — the
   repo's perf regression gate.

   The format is deliberately flat so the loader below stays a
   ~40-line scanner instead of a JSON library dependency:

     { "schema": 1,
       "rows": [
         {"table":"table1","row":"pipe_1w","metric":"ratio","value":7.62},
         ... ] }

   Every row is simulated, so it reproduces exactly: the gate compares
   each row as written (six significant digits), and a row that moved
   in either direction fails.  A change that moves, adds or drops a
   row re-records the baseline. *)

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

(* Prints every row that is in only one of [baseline] and [current],
   or that differs between them as written, with its delta, and
   returns how many there are. *)
let compare_rows ~baseline ~current =
  let cur = Hashtbl.create 64 and in_base = Hashtbl.create 64 in
  List.iter
    (fun r -> Hashtbl.replace cur (key r) (float_of_string (written r.bj_value)))
    current;
  List.iter (fun b -> Hashtbl.replace in_base (key b) ()) baseline;
  Fmt.pr "%-44s %12s %12s %9s@." "table.row.metric" "baseline" "current" "delta";
  let moved =
    List.filter
      (fun b ->
        let base = b.bj_value in
        match Hashtbl.find_opt cur (key b) with
        | None ->
          Fmt.pr "%-44s %12.6g %12s %9s@." (key b) base "-" "MISSING";
          true
        | Some v when v = base -> false
        | Some v ->
          let rel =
            if base = 0.0 then infinity else (v -. base) /. Float.abs base
          in
          Fmt.pr "%-44s %12.6g %12.6g %+8.1f%%@." (key b) base v (100.0 *. rel);
          true)
      baseline
  in
  let added =
    List.filter
      (fun r ->
        let fresh = not (Hashtbl.mem in_base (key r)) in
        if fresh then
          Fmt.pr "%-44s %12s %12.6g %9s@." (key r) "-" r.bj_value "NEW";
        fresh)
      current
  in
  let n = List.length moved + List.length added in
  Fmt.pr "@.%d metrics identical, %d moved, missing or new@."
    (List.length baseline - List.length moved) n;
  n
