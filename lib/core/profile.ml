(* kperf profiler: turns the PMU's pc samples and ktrace's owner
   attribution into readable profiles of the synthesized kernel.

   Two views of the same run:

   - the per-owner profile is *exact*: it reads the machine's cycle
     attribution (every elapsed cycle lands on exactly one owner), so
     the per-routine totals — plus a "(boot, pre-attach)" line for
     cycles spent before tracing was attached — sum to the machine's
     cycle total to the cycle;
   - the flat profile is *sampled*: the PMU's timer-driven pc samples,
     aggregated per code address and labelled with the synthesized
     routine that owns the address (via the kernel registry), show
     where inside a routine the time goes.

   Which synthesized code is hot stops being guesswork: the context
   switch, pipe put/get, and interrupt paths show up by name with
   cycle percentages.  `synthesis_cli profile` prints this and exports
   it as JSON. *)

open Quamachine

type line = { l_name : string; l_cycles : int; l_share : float }

type t = {
  p_total : int; (* machine cycle total; the owner lines sum to it *)
  p_owners : line list; (* exact, biggest first *)
  p_flat : (int * string * int) list; (* addr, owning routine, weight *)
  p_sample_count : int;
  p_sampled_cycles : int;
  p_period : int; (* 0 = sampling was off *)
  p_synth : Ksynth.stats; (* synthesis-cache counters for the run *)
  p_hist : (string * Histogram.t) list; (* kspan latency histograms *)
}

let boot_line_name = "(boot, pre-attach)"

(* sampled addresses [collect] keeps, and lines [pp] prints per list *)
let flat_kept = 24
let pp_lines = 16

let collect k pmu =
  let m = k.Kernel.machine in
  let total = Machine.cycles m in
  let owners =
    match k.Kernel.ktrace with
    | Some tr ->
      let attributed = Ktrace.attributed_total tr in
      let lines =
        List.map
          (fun (name, cy) -> { l_name = name; l_cycles = cy; l_share = 0.0 })
          (Ktrace.owner_cycles tr)
      in
      (* cycles from before the attribution window opened, so the
         report partitions the whole machine total *)
      if total > attributed then
        lines
        @ [ { l_name = boot_line_name; l_cycles = total - attributed; l_share = 0.0 } ]
      else lines
    | None -> [ { l_name = "(unattributed)"; l_cycles = total; l_share = 0.0 } ]
  in
  let owners =
    List.map
      (fun l ->
        { l with l_share = 100.0 *. float_of_int l.l_cycles /. float_of_int (max 1 total) })
      owners
    |> List.sort (fun a b -> compare b.l_cycles a.l_cycles)
  in
  let flat =
    Pmu.sample_histogram pmu
    |> List.filteri (fun i _ -> i < flat_kept)
    |> List.map (fun (addr, w) ->
           let name =
             match Kernel.find_region k addr with
             | Some p -> p.Kernel.sp_name
             | None -> "(user/unowned)"
           in
           (addr, name, w))
  in
  {
    p_total = total;
    p_owners = owners;
    p_flat = flat;
    p_sample_count = Pmu.sample_count pmu;
    p_sampled_cycles = Pmu.sampled_cycles pmu;
    p_period = Pmu.sampling_period pmu;
    p_synth = Ksynth.stats k;
    p_hist = Metrics.histograms k.Kernel.metrics;
  }

(* The exactness invariant the CLI and tests assert. *)
let owners_total t = List.fold_left (fun a l -> a + l.l_cycles) 0 t.p_owners
let balanced t = owners_total t = t.p_total

let pp ppf t =
  Fmt.pf ppf "kperf profile: %d machine cycles, %d pc samples" t.p_total
    t.p_sample_count;
  if t.p_period > 0 then
    Fmt.pf ppf " (every %d cycles, %d cycles sampled)" t.p_period
      t.p_sampled_cycles;
  Fmt.pf ppf "@.@.cycles by owner (exact attribution):@.";
  List.iteri
    (fun i l ->
      if i < pp_lines then
        Fmt.pf ppf "  %10d cycles %5.1f%%  %s@." l.l_cycles l.l_share l.l_name)
    t.p_owners;
  if t.p_flat <> [] then begin
    Fmt.pf ppf "@.hottest sampled addresses:@.";
    List.iteri
      (fun i (addr, name, w) ->
        if i < pp_lines then Fmt.pf ppf "  %10d cycles  @%-6d %s@." w addr name)
      t.p_flat
  end;
  if t.p_hist <> [] then begin
    Fmt.pf ppf "@.latency histograms (kspan):@.";
    List.iter
      (fun (n, h) -> Fmt.pf ppf "  %-40s %a@." n Histogram.pp h)
      t.p_hist
  end;
  let s = t.p_synth in
  Fmt.pf ppf
    "@.synthesis cache: %d hits, %d misses, %d evictions, %d resynthesized; %d \
     pages cached, %d words live / %d reserved@."
    s.Ksynth.st_hits s.Ksynth.st_misses s.Ksynth.st_evictions s.Ksynth.st_resynth
    s.Ksynth.st_cached_pages s.Ksynth.st_live_words s.Ksynth.st_footprint_words

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Fmt.str
       "{\"total_cycles\":%d,\"sample_period\":%d,\"samples\":%d,\"sampled_cycles\":%d,\n\
        \"owners\":["
       t.p_total t.p_period t.p_sample_count t.p_sampled_cycles);
  List.iteri
    (fun i l ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Fmt.str "\n{\"name\":\"%s\",\"cycles\":%d,\"share\":%.3f}"
           (json_escape l.l_name) l.l_cycles l.l_share))
    t.p_owners;
  Buffer.add_string b "\n],\n\"histograms\":[";
  List.iteri
    (fun i (n, h) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Fmt.str
           "\n{\"name\":\"%s\",\"count\":%d,\"min\":%d,\"mean\":%.1f,\"p50\":%d,\"p90\":%d,\"p99\":%d,\"p999\":%d,\"max\":%d}"
           (json_escape n) (Histogram.count h) (Histogram.min_value h)
           (Histogram.mean h) (Histogram.quantile h 0.50)
           (Histogram.quantile h 0.90) (Histogram.quantile h 0.99)
           (Histogram.quantile h 0.999) (Histogram.max_value h)))
    t.p_hist;
  Buffer.add_string b "\n],\n\"flat\":[";
  List.iteri
    (fun i (addr, name, w) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Fmt.str "\n{\"addr\":%d,\"routine\":\"%s\",\"weight\":%d}" addr
           (json_escape name) w))
    t.p_flat;
  let s = t.p_synth in
  Buffer.add_string b
    (Fmt.str
       "\n\
        ],\n\
        \"synth_cache\":{\"hits\":%d,\"misses\":%d,\"evictions\":%d,\"resynth\":%d,\n\
        \"cached_pages\":%d,\"live_words\":%d,\"footprint_words\":%d,\"code_bytes_peak\":%d}}\n"
       s.Ksynth.st_hits s.Ksynth.st_misses s.Ksynth.st_evictions
       s.Ksynth.st_resynth s.Ksynth.st_cached_pages s.Ksynth.st_live_words
       s.Ksynth.st_footprint_words (4 * s.Ksynth.st_footprint_words));
  Buffer.contents b
