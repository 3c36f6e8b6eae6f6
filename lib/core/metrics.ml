(* A small counter/gauge registry plus the scheduler's typed epoch
   history.  Everything here is host-side bookkeeping: reading or
   updating a metric never charges simulated cycles. *)

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float }

type epoch_entry = { ep_tid : int; ep_rate : int; ep_quantum : int }
type epoch_record = { ep_time_us : float; ep_entries : epoch_entry list }

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  hists : (string, Histogram.t) Hashtbl.t;
  mutable epochs : epoch_record list; (* newest first *)
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    hists = Hashtbl.create 8;
    epochs = [];
  }

(* ------------------------------------------------------------------ *)
(* Well-known names: the ksynth cache's counters and the peak code
   footprint gauge, spelled once so the cache, the profiler and the
   dumps agree. *)

let synth_cache_hits = "kernel.synth_cache_hits_total"
let synth_cache_misses = "kernel.synth_cache_misses_total"
let synth_cache_evictions = "kernel.synth_cache_evictions_total"
let synth_cache_resynth = "kernel.synth_cache_resynth_total"
let code_bytes_peak = "kernel.code_bytes_peak"

(* ------------------------------------------------------------------ *)
(* Counters *)

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.replace t.counters name c;
    c

let counter_value c = c.c_value

(* Bump a counter by name: convenience for call sites that fire
   rarely enough that the hash lookup doesn't matter. *)
let bump t name =
  let c = counter t name in
  c.c_value <- c.c_value + 1

let read t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c.c_value
  | None -> 0

(* ------------------------------------------------------------------ *)
(* Gauges *)

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_value = 0.0 } in
    Hashtbl.replace t.gauges name g;
    g

let set_gauge g v = g.g_value <- v
let gauge_value g = g.g_value

(* Windowed rates (§3's gauge as policy reads it): a counter that
   synthesized code or a device ticks, sampled once per window into a
   named gauge in events per kilocycle.  The counter is a 32-bit
   machine word, so the delta is taken modulo 2^32 (counter wrap is one
   subtraction away from correct); a zero-width window keeps the
   previous rate rather than dividing by zero. *)

type rate = { r_gauge : gauge; mutable r_count : int; mutable r_cycles : int }

let rate t name ~count ~cycles = { r_gauge = gauge t name; r_count = count; r_cycles = cycles }

let sample r ~count ~cycles =
  let dt = cycles - r.r_cycles in
  if dt > 0 then begin
    let dc = (count - r.r_count) land Quamachine.Word.mask in
    r.r_gauge.g_value <- 1000.0 *. float_of_int dc /. float_of_int dt;
    r.r_count <- count;
    r.r_cycles <- cycles
  end

(* ------------------------------------------------------------------ *)
(* Histograms *)

let histogram t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
    let h = Histogram.create () in
    Hashtbl.replace t.hists name h;
    h

let observe t name v = Histogram.record (histogram t name) v

let histograms t =
  Hashtbl.fold (fun n h acc -> (n, h) :: acc) t.hists []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Scheduler epochs *)

let record_epoch t r = t.epochs <- r :: t.epochs
let epoch_history t = t.epochs
let epoch_count t = List.length t.epochs

(* ------------------------------------------------------------------ *)
(* Dumping *)

let counters t =
  Hashtbl.fold (fun _ c acc -> (c.c_name, c.c_value) :: acc) t.counters []
  |> List.sort compare

let gauges t =
  Hashtbl.fold (fun _ g acc -> (g.g_name, g.g_value) :: acc) t.gauges []
  |> List.sort compare

let pp ppf t =
  List.iter (fun (n, v) -> Fmt.pf ppf "%-40s %d@." n v) (counters t);
  List.iter (fun (n, v) -> Fmt.pf ppf "%-40s %g@." n v) (gauges t);
  List.iter (fun (n, h) -> Fmt.pf ppf "%-40s %a@." n Histogram.pp h)
    (histograms t);
  if t.epochs <> [] then
    Fmt.pf ppf "%-40s %d@." "scheduler.epochs.recorded" (List.length t.epochs)
