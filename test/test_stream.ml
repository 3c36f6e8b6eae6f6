(* Stream-graph flow-rate gauges: the rate math survives its edge
   cases (zero-width sampling window, counter wrap) and tracks counts. *)

open Quamachine
open Synthesis
module Sg = Stream_graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fresh () =
  let boot = Boot.boot () in
  (boot, boot.Boot.kernel)

(* ------------------------------------------------------------------ *)
(* Gauge rate math                                                     *)
(* ------------------------------------------------------------------ *)

let test_gauge_zero_width_window () =
  let _boot, k = fresh () in
  let g = Sg.gauge k ~name:"g" in
  let m = k.Kernel.machine in
  Machine.poke m g.Sg.g_cell 500;
  (* no cycles have elapsed since the gauge was created: the sample
     window is zero-width and must not divide by it *)
  let r = Sg.gauge_sample k g in
  check_bool "zero-width window returns the prior rate" true
    (Float.is_finite r);
  Alcotest.(check (float 1e-9)) "prior rate was zero" 0.0 r;
  Alcotest.(check (float 1e-9)) "rate accessor agrees" r (Sg.gauge_rate g)

let test_gauge_counter_wrap () =
  let boot, k = fresh () in
  let g = Sg.gauge k ~name:"g" in
  let m = k.Kernel.machine in
  (* take a real sample with the counter just below 2^32 … *)
  ignore (Boot.go ~max_insns:500 boot);
  Machine.poke m g.Sg.g_cell (Word.mask - 5);
  ignore (Sg.gauge_sample k g);
  let c1 = g.Sg.g_last_cycles in
  (* … let cycles pass, then wrap: 6 more events carry it past 2^32 *)
  ignore (Boot.go ~max_insns:500 boot);
  Machine.poke m g.Sg.g_cell 0;
  let expect = 6.0 *. 1000.0 /. float_of_int (Machine.cycles m - c1) in
  let r = Sg.gauge_sample k g in
  check_bool "wrap-adjusted delta is positive and finite" true
    (Float.is_finite r && r > 0.0);
  Alcotest.(check (float 1e-6)) "delta is exactly 6 events" expect r

let test_gauge_rate_tracks_counts () =
  let boot, k = fresh () in
  let g = Sg.gauge k ~name:"g" in
  let m = k.Kernel.machine in
  ignore (Boot.go ~max_insns:500 boot);
  ignore (Sg.gauge_sample k g);
  let c1 = g.Sg.g_last_cycles in
  Machine.poke m g.Sg.g_cell (Sg.gauge_count k g + 120);
  ignore (Boot.go ~max_insns:500 boot);
  let expect = 120.0 *. 1000.0 /. float_of_int (Machine.cycles m - c1) in
  let r = Sg.gauge_sample k g in
  Alcotest.(check (float 1e-6)) "windowed rate is events per kilocycle" expect
    r;
  check_int "count accessor reads the cell" 120 (Sg.gauge_count k g)

let () =
  Alcotest.run "stream"
    [
      ( "gauges",
        [
          Alcotest.test_case "zero-width window" `Quick
            test_gauge_zero_width_window;
          Alcotest.test_case "counter wrap" `Quick test_gauge_counter_wrap;
          Alcotest.test_case "rate tracks counts" `Quick
            test_gauge_rate_tracks_counts;
        ] );
    ]
