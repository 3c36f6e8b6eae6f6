(* Windowed rates (Metrics.rate): the rate math survives its edge
   cases (zero-width sampling window, counter wrap) and tracks counts
   read from a machine-word counter cell over simulated cycles. *)

open Quamachine
open Synthesis

let check_bool = Alcotest.(check bool)

(* A booted kernel, a zeroed counter cell, and a rate over it whose
   first window opens now. *)
let fresh () =
  let boot = Boot.boot () in
  let k = boot.Boot.kernel in
  let m = k.Kernel.machine in
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 1 in
  let r = Metrics.rate k.Kernel.metrics "g" ~count:0 ~cycles:(Machine.cycles m) in
  let sample () = Metrics.sample r ~count:(Machine.peek m cell) ~cycles:(Machine.cycles m) in
  let value () = Metrics.gauge_value (Metrics.gauge k.Kernel.metrics "g") in
  (boot, m, cell, sample, value)

(* ------------------------------------------------------------------ *)
(* Rate math                                                           *)
(* ------------------------------------------------------------------ *)

let test_gauge_zero_width_window () =
  let _boot, m, cell, sample, value = fresh () in
  Machine.poke m cell 500;
  (* no cycles have elapsed since the window opened: it is zero-width
     and must not divide by it *)
  sample ();
  let r = value () in
  check_bool "zero-width window returns the prior rate" true
    (Float.is_finite r);
  Alcotest.(check (float 1e-9)) "prior rate was zero" 0.0 r

let test_gauge_counter_wrap () =
  let boot, m, cell, sample, value = fresh () in
  (* take a real sample with the counter just below 2^32 … *)
  ignore (Boot.go ~max_insns:500 boot);
  Machine.poke m cell (Word.mask - 5);
  sample ();
  let c1 = Machine.cycles m in
  (* … let cycles pass, then wrap: 6 more events carry it past 2^32 *)
  ignore (Boot.go ~max_insns:500 boot);
  Machine.poke m cell 0;
  let expect = 6.0 *. 1000.0 /. float_of_int (Machine.cycles m - c1) in
  sample ();
  let r = value () in
  check_bool "wrap-adjusted delta is positive and finite" true
    (Float.is_finite r && r > 0.0);
  Alcotest.(check (float 1e-6)) "delta is exactly 6 events" expect r

let test_gauge_rate_tracks_counts () =
  let boot, m, cell, sample, value = fresh () in
  ignore (Boot.go ~max_insns:500 boot);
  sample ();
  let c1 = Machine.cycles m in
  Machine.poke m cell (Machine.peek m cell + 120);
  ignore (Boot.go ~max_insns:500 boot);
  let expect = 120.0 *. 1000.0 /. float_of_int (Machine.cycles m - c1) in
  sample ();
  Alcotest.(check (float 1e-6)) "windowed rate is events per kilocycle" expect
    (value ())

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
