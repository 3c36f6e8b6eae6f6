(* Host-level optimistic queue tests: sequential semantics, property
   tests, and real multi-domain stress (no lost or duplicated items). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Sequential FIFO semantics shared by all queue flavours *)

let test_spsc_fifo () =
  let q = Oq.Spsc.create 8 in
  check_bool "initially empty" true (Oq.Spsc.try_get q = None);
  for i = 1 to 7 do
    check_bool "put" true (Oq.Spsc.try_put q i)
  done;
  check_bool "full rejects" false (Oq.Spsc.try_put q 99);
  for i = 1 to 7 do
    check_int "fifo order" i (match Oq.Spsc.try_get q with Some v -> v | None -> -1)
  done;
  check_bool "drained" true (Oq.Spsc.try_get q = None)

let test_mpsc_fifo () =
  let q = Oq.Mpsc.create 8 in
  for i = 1 to 7 do
    check_bool "put" true (Oq.Mpsc.try_put q i)
  done;
  check_bool "full rejects" false (Oq.Mpsc.try_put q 99);
  for i = 1 to 7 do
    check_int "fifo order" i (match Oq.Mpsc.try_get q with Some v -> v | None -> -1)
  done;
  check_bool "drained" true (Oq.Mpsc.try_get q = None)

let test_mpsc_multi_insert () =
  (* Figure 2: atomic insert of several items. *)
  let q = Oq.Mpsc.create 16 in
  let items = [| 10; 20; 30; 40; 50 |] in
  check_bool "burst accepted" true (Oq.Mpsc.try_put_many q (fun i -> items.(i)) 5);
  check_bool "too-large burst rejected" false
    (Oq.Mpsc.try_put_many q (fun i -> i) 11);
  (* 15 capacity - 5 used = 10 free; a 10-item burst fits *)
  check_bool "exact-fit burst" true (Oq.Mpsc.try_put_many q (fun i -> 100 + i) 10);
  check_bool "now full" false (Oq.Mpsc.try_put q 1);
  Array.iter
    (fun expect ->
      check_int "burst order" expect
        (match Oq.Mpsc.try_get q with Some v -> v | None -> -1))
    items

let test_spmc_fifo () =
  let q = Oq.Spmc.create 8 in
  for i = 1 to 7 do
    check_bool "put" true (Oq.Spmc.try_put q i)
  done;
  check_bool "full rejects" false (Oq.Spmc.try_put q 99);
  for i = 1 to 7 do
    check_int "fifo order" i (match Oq.Spmc.try_get q with Some v -> v | None -> -1)
  done

(* Repro for the SP-MC lap-ABA: consumer A reads tail = 0 and sees
   slot 0 full, then stalls before its claim.  Meanwhile the other
   consumers drain a whole lap, so tail comes back round to slot 0
   before the producer refills it.  With wrapped indices A's CAS 0 -> 1
   still succeeded: A read an empty slot and left tail one past head,
   after which every put reported "full" and every get "empty" — the
   hang of the 3-consumer domain test.  With unbounded tickets A's
   claim fails and it sees an empty queue. *)
let test_spmc_stalled_consumer () =
  let q = Oq.Spmc.create 4 in
  List.iter (fun i -> check_bool "put" true (Oq.Spmc.try_put q i)) [ 1; 2; 3 ];
  let others () =
    List.iter
      (fun i -> check_bool "others drain" true (Oq.Spmc.try_get q = Some i))
      [ 1; 2; 3 ];
    check_bool "producer refills slot 3" true (Oq.Spmc.try_put q 4);
    check_bool "others drain the lap" true (Oq.Spmc.try_get q = Some 4)
  in
  Oq.Fault.before_next_cas others;
  let a = Oq.Spmc.try_get q in
  Oq.Fault.disarm ();
  check_bool "stalled consumer gets nothing" true (a = None);
  check_bool "queue is empty" true (Oq.Spmc.try_get q = None);
  check_bool "producer can still put" true (Oq.Spmc.try_put q 5);
  check_int "and it comes back" 5
    (match Oq.Spmc.try_get q with Some v -> v | None -> -1);
  for i = 6 to 8 do
    check_bool "next lap put" true (Oq.Spmc.try_put q i)
  done;
  check_bool "capacity still size - 1" false (Oq.Spmc.try_put q 9);
  for i = 6 to 8 do
    check_int "next lap fifo" i
      (match Oq.Spmc.try_get q with Some v -> v | None -> -1)
  done

let test_mpmc_fifo () =
  let q = Oq.Mpmc.create 8 in
  for i = 1 to 8 do
    check_bool "put" true (Oq.Mpmc.try_put q i)
  done;
  check_bool "full rejects" false (Oq.Mpmc.try_put q 99);
  for i = 1 to 8 do
    check_int "fifo order" i (match Oq.Mpmc.try_get q with Some v -> v | None -> -1)
  done

let test_dedicated_wrap () =
  let q = Oq.Dedicated.create 4 in
  (* push/pop repeatedly across the wrap boundary *)
  for round = 0 to 20 do
    check_bool "put a" true (Oq.Dedicated.try_put q (round * 2));
    check_bool "put b" true (Oq.Dedicated.try_put q ((round * 2) + 1));
    check_int "get a" (round * 2)
      (match Oq.Dedicated.try_get q with Some v -> v | None -> -1);
    check_int "get b" ((round * 2) + 1)
      (match Oq.Dedicated.try_get q with Some v -> v | None -> -1)
  done

(* ------------------------------------------------------------------ *)
(* Property: any interleaving of puts and gets behaves like a FIFO *)

module type QUEUE = sig
  type 'a t

  val create : int -> 'a t
  val try_put : 'a t -> 'a -> bool
  val try_get : 'a t -> 'a option
end

let fifo_model_agreement (module Q : QUEUE) ops =
  let q = Q.create 16 in
  let model = Queue.create () in
  List.for_all
    (fun op ->
      match op with
      | `Put v ->
        let accepted = Q.try_put q v in
        let model_would = Queue.length model < 15 in
        if accepted then Queue.push v model;
        (* MPMC has capacity 16, others 15; allow either boundary *)
        accepted = model_would || (accepted && Queue.length model <= 16)
      | `Get -> (
        match (Q.try_get q, Queue.is_empty model) with
        | None, true -> true
        | Some v, false -> v = Queue.pop model
        | Some _, true -> false
        | None, false -> false))
    ops

let ops_gen =
  QCheck.Gen.(
    list_size (int_bound 200)
      (frequency [ (3, map (fun v -> `Put v) (int_bound 1000)); (2, return `Get) ]))

let arb_ops =
  QCheck.make ops_gen ~print:(fun ops ->
      String.concat ";"
        (List.map (function `Put v -> Printf.sprintf "put %d" v | `Get -> "get") ops))

let prop_spsc_fifo =
  QCheck.Test.make ~name:"spsc behaves like a FIFO" ~count:300 arb_ops (fun ops ->
      fifo_model_agreement (module Oq.Spsc) ops)

let prop_mpsc_fifo =
  QCheck.Test.make ~name:"mpsc behaves like a FIFO" ~count:300 arb_ops (fun ops ->
      fifo_model_agreement (module Oq.Mpsc) ops)

let prop_spmc_fifo =
  QCheck.Test.make ~name:"spmc behaves like a FIFO" ~count:300 arb_ops (fun ops ->
      fifo_model_agreement (module Oq.Spmc) ops)

let prop_dedicated_fifo =
  QCheck.Test.make ~name:"dedicated behaves like a FIFO" ~count:300 arb_ops (fun ops ->
      fifo_model_agreement (module Oq.Dedicated) ops)

(* ------------------------------------------------------------------ *)
(* Multi-domain stress: no losses, no duplicates, per-producer order *)

let sum_to n = n * (n + 1) / 2

let test_spsc_domains () =
  let q = Oq.Spsc.create 64 in
  let n = 50_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          while not (Oq.Spsc.try_put q i) do
            Domain.cpu_relax ()
          done
        done)
  in
  let total = ref 0 and last = ref 0 and ok = ref true and got = ref 0 in
  while !got < n do
    match Oq.Spsc.try_get q with
    | Some v ->
      if v <= !last then ok := false;
      last := v;
      total := !total + v;
      incr got
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  check_bool "strictly increasing" true !ok;
  check_int "no items lost" (sum_to n) !total

let test_mpsc_domains () =
  let q = Oq.Mpsc.create 64 in
  let producers = 4 and per = 20_000 in
  let doms =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              Oq.Mpsc.put q ((p * per) + i)
            done))
  in
  let seen = Hashtbl.create 1024 in
  let total = producers * per in
  for _ = 1 to total do
    let v = Oq.Mpsc.get q in
    if Hashtbl.mem seen v then Alcotest.failf "duplicate %d" v;
    Hashtbl.replace seen v ()
  done;
  List.iter Domain.join doms;
  check_int "all items arrived exactly once" total (Hashtbl.length seen);
  check_bool "queue drained" true (Oq.Mpsc.try_get q = None)

let test_mpsc_multi_insert_domains () =
  (* Concurrent burst inserts stay contiguous (atomic insert). *)
  let q = Oq.Mpsc.create 128 in
  let producers = 4 and bursts = 3_000 and burst_len = 5 in
  let doms =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            for b = 0 to bursts - 1 do
              let base = (((p * bursts) + b) * burst_len) + 1 in
              let rec try_again () =
                if not (Oq.Mpsc.try_put_many q (fun i -> base + i) burst_len) then begin
                  Domain.cpu_relax ();
                  try_again ()
                end
              in
              try_again ()
            done))
  in
  let total = producers * bursts * burst_len in
  let got = Array.make total 0 in
  for i = 0 to total - 1 do
    got.(i) <- Oq.Mpsc.get q
  done;
  List.iter Domain.join doms;
  (* every burst of 5 must appear contiguously *)
  let i = ref 0 and contiguous = ref true in
  while !i < total do
    let v = got.(!i) in
    if (v - 1) mod burst_len <> 0 then contiguous := false;
    for j = 1 to burst_len - 1 do
      if got.(!i + j) <> v + j then contiguous := false
    done;
    i := !i + burst_len
  done;
  check_bool "bursts are atomic (contiguous)" true !contiguous

let test_spmc_domains () =
  let q = Oq.Spmc.create 64 in
  let consumers = 3 and total = 60_000 in
  let consumed = Atomic.make 0 in
  let sums = Array.make consumers 0 in
  let cons_doms =
    List.init consumers (fun c ->
        Domain.spawn (fun () ->
            let continue = ref true in
            while !continue do
              match Oq.Spmc.try_get q with
              | Some v ->
                sums.(c) <- sums.(c) + v;
                ignore (Atomic.fetch_and_add consumed 1)
              | None ->
                if Atomic.get consumed >= total then continue := false
                else Domain.cpu_relax ()
            done))
  in
  for i = 1 to total do
    while not (Oq.Spmc.try_put q i) do
      Domain.cpu_relax ()
    done
  done;
  List.iter Domain.join cons_doms;
  check_int "sum preserved across consumers" (sum_to total)
    (Array.fold_left ( + ) 0 sums)

let test_mpmc_domains () =
  let q = Oq.Mpmc.create 64 in
  let producers = 3 and consumers = 3 and per = 20_000 in
  let total = producers * per in
  let consumed = Atomic.make 0 in
  let sums = Array.make consumers 0 in
  let prod_doms =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              while not (Oq.Mpmc.try_put q ((p * per) + i)) do
                Domain.cpu_relax ()
              done
            done))
  in
  let cons_doms =
    List.init consumers (fun c ->
        Domain.spawn (fun () ->
            let continue = ref true in
            while !continue do
              match Oq.Mpmc.try_get q with
              | Some v ->
                sums.(c) <- sums.(c) + v;
                ignore (Atomic.fetch_and_add consumed 1)
              | None -> if Atomic.get consumed >= total then continue := false else Domain.cpu_relax ()
            done))
  in
  List.iter Domain.join prod_doms;
  List.iter Domain.join cons_doms;
  let expect = producers * sum_to per |> fun base ->
    base + (per * per * (0 + 1 + 2)) in
  check_int "sum preserved across domains" expect (Array.fold_left ( + ) 0 sums)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "oq"
    [
      ( "sequential",
        [
          Alcotest.test_case "spsc fifo" `Quick test_spsc_fifo;
          Alcotest.test_case "mpsc fifo" `Quick test_mpsc_fifo;
          Alcotest.test_case "mpsc multi-insert" `Quick test_mpsc_multi_insert;
          Alcotest.test_case "spmc fifo" `Quick test_spmc_fifo;
          Alcotest.test_case "spmc stalled consumer (lap-ABA)" `Quick
            test_spmc_stalled_consumer;
          Alcotest.test_case "mpmc fifo" `Quick test_mpmc_fifo;
          Alcotest.test_case "dedicated wrap" `Quick test_dedicated_wrap;
        ] );
      ( "properties",
        qcheck [ prop_spsc_fifo; prop_mpsc_fifo; prop_spmc_fifo; prop_dedicated_fifo ] );
      ( "domains",
        [
          Alcotest.test_case "spsc cross-domain" `Slow test_spsc_domains;
          Alcotest.test_case "mpsc 4 producers" `Slow test_mpsc_domains;
          Alcotest.test_case "mpsc atomic bursts" `Slow test_mpsc_multi_insert_domains;
          Alcotest.test_case "spmc 3 consumers" `Slow test_spmc_domains;
          Alcotest.test_case "mpmc 3x3" `Slow test_mpmc_domains;
        ] );
    ]
