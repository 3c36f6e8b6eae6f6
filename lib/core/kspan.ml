(* Request-scoped causal tracing.  All state here is host-side — span
   bookkeeping never charges simulated cycles, and the probes that
   drive it from synthesized code ([Kernel.Span] bindings) are host
   closures too, so attaching spans changes no simulated cycle. *)

open Quamachine

type phase = Queue_wait | Service | Interrupt

let phase_name = function
  | Queue_wait -> "wait"
  | Service -> "service"
  | Interrupt -> "interrupt"

type span = {
  sp_id : int;
  sp_pipeline : string;
  sp_detail : string;
  sp_opened : int; (* machine cycles *)
  mutable sp_last : int; (* cycles at the previous hop *)
}

(* Per-queue side-table: spans parked between the producer's publish
   and the consumer's drain, FIFO like the queue itself.  Cumulative
   weights (words for pipes, items for queues) match one drain
   against however many enqueues it covered. *)
type qstate = {
  mutable q_cum_put : int;
  mutable q_cum_take : int;
  mutable q_enter : int; (* cycles at stage entry (pipe write entry) *)
  mutable q_last_put : int;
  q_slots : (int * int) Queue.t; (* span id, q_cum_put after its enqueue *)
}

type t = {
  machine : Machine.t;
  metrics : Metrics.t;
  trace : Ktrace.t option;
  mutable next_id : int;
  open_tbl : (int, span) Hashtbl.t;
  queues : (int, qstate) Hashtbl.t;
}

let create ?trace ~metrics machine =
  {
    machine;
    metrics;
    trace;
    next_id = 1;
    open_tbl = Hashtbl.create 32;
    queues = Hashtbl.create 8;
  }

let now t = Machine.cycles t.machine

let emit t kind =
  match t.trace with Some tr -> Ktrace.emit tr kind | None -> ()

let open_count t = Hashtbl.length t.open_tbl

let open_spans t =
  Hashtbl.fold
    (fun _ sp acc -> (sp.sp_id, sp.sp_pipeline, sp.sp_detail, sp.sp_opened) :: acc)
    t.open_tbl []
  |> List.sort compare

let pp_open ppf t =
  match open_spans t with
  | [] -> Fmt.pf ppf "  (none)@."
  | spans ->
    List.iter
      (fun (id, pipeline, detail, opened) ->
        Fmt.pf ppf "  #%-5d %-12s %-24s opened at cycle %d@." id pipeline
          detail opened)
      spans

(* ------------------------------------------------------------------ *)
(* Direct lifecycle *)

let open_at t ~pipeline ~detail ~opened =
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.open_tbl id
    { sp_id = id; sp_pipeline = pipeline; sp_detail = detail; sp_opened = opened;
      sp_last = opened };
  Metrics.bump t.metrics "kspan.opened";
  emit t (Ktrace.Span_open (id, pipeline));
  id

let open_span t ~pipeline ~detail = open_at t ~pipeline ~detail ~opened:(now t)

let hop t id ~stage ~phase =
  match Hashtbl.find_opt t.open_tbl id with
  | None -> Metrics.bump t.metrics "kspan.orphan_hops"
  | Some sp ->
    let c = now t in
    Metrics.observe t.metrics
      (Fmt.str "kspan.%s.%s.%s_cycles" sp.sp_pipeline stage (phase_name phase))
      (c - sp.sp_last);
    sp.sp_last <- c;
    emit t (Ktrace.Span_hop (id, stage ^ "/" ^ phase_name phase))

let close_common t id ~tag ~counter =
  match Hashtbl.find_opt t.open_tbl id with
  | None -> Metrics.bump t.metrics "kspan.orphan_closes"
  | Some sp ->
    Hashtbl.remove t.open_tbl id;
    Metrics.observe t.metrics
      (Fmt.str "kspan.%s.total_cycles" sp.sp_pipeline)
      (now t - sp.sp_opened);
    Metrics.bump t.metrics counter;
    emit t (Ktrace.Span_close (id, match tag with Some s -> s | None -> sp.sp_pipeline))

let close t id = close_common t id ~tag:None ~counter:"kspan.closed"

let fail t id ~reason =
  close_common t id ~tag:(Some ("!" ^ reason)) ~counter:"kspan.failed"

(* ------------------------------------------------------------------ *)
(* Queue carriage *)

let qstate t queue =
  match Hashtbl.find_opt t.queues queue with
  | Some q -> q
  | None ->
    let q =
      { q_cum_put = 0; q_cum_take = 0; q_enter = 0; q_last_put = 0;
        q_slots = Queue.create () }
    in
    Hashtbl.replace t.queues queue q;
    q

let stage_enter t ~queue = (qstate t queue).q_enter <- now t

let enqueue t ~queue ~pipeline ~detail ~stage ~weight =
  let q = qstate t queue in
  let c = now t in
  (* The request existed since the writer entered the stage (or since
     its previous burst published): open the span back then so the
     total includes writer service, and book that service now. *)
  let base = max q.q_enter q.q_last_put in
  let base = if base = 0 || base > c then c else base in
  let id = open_at t ~pipeline ~detail ~opened:base in
  hop t id ~stage ~phase:Service;
  q.q_last_put <- c;
  q.q_cum_put <- q.q_cum_put + max 1 weight;
  Queue.push (id, q.q_cum_put) q.q_slots

let dequeue t ~queue ~stage ~phase ~weight =
  let q = qstate t queue in
  q.q_cum_take <- q.q_cum_take + max 1 weight;
  let rec drain () =
    match Queue.peek_opt q.q_slots with
    | Some (id, covered) when covered <= q.q_cum_take ->
      ignore (Queue.pop q.q_slots);
      hop t id ~stage ~phase;
      close t id;
      drain ()
    | _ -> ()
  in
  drain ()

let queue_put t ~queue ~pipeline ~detail =
  let q = qstate t queue in
  let id = open_span t ~pipeline ~detail in
  q.q_cum_put <- q.q_cum_put + 1;
  Queue.push (id, q.q_cum_put) q.q_slots

let queue_take t ~queue =
  dequeue t ~queue ~stage:"get" ~phase:Queue_wait ~weight:1

let slot_reset t ~queue =
  match Hashtbl.find_opt t.queues queue with
  | None -> ()
  | Some q ->
    Queue.iter (fun (id, _) -> fail t id ~reason:"reset") q.q_slots;
    Queue.clear q.q_slots;
    q.q_cum_put <- 0;
    q.q_cum_take <- 0;
    q.q_enter <- 0;
    q.q_last_put <- 0
