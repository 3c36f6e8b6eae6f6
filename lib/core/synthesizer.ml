(* The quaject creator and interfacer (§2.3).

   A quaject is a collection of procedures and data encapsulating a
   resource.  The *creator* builds one in three stages: allocation
   (kernel memory for the data block and room for code), factorization
   (substitute the quaject's run-time constants into its code
   templates) and optimization (peephole).  The *interfacer* starts
   existing quajects working together in four stages: combination
   (pick the connecting mechanism — procedure call, monitor, queue or
   pump, per the §5.2 case analysis), factorization and optimization
   of the connecting code, and dynamic link (store the synthesized
   entry points into the quajects' operation tables).

   [Ksynth.instantiate] is the factorize+optimize+install engine; this
   module adds the allocation, combination and dynamic-link stages and
   the quaject record itself.  The concrete servers (files, ttys,
   pipes, queues) were built before this vocabulary existed in the
   codebase and call the engine directly; new quajects compose through
   here. *)

open Quamachine

type quaject = {
  qj_name : string;
  qj_data : int; (* the data block *)
  qj_data_words : int;
  (* operation table: named entry points, stored both host-side and in
     the first words of the data block so synthesized code can reach
     them with one indirection *)
  mutable qj_ops : (string * int) list;
}

(* Offset of operation [i] inside the data block's operation table. *)
let op_slot q i = q.qj_data + i

let op_entry q name =
  match List.assoc_opt name q.qj_ops with
  | Some e -> e
  | None -> invalid_arg ("Synthesizer.op_entry: " ^ q.qj_name ^ " has no " ^ name)

(* ---------------------------------------------------------------- *)
(* The creator *)

(* [create k ~name ~data_words ops] — allocation, then per operation
   factorization and optimization.  Each op is (op name, template
   builder); the builder receives [~self] (the data block address) so
   quaject code can address its own state. *)
let create k ~name ~data_words ops =
  (* allocation *)
  let data = Kalloc.alloc_zeroed k.Kernel.alloc (max data_words (List.length ops + 4)) in
  let q = { qj_name = name; qj_data = data; qj_data_words = data_words; qj_ops = [] } in
  (* factorization + optimization, one template per operation *)
  List.iteri
    (fun i (op_name, template) ->
      let entry =
        Ksynth.entry
          (Ksynth.instantiate k
             ~name:(Printf.sprintf "quaject/%s/%s" name op_name)
             ~template:(template ~self:data))
      in
      q.qj_ops <- (op_name, entry) :: q.qj_ops;
      (* dynamic link of the quaject's own table *)
      Machine.poke k.Kernel.machine (op_slot q i) entry;
      Machine.charge_refs k.Kernel.machine 1)
    ops;
  q

(* ---------------------------------------------------------------- *)
(* The interfacer *)

type connection = {
  cn_connector : Quaject.connector;
  cn_call : int; (* code the producer side invokes (Jsr) *)
  cn_queue : Kqueue.t option; (* present for queued connections *)
}

(* Combination: decide the mechanism for [producer op -> consumer op]
   given the endpoints' activity and multiplicity, then synthesize the
   connecting code and link it.

   - procedure call: the connector is a jump straight to the consumer
     operation (Collapsing Layers: the call boundary disappears);
   - monitored call: the same, bracketed by a monitor's enter/exit;
   - queues: an optimistic queue of the right flavour, with the
     producer-side call being the queue's put. *)
let interface k ~name ~producer ~consumer ~consumer_entry () =
  let connector = Quaject.connect ~producer ~consumer in
  match connector with
  | Quaject.Procedure_call ->
    (* combine: a direct jump; factorize+optimize are trivial and the
       dynamic link is the caller using this entry *)
    let entry, _ =
      Ksynth.install k ~name:(name ^ "/call")
        [ Insn.Jmp (Insn.To_addr consumer_entry) ]
    in
    { cn_connector = connector; cn_call = entry; cn_queue = None }
  | Quaject.Monitored_call ->
    let monitor = Quaject.create_monitor k ~name:(name ^ "/mon") in
    let entry, _ =
      Ksynth.install k ~name:(name ^ "/call")
        [
          Insn.Jsr (Insn.To_addr monitor.Quaject.mon_enter);
          Insn.Jsr (Insn.To_addr consumer_entry);
          Insn.Jsr (Insn.To_addr monitor.Quaject.mon_exit);
          Insn.Rts;
        ]
    in
    { cn_connector = connector; cn_call = entry; cn_queue = None }
  | Quaject.Queue_spsc | Quaject.Queue_mpsc | Quaject.Queue_spmc
  | Quaject.Queue_mpmc ->
    let kind =
      match Kqueue.kind_of_connector connector with
      | Some kd -> kd
      | None -> assert false
    in
    let q = Kqueue.create ~kind k ~name:(name ^ "/q") ~size:64 in
    { cn_connector = connector; cn_call = q.Kqueue.q_put; cn_queue = Some q }
  | Quaject.Pump_thread ->
    invalid_arg
      "Synthesizer.interface: a passive-passive connection needs a pump \
       service thread"
