(* Quaject building blocks and the interfacer's connection analysis
   (§2.3, §5.2).

   Quajects are built from a small set of blocks, each implemented
   once: queues (Kqueue), the monitor (here), the switch (kserve's
   (slot, op) jump table), the pump (a service thread, as tty's screen
   pump) and gauges (the scheduler's per-thread counters, and the
   counters whose windowed rate [Metrics.rate] gives policy).  The
   quaject interfacer picks
   the cheapest connector for each producer/consumer pairing by the
   case analysis of §5.2 — applying the principle of frugality:

     active/passive, single/single      -> procedure call
     active/passive, multiple end       -> monitor + procedure call
     active/active,  single/single      -> SP-SC queue
     active/active,  multiple producers -> MP-SC queue (etc.)
     passive/passive                    -> pump

   [connect] encodes that analysis; the examples and the tty/audio
   servers use it to justify the connector they instantiate. *)

open Quamachine
module I = Insn

type endpoint = Active | Passive
type multiplicity = Single | Multiple

(* One end of a connection, named: [end_] says whether the participant
   drives control flow, [mult] how many participants share the end. *)
type port = { end_ : endpoint; mult : multiplicity }

let port ?(mult = Single) end_ = { end_; mult }

type connector =
  | Procedure_call
  | Monitored_call
  | Queue_spsc
  | Queue_mpsc
  | Queue_spmc
  | Queue_mpmc
  | Pump_thread

let connect ~producer ~consumer =
  match (producer, consumer) with
  | { end_ = Active; _ }, { end_ = Passive; mult = Single }
  | { end_ = Passive; mult = Single }, { end_ = Active; _ } ->
    (* one side drives the other directly: collapse to a call *)
    Procedure_call
  | { end_ = Active; _ }, { end_ = Passive; mult = Multiple }
  | { end_ = Passive; mult = Multiple }, { end_ = Active; _ } ->
    Monitored_call
  | { end_ = Active; mult = Single }, { end_ = Active; mult = Single } ->
    Queue_spsc
  | { end_ = Active; mult = Multiple }, { end_ = Active; mult = Single } ->
    Queue_mpsc
  | { end_ = Active; mult = Single }, { end_ = Active; mult = Multiple } ->
    Queue_spmc
  | { end_ = Active; mult = Multiple }, { end_ = Active; mult = Multiple } ->
    Queue_mpmc
  | { end_ = Passive; _ }, { end_ = Passive; _ } -> Pump_thread

let connector_name = function
  | Procedure_call -> "procedure call"
  | Monitored_call -> "monitor + procedure call"
  | Queue_spsc -> "SP-SC optimistic queue"
  | Queue_mpsc -> "MP-SC optimistic queue"
  | Queue_spmc -> "SP-MC optimistic queue"
  | Queue_mpmc -> "MP-MC optimistic queue"
  | Pump_thread -> "pump"

(* ---------------------------------------------------------------- *)
(* Monitor: serializes multiple participants at one end of a
   connection.  enter/exit are synthesized around a CAS spin lock;
   uncontended cost is one CAS. *)

type monitor = { mon_lock : int; mon_enter : int; mon_exit : int }

let create_monitor k ~name =
  let lock = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
  let enter, _ =
    Ksynth.install k ~name:(name ^ "/enter")
      [
        I.Label "spin";
        I.Move (I.Imm 0, I.Reg I.r4);
        I.Move (I.Imm 1, I.Reg I.r5);
        I.Cas (I.r4, I.r5, I.Abs lock);
        I.B (I.Ne, I.To_label "spin");
        I.Rts;
      ]
  in
  let exit, _ =
    Ksynth.install k ~name:(name ^ "/exit")
      [ I.Move (I.Imm 0, I.Abs lock); I.Rts ]
  in
  { mon_lock = lock; mon_enter = enter; mon_exit = exit }
