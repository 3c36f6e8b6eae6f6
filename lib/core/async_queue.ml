(* Asynchronous queues (§2.3): "we have the usual two kinds of queues,
   the synchronous queue which blocks at queue full or queue empty,
   and the asynchronous queue which signals at those conditions."

   An asynchronous queue never blocks: put and get return a status.
   The one edge with a receiver raises a signal: a put into an empty
   queue signals the registered consumer ("data available").  The put
   wrapper is synthesized around the underlying optimistic queue's put
   with the descriptor addresses folded in; get is the underlying
   queue's own get. *)

open Quamachine
module I = Insn

type t = {
  aq_queue : Kqueue.t;
  mutable aq_put : int; (* code entry of the signalling put wrapper *)
  aq_get : int;
  mutable aq_consumer : Kernel.tte option;
}

let set_consumer t tte = t.aq_consumer <- Some tte

(* put wrapper: record whether the queue was empty, insert, and on an
   empty->nonempty transition signal the consumer. *)
let put_template ~q ~signal_consumer =
  Template.make ~name:"aq_put" ~params:[] (fun _ ->
      [
        I.Move (I.Abs (Kqueue.head_cell q), I.Reg I.r7);
        I.Cmp (I.Abs (Kqueue.tail_cell q), I.Reg I.r7);
        I.B (I.Ne, I.To_label "had_data");
        I.Move (I.Imm 1, I.Reg I.r7); (* was empty *)
        I.B (I.Always, I.To_label "go");
        I.Label "had_data";
        I.Move (I.Imm 0, I.Reg I.r7);
        I.Label "go";
        I.Jsr (I.To_addr q.Kqueue.q_put);
        I.Tst (I.Reg I.r0);
        I.B (I.Eq, I.To_label "out"); (* full: status 0, no blocking *)
        I.Tst (I.Reg I.r7);
        I.B (I.Eq, I.To_label "out");
        I.Hcall signal_consumer; (* data-available edge *)
        I.Label "out";
        I.Rts;
      ])

let create k ~name ~size =
  let q = Kqueue.create ~kind:Kqueue.Spsc k ~name:(name ^ "/under") ~size in
  let t = { aq_queue = q; aq_put = 0; aq_get = q.Kqueue.q_get; aq_consumer = None } in
  let m = k.Kernel.machine in
  let signal_consumer =
    Machine.register_hcall m (fun _ ->
        match t.aq_consumer with
        | Some tte -> ignore (Thread.deliver_signal k tte)
        | None -> ())
  in
  let put =
    Ksynth.entry
      (Ksynth.instantiate k ~name:(name ^ "/aput")
         ~template:(put_template ~q ~signal_consumer) ~invariants:[])
  in
  (* the hcall closure captured [t]: mutate it rather than rebuild *)
  t.aq_put <- put;
  t
