(* Asynchronous queues (§2.3): "we have the usual two kinds of queues,
   the synchronous queue which blocks at queue full or queue empty,
   and the asynchronous queue which signals at those conditions."

   An asynchronous queue never blocks: put and get return a status,
   and the interesting *edges* raise signals — a put into an empty
   queue signals the registered consumer ("data available"), a get
   from a full queue signals the registered producer ("space
   available").  The wrappers are synthesized around the underlying
   optimistic queue's code with the descriptor addresses folded in. *)

open Quamachine
module I = Insn

type t = {
  aq_queue : Kqueue.t;
  mutable aq_put : int; (* code entries of the signalling wrappers *)
  mutable aq_get : int;
  mutable aq_consumer : Kernel.tte option;
  mutable aq_producer : Kernel.tte option;
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

(* get wrapper: record whether the queue was full, remove, and on a
   full->not-full transition signal the producer. *)
let get_template ~q ~signal_producer =
  Template.make ~name:"aq_get" ~params:[] (fun _ ->
      [
        (* full iff next(head) = tail *)
        I.Move (I.Abs (Kqueue.head_cell q), I.Reg I.r7);
        I.Alu (I.Add, I.Imm 1, I.r7);
        I.Cmp (I.Imm q.Kqueue.q_size, I.Reg I.r7);
        I.B (I.Ne, I.To_label "nowrap");
        I.Move (I.Imm 0, I.Reg I.r7);
        I.Label "nowrap";
        I.Cmp (I.Abs (Kqueue.tail_cell q), I.Reg I.r7);
        I.B (I.Eq, I.To_label "was_full");
        I.Move (I.Imm 0, I.Reg I.r7);
        I.B (I.Always, I.To_label "go");
        I.Label "was_full";
        I.Move (I.Imm 1, I.Reg I.r7);
        I.Label "go";
        I.Jsr (I.To_addr q.Kqueue.q_get);
        I.Tst (I.Reg I.r0);
        I.B (I.Eq, I.To_label "out"); (* empty: status 0 *)
        I.Tst (I.Reg I.r7);
        I.B (I.Eq, I.To_label "out");
        I.Hcall signal_producer; (* space-available edge *)
        I.Label "out";
        I.Rts;
      ])

let create k ~name ~size =
  let q = Kqueue.create ~kind:Kqueue.Spsc k ~name:(name ^ "/under") ~size in
  let t = { aq_queue = q; aq_put = 0; aq_get = 0; aq_consumer = None; aq_producer = None } in
  let m = k.Kernel.machine in
  let signal_consumer =
    Machine.register_hcall m (fun _ ->
        match t.aq_consumer with
        | Some tte -> ignore (Thread.deliver_signal k tte)
        | None -> ())
  in
  let signal_producer =
    Machine.register_hcall m (fun _ ->
        match t.aq_producer with
        | Some tte -> ignore (Thread.deliver_signal k tte)
        | None -> ())
  in
  let put =
    Ksynth.entry
      (Ksynth.instantiate k ~name:(name ^ "/aput")
         ~template:(put_template ~q ~signal_consumer) ~invariants:[])
  in
  let get =
    Ksynth.entry
      (Ksynth.instantiate k ~name:(name ^ "/aget")
         ~template:(get_template ~q ~signal_producer) ~invariants:[])
  in
  (* the hcall closures captured [t]: mutate it rather than rebuild *)
  t.aq_put <- put;
  t.aq_get <- get;
  t
