(* Synthesized kernel queues (Figures 1 and 2).

   Most Synthesis kernel data structures are queues; once queue
   operations synchronize without locking, most of the kernel runs
   without locking (§3.2).  These templates generate the queue code
   with the descriptor addresses folded in.  The generated routines
   are kernel subroutines: item in r1, status returned in r0
   (1 = done, 0 = would block), clobbering r4..r7.

   The MP-SC put is the paper's measured path: 11 instructions on the
   68020 for the normal case, ~20 with one CAS retry.  The benchmark
   suite counts the executed instructions of our generated code and
   reports them next to the paper's numbers. *)

open Quamachine
module I = Insn

type kind = Spsc | Mpsc | Spmc | Mpmc

type t = {
  q_kind : kind;
  q_name : string;
  q_desc : int; (* [desc]=head, [desc+1]=tail *)
  q_buf : int;
  q_flag : int; (* flag array base (MP-SC); 0 for SP-SC *)
  q_size : int;
  q_put : int; (* code entries *)
  q_get : int;
  q_put_many : int; (* 0 when absent *)
}

let head_cell q = q.q_desc
let tail_cell q = q.q_desc + 1

(* ---------------------------------------------------------------- *)
(* Templates *)

(* Figure 1, Q_put: publish the item before advancing Q_head, so the
   consumer never sees a half-written slot. *)
let spsc_put_template ~head ~tail ~buf ~size =
  Template.make ~name:"spsc_put" (fun () ->
      [
        I.Move (I.Abs head, I.Reg I.r4); (* h *)
        I.Move (I.Reg I.r4, I.Reg I.r5);
        I.Alu (I.Add, I.Imm 1, I.r5); (* next(h) *)
        I.Cmp (I.Imm size, I.Reg I.r5);
        I.B (I.Ne, I.To_label "nowrap");
        I.Move (I.Imm 0, I.Reg I.r5);
        I.Label "nowrap";
        I.Cmp (I.Abs tail, I.Reg I.r5); (* next(h) = tail -> full *)
        I.B (I.Eq, I.To_label "full");
        I.Alu (I.Add, I.Imm buf, I.r4);
        I.Move (I.Reg I.r1, I.Ind I.r4); (* fill slot *)
        I.Move (I.Reg I.r5, I.Abs head); (* publish last *)
        I.Move (I.Imm 1, I.Reg I.r0);
        I.Probe "ret";
        I.Rts;
        I.Label "full";
        I.Move (I.Imm 0, I.Reg I.r0);
        I.Probe "ret";
        I.Rts;
      ])

(* Figure 1, Q_get. *)
let spsc_get_template ~head ~tail ~buf ~size =
  Template.make ~name:"spsc_get" (fun () ->
      [
        I.Move (I.Abs tail, I.Reg I.r4); (* t *)
        I.Cmp (I.Abs head, I.Reg I.r4);
        I.B (I.Eq, I.To_label "empty");
        I.Move (I.Reg I.r4, I.Reg I.r5);
        I.Alu (I.Add, I.Imm buf, I.r5);
        I.Move (I.Ind I.r5, I.Reg I.r1); (* take item *)
        I.Alu (I.Add, I.Imm 1, I.r4);
        I.Cmp (I.Imm size, I.Reg I.r4);
        I.B (I.Ne, I.To_label "nowrap");
        I.Move (I.Imm 0, I.Reg I.r4);
        I.Label "nowrap";
        I.Move (I.Reg I.r4, I.Abs tail); (* free slot last *)
        I.Move (I.Imm 1, I.Reg I.r0);
        I.Probe "ret";
        I.Rts;
        I.Label "empty";
        I.Move (I.Imm 0, I.Reg I.r0);
        I.Probe "ret";
        I.Rts;
      ])

(* Slot-flag states shared by all multi-producer/multi-consumer
   queues.  The kfault interleaving explorer found the original
   claim-by-CAS-on-the-index protocol unsound under preemption: a
   claimant descheduled between its index CAS and its flag update
   leaves a stale flag that, one ring lap later, double-delivers the
   slot (consumer side) or overwrites an unconsumed item via index ABA
   (producer side).  The hardened protocol claims the slot *flag*
   first — CAS 0->3 to write, CAS 1->2 to read — then validates the
   index and backs the claim out if it was stale.  While a claim is
   held the ring wedges at that slot, so the index provably cannot lap
   it: the validation read is conclusive and the index advance needs
   no CAS (the claimant owns that transition). *)
let fl_free = 0 (* drained: the producer may fill it *)

let fl_full = 1 (* published: the consumer may drain it *)
let fl_reading = 2 (* claimed by a consumer, not yet drained *)
let fl_writing = 3 (* claimed by a producer, not yet published *)

(* MP put (single-item, any number of consumers): claim the head
   slot's flag (0 -> 3), validate Q_head, advance it, fill, publish
   (flag := 1).  Figure 2 with H = 1, hardened as above.  A failed CAS
   leaves r6 holding the observed flag (68020 CAS semantics), which
   only the full/busy exit consumes. *)
let mp_put_body ~head ~tail ~buf ~flag ~size () =
  [
    I.Label "retry";
    I.Move (I.Abs head, I.Reg I.r4); (* h *)
    I.Move (I.Reg I.r4, I.Reg I.r5);
    I.Alu (I.Add, I.Imm flag, I.r5); (* r5 = &flag[h] *)
    I.Move (I.Imm fl_free, I.Reg I.r6);
    I.Move (I.Imm fl_writing, I.Reg I.r7);
    I.Cas (I.r6, I.r7, I.Ind I.r5); (* claim the slot *)
    I.B (I.Ne, I.To_label "busy"); (* lapped (full) or being written *)
    I.Cmp (I.Abs head, I.Reg I.r4);
    I.B (I.Ne, I.To_label "stale"); (* head moved first: not our slot *)
    I.Move (I.Reg I.r4, I.Reg I.r6);
    I.Alu (I.Add, I.Imm 1, I.r6);
    I.Cmp (I.Imm size, I.Reg I.r6);
    I.B (I.Ne, I.To_label "nowrap");
    I.Move (I.Imm 0, I.Reg I.r6);
    I.Label "nowrap";
    I.Cmp (I.Abs tail, I.Reg I.r6);
    I.B (I.Eq, I.To_label "unclaim_full");
    I.Move (I.Reg I.r6, I.Abs head); (* we own this transition *)
    I.Move (I.Reg I.r4, I.Reg I.r6);
    I.Alu (I.Add, I.Imm buf, I.r6);
    I.Move (I.Reg I.r1, I.Ind I.r6); (* fill *)
    I.Move (I.Imm fl_full, I.Ind I.r5); (* publish *)
    I.Move (I.Imm 1, I.Reg I.r0);
    I.Probe "ret";
    I.Rts;
    I.Label "stale";
    I.Move (I.Imm fl_free, I.Ind I.r5); (* back out, take a fresh head *)
    I.B (I.Always, I.To_label "retry");
    I.Label "unclaim_full";
    I.Move (I.Imm fl_free, I.Ind I.r5);
    I.Label "busy";
    I.Move (I.Imm 0, I.Reg I.r0);
    I.Probe "ret";
    I.Rts;
  ]

let mpsc_put_template ~head ~tail ~buf ~flag ~size =
  Template.make ~name:"mpsc_put" (mp_put_body ~head ~tail ~buf ~flag ~size)

(* MP-SC get: the single consumer trusts only the flags.  The flag
   must equal [fl_full] exactly — a producer descheduled mid-write
   leaves [fl_writing], whose buffer word is not yet valid. *)
let mpsc_get_template ~tail ~buf ~flag ~size =
  Template.make ~name:"mpsc_get" (fun () ->
      [
        I.Move (I.Abs tail, I.Reg I.r4);
        I.Move (I.Reg I.r4, I.Reg I.r5);
        I.Alu (I.Add, I.Imm flag, I.r5);
        I.Cmp (I.Imm fl_full, I.Ind I.r5);
        I.B (I.Ne, I.To_label "empty");
        I.Move (I.Imm 0, I.Ind I.r5); (* consume the flag *)
        I.Move (I.Reg I.r4, I.Reg I.r5);
        I.Alu (I.Add, I.Imm buf, I.r5);
        I.Move (I.Ind I.r5, I.Reg I.r1);
        I.Alu (I.Add, I.Imm 1, I.r4);
        I.Cmp (I.Imm size, I.Reg I.r4);
        I.B (I.Ne, I.To_label "nowrap");
        I.Move (I.Imm 0, I.Reg I.r4);
        I.Label "nowrap";
        I.Move (I.Reg I.r4, I.Abs tail);
        I.Move (I.Imm 1, I.Reg I.r0);
        I.Probe "ret";
        I.Rts;
        I.Label "empty";
        I.Move (I.Imm 0, I.Reg I.r0);
        I.Probe "ret";
        I.Rts;
      ])

(* Figure 2 proper: atomic insert of r3 items read from (r2)+.  Either
   claims space for the whole burst or fails without side effects.
   The head slot's flag claim is the producers' mutex: while we hold
   it no other producer can pass slot h, so the space check, the head
   advance, and the burst fill are all safely ours. *)
let mpsc_put_many_template ~head ~tail ~buf ~flag ~size =
  Template.make ~name:"mpsc_put_many" (fun () ->
      [
        I.Label "retry";
        I.Move (I.Abs head, I.Reg I.r4); (* h *)
        I.Move (I.Reg I.r4, I.Reg I.r5);
        I.Alu (I.Add, I.Imm flag, I.r5); (* r5 = &flag[h] *)
        I.Move (I.Imm fl_free, I.Reg I.r6);
        I.Move (I.Imm fl_writing, I.Reg I.r7);
        I.Cas (I.r6, I.r7, I.Ind I.r5); (* claim the head slot *)
        I.B (I.Ne, I.To_label "full"); (* lapped or being written *)
        I.Cmp (I.Abs head, I.Reg I.r4);
        I.B (I.Ne, I.To_label "stale");
        (* SpaceLeft(h): (tail - h - 1 + size) adjusted into range *)
        I.Move (I.Abs tail, I.Reg I.r6);
        I.Alu (I.Sub, I.Reg I.r4, I.r6);
        I.Alu (I.Add, I.Imm (size - 1), I.r6);
        I.Cmp (I.Imm size, I.Reg I.r6);
        I.B (I.Lt, I.To_label "nomod");
        I.Alu (I.Sub, I.Imm size, I.r6);
        I.Label "nomod";
        I.Cmp (I.Reg I.r3, I.Reg I.r6); (* space - H *)
        I.B (I.Cs, I.To_label "unclaim_full"); (* space < H *)
        (* hi = AddWrap(h, H); the claim makes the transition ours *)
        I.Move (I.Reg I.r4, I.Reg I.r6);
        I.Alu (I.Add, I.Reg I.r3, I.r6);
        I.Cmp (I.Imm size, I.Reg I.r6);
        I.B (I.Lt, I.To_label "nowrap");
        I.Alu (I.Sub, I.Imm size, I.r6);
        I.Label "nowrap";
        I.Move (I.Reg I.r6, I.Abs head);
        (* fill the claimed slots, publishing each in order (slot h's
           flag goes 3 -> 1 on its turn, releasing waiting peers) *)
        I.Move (I.Reg I.r3, I.Reg I.r7);
        I.Alu (I.Sub, I.Imm 1, I.r7);
        I.Label "fill";
        I.Move (I.Reg I.r4, I.Reg I.r6);
        I.Alu (I.Add, I.Imm buf, I.r6);
        I.Move (I.Post_inc I.r2, I.Ind I.r6);
        I.Move (I.Reg I.r4, I.Reg I.r6);
        I.Alu (I.Add, I.Imm flag, I.r6);
        I.Move (I.Imm fl_full, I.Ind I.r6);
        I.Alu (I.Add, I.Imm 1, I.r4);
        I.Cmp (I.Imm size, I.Reg I.r4);
        I.B (I.Ne, I.To_label "nf");
        I.Move (I.Imm 0, I.Reg I.r4);
        I.Label "nf";
        I.Dbra (I.r7, I.To_label "fill");
        I.Move (I.Imm 1, I.Reg I.r0);
        I.Rts;
        I.Label "stale";
        I.Move (I.Imm fl_free, I.Ind I.r5);
        I.B (I.Always, I.To_label "retry");
        I.Label "unclaim_full";
        I.Move (I.Imm fl_free, I.Ind I.r5);
        I.Label "full";
        I.Move (I.Imm 0, I.Reg I.r0);
        I.Rts;
      ])

(* MC get (any number of producers): consumers race on the tail
   slot's *flag* with CAS (1 -> 2), validate Q_tail, advance it, read,
   then release the slot to the producer (flag := 0).  Claiming the
   publication itself (not the index) means a consumer descheduled
   mid-read leaves the slot visibly claimed: peers see flag=2 and
   wait, the producer sees flag<>0 and waits — nobody can consume it
   twice or overwrite it (§3.2, hardened; see the state table above). *)
let spmc_get_template ~tail ~buf ~flag ~size =
  Template.make ~name:"spmc_get" (fun () ->
      [
        I.Label "retry";
        I.Move (I.Abs tail, I.Reg I.r4); (* t *)
        I.Move (I.Reg I.r4, I.Reg I.r5);
        I.Alu (I.Add, I.Imm flag, I.r5); (* r5 = &flag[t] *)
        I.Move (I.Imm fl_full, I.Reg I.r6);
        I.Move (I.Imm fl_reading, I.Reg I.r7);
        I.Cas (I.r6, I.r7, I.Ind I.r5); (* claim the publication *)
        I.B (I.Ne, I.To_label "empty"); (* unpublished, or claimant mid-read *)
        I.Cmp (I.Abs tail, I.Reg I.r4);
        I.B (I.Ne, I.To_label "stale"); (* tail moved first: not our slot *)
        I.Move (I.Reg I.r4, I.Reg I.r6);
        I.Alu (I.Add, I.Imm 1, I.r6);
        I.Cmp (I.Imm size, I.Reg I.r6);
        I.B (I.Ne, I.To_label "nowrap");
        I.Move (I.Imm 0, I.Reg I.r6);
        I.Label "nowrap";
        I.Move (I.Reg I.r6, I.Abs tail); (* we own this transition *)
        I.Move (I.Reg I.r4, I.Reg I.r6);
        I.Alu (I.Add, I.Imm buf, I.r6);
        I.Move (I.Ind I.r6, I.Reg I.r1); (* read *)
        I.Move (I.Imm fl_free, I.Ind I.r5); (* release to the producer *)
        I.Move (I.Imm 1, I.Reg I.r0);
        I.Probe "ret";
        I.Rts;
        I.Label "stale";
        I.Move (I.Imm fl_full, I.Ind I.r5); (* give the claim back *)
        I.B (I.Always, I.To_label "retry");
        I.Label "empty";
        I.Move (I.Imm 0, I.Reg I.r0);
        I.Probe "ret";
        I.Rts;
      ])

(* SP-MC put: the single producer writes only slots whose flag has
   been cleared by the consumer that drained them. *)
let spmc_put_template ~head ~tail ~buf ~flag ~size =
  Template.make ~name:"spmc_put" (fun () ->
      [
        I.Move (I.Abs head, I.Reg I.r4);
        I.Move (I.Reg I.r4, I.Reg I.r5);
        I.Alu (I.Add, I.Imm flag, I.r5);
        I.Tst (I.Ind I.r5);
        I.B (I.Ne, I.To_label "full"); (* slot still being read *)
        I.Move (I.Reg I.r4, I.Reg I.r5);
        I.Alu (I.Add, I.Imm 1, I.r5);
        I.Cmp (I.Imm size, I.Reg I.r5);
        I.B (I.Ne, I.To_label "nowrap");
        I.Move (I.Imm 0, I.Reg I.r5);
        I.Label "nowrap";
        I.Cmp (I.Abs tail, I.Reg I.r5);
        I.B (I.Eq, I.To_label "full");
        I.Move (I.Reg I.r4, I.Reg I.r6);
        I.Alu (I.Add, I.Imm buf, I.r6);
        I.Move (I.Reg I.r1, I.Ind I.r6); (* fill *)
        I.Move (I.Reg I.r4, I.Reg I.r6);
        I.Alu (I.Add, I.Imm flag, I.r6);
        I.Move (I.Imm 1, I.Ind I.r6); (* publish *)
        I.Move (I.Reg I.r5, I.Abs head);
        I.Move (I.Imm 1, I.Reg I.r0);
        I.Probe "ret";
        I.Rts;
        I.Label "full";
        I.Move (I.Imm 0, I.Reg I.r0);
        I.Probe "ret";
        I.Rts;
      ])

(* ---------------------------------------------------------------- *)
(* Creation *)

(* MP-MC put: the flag-claim protocol already proves the slot free
   before any index moves (a consumer still reading holds flag=2, a
   lapped slot holds flag=1), so the multi-consumer case is the same
   code as the MP-SC put. *)
let mpmc_put_template ~head ~tail ~buf ~flag ~size =
  Template.make ~name:"mpmc_put" (mp_put_body ~head ~tail ~buf ~flag ~size)

(* Each kind's put and get templates over one queue's cells, and its
   burst put (MP-SC only).  MP-MC claims with flag-guarded CAS at both
   ends. *)
let templates kind ~head ~tail ~buf ~flag ~size =
  match kind with
  | Spsc ->
    ( spsc_put_template ~head ~tail ~buf ~size,
      spsc_get_template ~head ~tail ~buf ~size,
      None )
  | Mpsc ->
    ( mpsc_put_template ~head ~tail ~buf ~flag ~size,
      mpsc_get_template ~tail ~buf ~flag ~size,
      Some (mpsc_put_many_template ~head ~tail ~buf ~flag ~size) )
  | Spmc ->
    ( spmc_put_template ~head ~tail ~buf ~flag ~size,
      spmc_get_template ~tail ~buf ~flag ~size,
      None )
  | Mpmc ->
    ( mpmc_put_template ~head ~tail ~buf ~flag ~size,
      spmc_get_template ~tail ~buf ~flag ~size,
      None )

(* ---------------------------------------------------------------- *)
(* The unified entry point.

   [create ?kind] picks the synchronization discipline (SP-SC when
   omitted). *)

(* The r0-status probes on a queue end's return points ("ret").  kspan
   carries an item's span across the queue on each successful call
   (put parks it in the (queue, index) side-table, get closes it);
   ktrace sees every call with its status. *)
let ok m = Machine.get_reg m I.r0 <> 0

let span_probe ~qname ~qdesc = function
  | `Put ->
    ( "ret",
      Kernel.Span
        (fun sp m ->
          if ok m then Kspan.queue_put sp ~queue:qdesc ~pipeline:qname ~detail:qname) )
  | `Get -> ("ret", Kernel.Span (fun sp m -> if ok m then Kspan.queue_take sp ~queue:qdesc))

let trace_probe ~qname = function
  | `Put -> ("ret", Kernel.Trace (fun m -> Ktrace.Queue_put (qname, ok m)))
  | `Get -> ("ret", Kernel.Trace (fun m -> Ktrace.Queue_get (qname, ok m)))

(* Allocate the descriptor, buffer and (all but SP-SC) slot flags, and
   synthesize the routines with their probes bound.  Queue routines go
   through the synthesis cache: distinct queues fold distinct
   descriptor/buffer addresses in and miss, but a queue rebuilt over
   recycled cells hits and shares the page. *)
let create ?(kind = Spsc) k ~name ~size =
  let alloc = k.Kernel.alloc in
  let desc = Kalloc.alloc_zeroed alloc 16 in
  let buf = Kalloc.alloc_zeroed alloc size in
  let flag = if kind = Spsc then 0 else Kalloc.alloc_zeroed alloc size in
  let put_t, get_t, put_many_t =
    templates kind ~head:desc ~tail:(desc + 1) ~buf ~flag ~size
  in
  let synth ?probes suffix template =
    Ksynth.entry (Ksynth.instantiate ?probes k ~name:(name ^ suffix) ~template)
  in
  let probes op =
    [ span_probe ~qname:name ~qdesc:desc op; trace_probe ~qname:name op ]
  in
  let put = synth ~probes:(probes `Put) "/put" put_t in
  let get = synth ~probes:(probes `Get) "/get" get_t in
  let put_many =
    match put_many_t with Some t -> synth "/put_many" t | None -> 0
  in
  {
    q_kind = kind;
    q_name = name;
    q_desc = desc;
    q_buf = buf;
    q_flag = flag;
    q_size = size;
    q_put = put;
    q_get = get;
    q_put_many = put_many;
  }

(* ---------------------------------------------------------------- *)
(* Host-side access for tests and servers (uncharged) *)

let host_length k q =
  let m = k.Kernel.machine in
  let h = Machine.peek m (head_cell q) and t = Machine.peek m (tail_cell q) in
  if h >= t then h - t else h - t + q.q_size

let host_put k q v =
  let m = k.Kernel.machine in
  let h = Machine.peek m (head_cell q) in
  let nh = if h + 1 = q.q_size then 0 else h + 1 in
  if nh = Machine.peek m (tail_cell q) then false
  else begin
    Machine.poke m (q.q_buf + h) v;
    if q.q_flag <> 0 then Machine.poke m (q.q_flag + h) 1;
    Machine.poke m (head_cell q) nh;
    true
  end

let host_get k q =
  let m = k.Kernel.machine in
  let t = Machine.peek m (tail_cell q) in
  let valid =
    if q.q_flag <> 0 then Machine.peek m (q.q_flag + t) = 1
    else t <> Machine.peek m (head_cell q)
  in
  if not valid then None
  else begin
    let v = Machine.peek m (q.q_buf + t) in
    if q.q_flag <> 0 then Machine.poke m (q.q_flag + t) 0;
    Machine.poke m (tail_cell q) (if t + 1 = q.q_size then 0 else t + 1);
    Some v
  end
