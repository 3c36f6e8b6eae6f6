(* The executable ready queue (§4.2, Figure 3).

   Ready-to-run threads are chained in a circular queue *of code*: the
   patchable `jmp` instruction ending each thread's context-switch-out
   procedure points at the context-switch-in procedure of the next
   thread.  There is no dispatcher procedure — dispatching *is* the
   data structure.  Inserting or removing a thread is O(1): rewrite
   the `jmp` targets of the affected neighbours.

   SMP: every core owns one ring, anchored at [Kernel.anchor k cpu];
   a thread lives on the ring of its home core [t.cpu] and all the
   mutators below key off that field.  A one-core kernel has exactly
   the single ring the uniprocessor had.

   The host keeps a doubly-linked mirror ([rq_next]/[rq_prev]) for
   bookkeeping and assertions; the machine only ever follows the
   patched jumps. *)

open Quamachine

(* Entry point of [b] when entered from [a]: control flows to
   sw_in_mmu only when a change of address space is required (§4.2). *)
let entry_from a b =
  if a.Kernel.map_id = b.Kernel.map_id then b.Kernel.sw_in else b.Kernel.sw_in_mmu

(* Point [a]'s switch-out jump at [b] and fix the host mirror.

   Ordering matters (kfault audit): the mirror is updated first and
   the code patch follows back-to-back, with nothing — no cycle
   charging, no tracing — between them.  The old order patched the
   code, then traced and charged cycles, then fixed the mirror, so a
   preemption point landing in between observed an executable chain
   the bookkeeping disagreed with.  Host-side callers are atomic
   w.r.t. machine instructions, so the pair is atomic w.r.t.
   preemption points by construction; the postcondition asserts it. *)
let relink k a b =
  a.Kernel.rq_next <- Some b;
  b.Kernel.rq_prev <- Some a;
  Kernel.patch_code k a.Kernel.jmp_slot
    (Insn.Jmp (Insn.To_addr (entry_from a b)));
  (* patch+mirror consistency: what the machine will execute is what
     the host believes *)
  assert (
    match Machine.read_code k.Kernel.machine a.Kernel.jmp_slot with
    | Insn.Jmp (Insn.To_addr t) -> t = entry_from a b
    | _ -> false);
  Kernel.trace k (Ktrace.Patched a.Kernel.jmp_slot);
  Machine.charge k.Kernel.machine 6

let next_exn t =
  match t.Kernel.rq_next with
  | Some n -> n
  | None -> failwith "Ready_queue: thread not linked"

let prev_exn t =
  match t.Kernel.rq_prev with
  | Some p -> p
  | None -> failwith "Ready_queue: thread not linked"

let in_queue t = t.Kernel.rq_next <> None

(* Insert [t] right after [a] (on [a]'s core's ring).

   The incoming thread's own jmp is patched *first* (kfault audit):
   linking a -> t before t -> b leaves a window where [a]'s switch-out
   jumps into a thread whose switch-out still targets its stale (for a
   fresh thread: the address-0 halt guard) successor.  Patching t -> b
   first keeps the executable chain valid at every intermediate point:
   [t] is simply not yet reachable. *)
let insert_after k a t =
  if in_queue t then invalid_arg "Ready_queue.insert_after: already queued";
  t.Kernel.cpu <- a.Kernel.cpu;
  let b = next_exn a in
  relink k t b;
  relink k a t;
  t.Kernel.state <- Kernel.Ready

(* First insertion into an empty ring: the thread chains to itself. *)
let insert_single k t =
  relink k t t;
  t.Kernel.state <- Kernel.Ready;
  Kernel.set_anchor k t.Kernel.cpu (Some t)

(* Insert at the "front" of [t]'s home ring: immediately after the
   thread running on that core, so the new arrival gets that CPU as
   soon as the current quantum ends (§4.4: unblocked threads go to the
   front to minimize response time). *)
let insert_front k t =
  let cpu = t.Kernel.cpu in
  match Kernel.anchor k cpu with
  | None -> insert_single k t
  | Some a ->
    let after =
      match Kernel.current ~cpu k with
      | Some cur when in_queue cur && cur.Kernel.cpu = cpu -> cur
      | _ -> a
    in
    insert_after k after t

let remove k t =
  if not (in_queue t) then invalid_arg "Ready_queue.remove: not queued";
  let cpu = t.Kernel.cpu in
  let p = prev_exn t and n = next_exn t in
  if p == t then begin
    (* last thread leaves: the ring becomes empty *)
    Kernel.set_anchor k cpu None;
    t.Kernel.rq_next <- None;
    t.Kernel.rq_prev <- None
  end
  else begin
    relink k p n;
    (match Kernel.anchor k cpu with
    | Some a when a == t -> Kernel.set_anchor k cpu (Some n)
    | _ -> ());
    (* [t]'s own jmp_slot keeps pointing at [n]: if [t] is currently
       executing, its eventual switch-out still lands in the ring. *)
    t.Kernel.rq_next <- None;
    t.Kernel.rq_prev <- None
  end;
  Machine.charge k.Kernel.machine 4

(* Bounded ring walk: a corrupted mirror (next chain that never closes
   back on the anchor) must be reported, not spun on forever — the
   explorer calls this as a live invariant. *)
let to_list ?(cpu = 0) k =
  match Kernel.anchor k cpu with
  | None -> []
  | Some a ->
    let bound = Hashtbl.length k.Kernel.threads + 1 in
    let rec go t acc n =
      if t == a && acc <> [] then List.rev acc
      else if n > bound then failwith "Ready_queue: ring does not close"
      else go (next_exn t) (t :: acc) (n + 1)
    in
    go a [] 0

(* Ready threads over every core's ring. *)
let length k =
  let n = ref 0 in
  for c = 0 to Kernel.cores k - 1 do
    n := !n + List.length (to_list ~cpu:c k)
  done;
  !n

(* ------------------------------------------------------------------ *)
(* Idle management.

   A core's idle thread occupies that core's ring only when nothing
   else is ready there; otherwise every lap of the ring would burn its
   quantum waiting for interrupts.  [balance_idle] enforces that
   invariant after every queue mutation, and when it evicts the idle
   thread from a CPU it is currently holding, it arms that core's
   quantum timer to fire immediately — "giving [the unblocked thread]
   immediate access to the CPU" (§4.4). *)

let balance_idle_cpu k cpu =
  match Kernel.idle_of k cpu with
  | None -> ()
  (* a stopped (or destroyed) idle thread must not be re-inserted: the
     pre-fix code put it back Ready and Thread.stop then marked the
     in-ring thread Stopped — a dead thread the executable queue would
     happily dispatch *)
  | Some idle when idle.Kernel.state = Kernel.Stopped || idle.Kernel.state = Kernel.Zombie
    -> ()
  | Some idle -> (
    match Kernel.anchor k cpu with
    | None ->
      (* nothing ready at all on this core: its idle thread takes over *)
      idle.Kernel.cpu <- cpu;
      insert_single k idle
    | Some _ ->
      let ring = to_list ~cpu k in
      let others = List.exists (fun t -> not (t == idle)) ring in
      if others && in_queue idle && idle.Kernel.cpu = cpu && List.length ring > 1
      then begin
        let p = prev_exn idle and n = next_exn idle in
        relink k p n;
        (match Kernel.anchor k cpu with
        | Some a when a == idle -> Kernel.set_anchor k cpu (Some n)
        | _ -> ());
        idle.Kernel.rq_next <- None;
        idle.Kernel.rq_prev <- None;
        (* the evicted idle thread's own switch-out must still land in
           the ring *)
        Kernel.patch_code k idle.Kernel.jmp_slot
          (Insn.Jmp (Insn.To_addr (entry_from idle n)));
        (* if the idle thread holds this CPU, preempt it now *)
        match Kernel.current ~cpu k with
        | Some c when c == idle -> Devices.Timer.arm (Kernel.timer_for k cpu) ~us:2.0
        | _ -> ()
      end)

let balance_idle k =
  for c = 0 to Kernel.cores k - 1 do
    balance_idle_cpu k c
  done

(* Public mutators: perform the raw operation, keep the departing
   thread's switch-out valid, and rebalance the idle threads. *)

let remove k t =
  let cpu = t.Kernel.cpu in
  remove k t;
  balance_idle k;
  (match Kernel.anchor k cpu with
  | Some a ->
    (* wherever [t]'s in-flight switch-out lands, it must be ready *)
    Kernel.patch_code k t.Kernel.jmp_slot
      (Insn.Jmp (Insn.To_addr (entry_from t a)))
  | None -> ())

let insert_front k t =
  insert_front k t;
  balance_idle k

(* Structural invariant used by the test suite and the explorer: on
   every core the host mirror is a consistent cycle (walk bounded — a
   ring that never closes is a corruption verdict, not a hang), every
   patched jmp targets the right entry of the right successor, and
   every ring member's home core agrees with the ring it is on. *)
let verify_cpu k cpu =
  match Kernel.anchor k cpu with
  | None -> true
  | Some a -> (
    in_queue a
    &&
    match to_list ~cpu k with
    | exception Failure _ -> false
    | ring ->
      List.for_all
        (fun t ->
          let n = next_exn t in
          t.Kernel.cpu = cpu
          && prev_exn n == t
          &&
          match Machine.read_code k.Kernel.machine t.Kernel.jmp_slot with
          | Insn.Jmp (Insn.To_addr addr) -> addr = entry_from t n
          | _ -> false)
        ring)

let verify k =
  let ok = ref true in
  for c = 0 to Kernel.cores k - 1 do
    if not (verify_cpu k c) then ok := false
  done;
  !ok
