(* The Synthesis model of computation (§2.1): "the threads of
   execution form a directed graph, in which the nodes are threads and
   the arcs are data flow channels."

   This module composes such graphs declaratively.  Every stage is an
   active endpoint (a thread program); consecutive stages are
   single-producer/single-consumer, so the quaject interfacer's case
   analysis (§5.2) selects an SP-SC queue — realized as a kernel pipe
   with both ends synthesized for their owning threads.  Fan-in and
   fan-out stages would select the MP/MC variants; [connect_many]
   exposes that analysis for graph builders. *)

open Quamachine

type role =
  | Head of (wfd:int -> Insn.insn list) (* pure producer *)
  | Middle of (rfd:int -> wfd:int -> Insn.insn list) (* filter *)
  | Tail of (rfd:int -> Insn.insn list) (* pure consumer *)

type stage = {
  sg_role : role;
  sg_segments : (int * int) list;
  sg_quantum : int;
}

let stage ?(segments = []) ?(quantum_us = 150) role =
  { sg_role = role; sg_segments = segments; sg_quantum = quantum_us }

type built = {
  sg_threads : Kernel.tte list; (* in pipeline order *)
  sg_pipes : Kpipe.t list; (* arcs, in order *)
  sg_connectors : Quaject.connector list; (* what the interfacer chose *)
}

(* What connects a stage to its successor, per §5.2. *)
let connect_many ~producers ~consumers =
  let mult n = if n > 1 then Quaject.Multiple else Quaject.Single in
  Quaject.connect
    ~producer:{ Quaject.end_ = Quaject.Active; mult = mult producers }
    ~consumer:{ Quaject.end_ = Quaject.Active; mult = mult consumers }

(* Build a linear pipeline: Head, zero or more Middles, Tail.
   Returns the threads (created, runnable) and the connecting pipes. *)
let pipeline vfs ?(pipe_cap = 256) stages =
  let k = vfs.Vfs.kernel in
  let m = k.Kernel.machine in
  (match stages with
  | [] | [ _ ] -> invalid_arg "Stream_graph.pipeline: need at least two stages"
  | first :: rest -> (
    (match first.sg_role with
    | Head _ -> ()
    | _ -> invalid_arg "Stream_graph.pipeline: first stage must be a Head");
    let rec check = function
      | [] -> invalid_arg "Stream_graph.pipeline: last stage must be a Tail"
      | [ { sg_role = Tail _; _ } ] -> ()
      | { sg_role = Middle _; _ } :: more -> check more
      | _ -> invalid_arg "Stream_graph.pipeline: interior stages must be Middles"
    in
    check rest));
  let n = List.length stages in
  (* one thread per node, created first so pipe ends can specialize *)
  let threads =
    List.map
      (fun s ->
        Thread.create k ~quantum_us:s.sg_quantum ~entry:0 ~segments:s.sg_segments ())
      stages
  in
  (* one pipe per arc *)
  let pipes = List.init (n - 1) (fun _ -> Kpipe.create k ~cap:pipe_cap ()) in
  let connectors =
    List.init (n - 1) (fun _ -> connect_many ~producers:1 ~consumers:1)
  in
  (* attach: stage i writes pipe i, stage i+1 reads pipe i *)
  let arr_threads = Array.of_list threads in
  let arr_pipes = Array.of_list pipes in
  let fds_for i =
    (* (read fd of incoming arc, write fd of outgoing arc) *)
    let rfd =
      if i = 0 then None
      else
        let r, _ = Kpipe.attach vfs arr_pipes.(i - 1) arr_threads.(i) in
        Some r
    in
    let wfd =
      if i = n - 1 then None
      else
        let _, w = Kpipe.attach vfs arr_pipes.(i) arr_threads.(i) in
        Some w
    in
    (rfd, wfd)
  in
  List.iteri
    (fun i s ->
      let rfd, wfd = fds_for i in
      let program =
        match (s.sg_role, rfd, wfd) with
        | Head f, None, Some wfd -> f ~wfd
        | Middle f, Some rfd, Some wfd -> f ~rfd ~wfd
        | Tail f, Some rfd, None -> f ~rfd
        | _ -> assert false
      in
      let entry, _ = Asm.assemble m program in
      Machine.poke m (arr_threads.(i).Kernel.base + Layout.Tte.off_pc) entry)
    stages;
  { sg_threads = threads; sg_pipes = pipes; sg_connectors = connectors }

(* ================================================================== *)
(* Flow-rate gauges (§3: "the rate of data flowing through") — a
   one-instruction counter tick stages splice into their loops, whose
   windowed rate kserve's overload controller reads. *)

module I = Insn

type gauge = {
  g_cell : int; (* machine-word event counter, ticked by stage code *)
  g_name : string;
  mutable g_last_count : int;
  mutable g_last_cycles : int;
  mutable g_rate : float; (* events per kilocycle, last window *)
}

let gauge k ~name =
  let cell = Kalloc.alloc_zeroed k.Kernel.alloc 1 in
  {
    g_cell = cell;
    g_name = name;
    g_last_count = 0;
    g_last_cycles = Machine.cycles k.Kernel.machine;
    g_rate = 0.0;
  }

(* the one-instruction tick stages splice into their loops *)
let gauge_tick g = [ I.Alu_mem (I.Add, I.Imm 1, I.Abs g.g_cell) ]
let gauge_count k g = Machine.peek k.Kernel.machine g.g_cell

(* Windowed rate in events per kilocycle.  The counter is a 32-bit
   machine word, so the delta is taken modulo 2^32 (counter wrap is
   one subtraction away from correct); a zero-width window returns
   the previous window's rate rather than dividing by zero. *)
let gauge_sample k g =
  let now = Machine.cycles k.Kernel.machine in
  let count = gauge_count k g in
  let dt = now - g.g_last_cycles in
  if dt <= 0 then g.g_rate
  else begin
    let dc = (count - g.g_last_count) land Word.mask in
    let rate = 1000.0 *. float_of_int dc /. float_of_int dt in
    g.g_last_count <- count;
    g.g_last_cycles <- now;
    g.g_rate <- rate;
    rate
  end

let gauge_rate g = g.g_rate
