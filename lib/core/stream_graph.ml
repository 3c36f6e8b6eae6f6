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
}

let stage ?(segments = []) role = { sg_role = role; sg_segments = segments }

(* every stage thread's quantum, and every arc's capacity in words *)
let quantum_us = 150
let pipe_cap = 256

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
let pipeline vfs stages =
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
        Thread.create k ~quantum_us ~entry:0 ~segments:s.sg_segments ())
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
