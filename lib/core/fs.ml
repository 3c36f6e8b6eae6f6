(* The memory-resident file system and /dev/null (§6.2–6.3).

   `open` synthesizes the read and write routines for the file being
   opened: buffer base address, size cell, per-open position cell and
   the calling thread's scheduling gauge are all folded into the code
   as constants.  The copy loop moves words through registers unrolled
   eight at a time — the paper's `9*N/8 us` shape and its ~8 MB/s pipe
   transfer rate come from exactly this kind of generated code. *)

open Quamachine
module I = Insn
module L = Layout.Tte

(* -------------------------------------------------------------- *)
(* /dev/null: the cheapest possible synthesized routines. *)

let null_read_template =
  Template.make ~name:"null_read" (fun () ->
      [ I.Move (I.Imm 0, I.Reg I.r0); I.Rte ])

let null_write_template =
  Template.make ~name:"null_write" (fun () ->
      [ I.Move (I.Reg I.r3, I.Reg I.r0); I.Rte ])

let register_null vfs =
  let k = vfs.Vfs.kernel in
  Vfs.register vfs ~name:"/dev/null" (fun tte ~fd ->
      let tag = Printf.sprintf "open/t%d/fd%d/null" tte.Kernel.tid fd in
      let r =
        Ksynth.entry
          (Ksynth.instantiate k ~name:(tag ^ "/read") ~template:null_read_template)
      in
      let w =
        Ksynth.entry
          (Ksynth.instantiate k ~name:(tag ^ "/write") ~template:null_write_template)
      in
      {
        Vfs.h_read = r;
        h_write = w;
        h_pos_cell = None;
        h_close =
          (fun () ->
            Ksynth.release_entry k r;
            Ksynth.release_entry k w);
        h_fsync = (fun () -> ()); (* no backing store *)
      })

(* -------------------------------------------------------------- *)
(* Memory-resident files *)

type file = {
  f_name : string;
  f_buf : int; (* content buffer (kalloc block) *)
  f_cap : int; (* capacity in words *)
  f_size_cell : int; (* current length lives in memory *)
}

(* An unrolled-by-8 copy loop: count in r3, src in r5, dst in r2,
   scratch r4.  Emitted inline by the read and write templates. *)
let copy_loop ~prefix =
  let lbl s = prefix ^ s in
  [
    I.Move (I.Reg I.r3, I.Reg I.r4);
    I.Alu (I.Lsr, I.Imm 3, I.r4); (* 8-word blocks *)
    I.B (I.Eq, I.To_label (lbl "tail"));
    I.Alu (I.Sub, I.Imm 1, I.r4);
    I.Label (lbl "blk");
  ]
  @ List.init 8 (fun _ -> I.Move (I.Post_inc I.r5, I.Post_inc I.r2))
  @ [
      I.Dbra (I.r4, I.To_label (lbl "blk"));
      I.Label (lbl "tail");
      I.Move (I.Reg I.r3, I.Reg I.r4);
      I.Alu (I.And, I.Imm 7, I.r4);
      I.B (I.Eq, I.To_label (lbl "done"));
      I.Alu (I.Sub, I.Imm 1, I.r4);
      I.Label (lbl "t1");
      I.Move (I.Post_inc I.r5, I.Post_inc I.r2);
      I.Dbra (I.r4, I.To_label (lbl "t1"));
      I.Label (lbl "done");
    ]

(* read(fd, buf, n): r2 = destination, r3 = count; returns words read
   in r0.  Clamps to end of file; 0 at EOF. *)
let file_read_template ~buf ~size_cell ~pos_cell ~gauge =
  Template.make ~name:"file_read" (fun () ->
      [
        I.Move (I.Abs pos_cell, I.Reg I.r4);
        I.Move (I.Abs size_cell, I.Reg I.r5);
        I.Alu (I.Sub, I.Reg I.r4, I.r5); (* r5 = remaining *)
        I.B (I.Eq, I.To_label "eof");
        I.Cmp (I.Reg I.r5, I.Reg I.r3); (* count - remaining *)
        I.B (I.Ls, I.To_label "have"); (* count <= remaining *)
        I.Move (I.Reg I.r5, I.Reg I.r3); (* clamp *)
        I.Label "have";
        I.Move (I.Reg I.r3, I.Reg I.r0); (* return value *)
        I.Move (I.Reg I.r4, I.Reg I.r5);
        I.Alu (I.Add, I.Imm buf, I.r5); (* src = buf + pos *)
        I.Alu (I.Add, I.Reg I.r3, I.r4);
        I.Move (I.Reg I.r4, I.Abs pos_cell); (* pos += count *)
        I.Alu_mem (I.Add, I.Imm 1, I.Abs gauge); (* scheduling gauge *)
      ]
      @ copy_loop ~prefix:"r"
      @ [ I.Rte; I.Label "eof"; I.Move (I.Imm 0, I.Reg I.r0); I.Rte ])

(* write(fd, buf, n): copies into the file at the position cell,
   growing the size up to capacity; returns words written in r0. *)
let file_write_template ~buf ~cap ~size_cell ~pos_cell ~gauge =
  Template.make ~name:"file_write" (fun () ->
      [
        I.Move (I.Abs pos_cell, I.Reg I.r4);
        I.Move (I.Imm cap, I.Reg I.r5);
        I.Alu (I.Sub, I.Reg I.r4, I.r5); (* r5 = room *)
        I.B (I.Eq, I.To_label "full");
        I.Cmp (I.Reg I.r5, I.Reg I.r3);
        I.B (I.Ls, I.To_label "fits");
        I.Move (I.Reg I.r5, I.Reg I.r3); (* clamp to capacity *)
        I.Label "fits";
        I.Move (I.Reg I.r3, I.Reg I.r0);
        (* dst = buf + pos, in r2; source pointer moves to r5 *)
        I.Move (I.Reg I.r2, I.Reg I.r5); (* src = user buffer *)
        I.Move (I.Reg I.r4, I.Reg I.r2);
        I.Alu (I.Add, I.Imm buf, I.r2); (* dst = buf + pos *)
        I.Alu (I.Add, I.Reg I.r3, I.r4);
        I.Move (I.Reg I.r4, I.Abs pos_cell); (* pos += count *)
        (* size = max size pos' *)
        I.Cmp (I.Abs size_cell, I.Reg I.r4); (* pos' - size *)
        I.B (I.Ls, I.To_label "nosize"); (* pos' <= size *)
        I.Move (I.Reg I.r4, I.Abs size_cell);
        I.Label "nosize";
        I.Alu_mem (I.Add, I.Imm 1, I.Abs gauge);
      ]
      @ copy_loop ~prefix:"w"
      @ [ I.Rte; I.Label "full"; I.Move (I.Imm 0, I.Reg I.r0); I.Rte ])

(* -------------------------------------------------------------- *)

(* Create a memory-resident file and register it in the name space.
   [content] preloads the file body. *)
let create_file vfs ~name ?(capacity = 8192) ?(content = [||]) () =
  let k = vfs.Vfs.kernel in
  let m = k.Kernel.machine in
  let buf = Kalloc.alloc k.Kernel.alloc capacity in
  let size_cell = Kalloc.alloc k.Kernel.alloc 16 in
  Array.iteri (fun i v -> Machine.poke m (buf + i) v) content;
  Machine.poke m size_cell (Array.length content);
  let file = { f_name = name; f_buf = buf; f_cap = capacity; f_size_cell = size_cell } in
  Vfs.register vfs ~name (fun tte ~fd ->
      let pos_cell = Kalloc.alloc k.Kernel.alloc 16 in
      Machine.poke m pos_cell 0;
      let gauge = tte.Kernel.base + L.off_gauge in
      let tag = Printf.sprintf "open/t%d/fd%d/file" tte.Kernel.tid fd in
      let r =
        Ksynth.entry
          (Ksynth.instantiate k ~name:(tag ^ "/read")
             ~template:(file_read_template ~buf ~size_cell ~pos_cell ~gauge))
      in
      let w =
        Ksynth.entry
          (Ksynth.instantiate k ~name:(tag ^ "/write")
             ~template:
               (file_write_template ~buf ~cap:capacity ~size_cell ~pos_cell ~gauge))
      in
      {
        Vfs.h_read = r;
        h_write = w;
        h_pos_cell = Some pos_cell;
        h_close =
          (fun () ->
            Ksynth.release_entry k r;
            Ksynth.release_entry k w;
            Kalloc.free k.Kernel.alloc pos_cell);
        h_fsync = (fun () -> ()); (* memory-resident: always durable-as-built *)
      });
  file

let file_size vfs file = Machine.peek vfs.Vfs.kernel.Kernel.machine file.f_size_cell
