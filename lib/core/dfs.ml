(* The disk-backed file system: files live in contiguous block runs on
   the disk device and are read through the §5.1 pipeline — disk
   scheduler, buffer cache, blocking threads.  Since kcrash it is also
   writable from the host side (create/append/rename/replace), with
   power-cut crash consistency:

   Layout on disk:
     block 0  superblock directory —
              [0] magic, [1] file count, then per file 16 words:
              name words 0..12 (NUL-terminated), [13] capacity in
              blocks, [14] start block, [15] length in words
     block 1  intent-log header — [0] log magic, [1] state
              (0 = clear, 1 = intent recorded)
     block 2  intent-log shadow — the full post-op directory image
     block 3+ file data, contiguous runs

   Crash consistency is two mechanisms, separately disableable so the
   crash-point explorer can demonstrate what each one buys:

   - Write ordering ([m_barriers]): data write-backs are flushed and
     fenced with a disk-server barrier *before* the metadata that
     names them is submitted, so the elevator can never commit a new
     length or name ahead of the data.  Without it, every transfer of
     an operation enters the elevator unordered (and data sits dirty
     in the cache until `sync`) — the classic garbage-past-old-size /
     zero-length-rename crash bugs.

   - Intent log ([m_journal]): every directory update is journaled
     first — shadow image, then header state=1, then the directory
     block itself, then header state=0, each step behind a barrier
     (append record → barrier → apply → commit).  Boot-time recovery
     replays the shadow when the header says an intent was recorded,
     making torn directory writes atomic.  Without it the directory
     block is written in place and a power cut can tear it.

   `open` synthesizes a per-open read routine whose fast path is a
   host call that copies from cached blocks (charged per word); when a
   block is missing the call schedules the read and the routine blocks
   on the mount's wait queue, retrying when the completion interrupt
   wakes it.  Re-opens after a crash+reboot resynthesize those fast
   paths from the same templates, through Ksynth. *)

open Quamachine
module I = Insn
module L = Layout.Tte

let magic = 0xD15C
let log_magic = 0x10C0
let dirent_words = 16
let max_name = 12
let dir_block = 0
let log_header_block = 1
let log_shadow_block = 2
let data_start = 3

type dfs_file = {
  df_name : string;
  df_slot : int;
  mutable df_start : int;
  mutable df_cap : int; (* capacity in blocks *)
  mutable df_words : int; (* current length in words *)
}

type mechanisms = { m_barriers : bool; m_journal : bool }

let all_mechanisms = { m_barriers = true; m_journal = true }

type t = {
  dfs_ds : Disk_server.t;
  dfs_vfs : Vfs.t;
  dfs_wq : Kernel.waitq; (* one mount-wide completion wait queue *)
  dfs_mech : mechanisms;
  dfs_dir : dfs_file option array; (* host mirror of the directory *)
  dfs_dirbuf : int; (* dedicated directory image buffer (not a cache slot) *)
  dfs_js : int; (* log shadow write buffer *)
  dfs_jh_set : int; (* header image with state=1 *)
  dfs_jh_clear : int; (* header image with state=0 *)
  dfs_budget : int; (* max_insns for synchronous waits *)
}

let bw = Disk_server.block_words
let max_slots = (bw - 2) / dirent_words

(* ---------------------------------------------------------------- *)
(* Formatting: write a directory, a cleared intent log and file
   contents to the raw device (host-side, like a mkfs run before
   boot).  [capacities] overrides the block run reserved for a file
   (in blocks) so later appends have room to grow. *)

let format k ?(capacities = []) ~files () =
  let disk = k.Kernel.disk in
  let dir = Array.make bw 0 in
  dir.(0) <- magic;
  dir.(1) <- List.length files;
  let next_block = ref data_start in
  List.iteri
    (fun i (name, content) ->
      if String.length name > max_name then invalid_arg "Dfs.format: name too long";
      if i >= max_slots then invalid_arg "Dfs.format: too many files";
      let e = 2 + (i * dirent_words) in
      String.iteri (fun j c -> dir.(e + j) <- Char.code c) name;
      dir.(e + String.length name) <- 0;
      let needed = max 1 ((Array.length content + bw - 1) / bw) in
      let cap =
        match List.assoc_opt name capacities with
        | Some c -> max c needed
        | None -> needed
      in
      dir.(e + 13) <- cap;
      dir.(e + 14) <- !next_block;
      dir.(e + 15) <- Array.length content;
      (* body, one block run *)
      for b = 0 to needed - 1 do
        let chunk =
          Array.init bw (fun j ->
              let idx = (b * bw) + j in
              if idx < Array.length content then content.(idx) else 0)
        in
        Devices.Disk.write_block disk (!next_block + b) chunk
      done;
      next_block := !next_block + cap)
    files;
  let header = Array.make bw 0 in
  header.(0) <- log_magic;
  header.(1) <- 0;
  Devices.Disk.write_block disk log_header_block header;
  Devices.Disk.write_block disk dir_block dir

(* ---------------------------------------------------------------- *)
(* Small host-side helpers over the machine *)

let copy_buf m ~src ~dst =
  for i = 0 to bw - 1 do
    Machine.poke m (dst + i) (Machine.peek m (src + i))
  done;
  Machine.charge_refs m (2 * bw)

(* Await the whole pipeline (queued requests, active transfer,
   write-backs): the synchronous edge of every safe-mode operation. *)
let drain t = ignore (Disk_server.drain t.dfs_ds ~max_insns:t.dfs_budget)

let submit_write t ~block ~buffer =
  ignore
    (Disk_server.submit t.dfs_ds ~waitq:t.dfs_wq ~block ~buffer ~write:true ())

let fence t = if t.dfs_mech.m_barriers then Disk_server.barrier t.dfs_ds

(* ---------------------------------------------------------------- *)
(* Directory image <-> host mirror *)

let write_dirent t slot =
  let m = (t.dfs_vfs.Vfs.kernel).Kernel.machine in
  let e = t.dfs_dirbuf + 2 + (slot * dirent_words) in
  (match t.dfs_dir.(slot) with
  | None ->
    for j = 0 to dirent_words - 1 do
      Machine.poke m (e + j) 0
    done
  | Some f ->
    for j = 0 to max_name do
      Machine.poke m (e + j) 0
    done;
    String.iteri (fun j c -> Machine.poke m (e + j) (Char.code c)) f.df_name;
    Machine.poke m (e + 13) f.df_cap;
    Machine.poke m (e + 14) f.df_start;
    Machine.poke m (e + 15) f.df_words);
  Machine.charge_refs m dirent_words

let write_count t =
  let m = (t.dfs_vfs.Vfs.kernel).Kernel.machine in
  let n =
    Array.fold_left (fun acc s -> if s = None then acc else acc + 1) 0 t.dfs_dir
  in
  Machine.poke m (t.dfs_dirbuf + 1) n;
  Machine.charge_refs m 1

(* Commit the updated directory image.  Journaled: append the intent
   record (shadow image + header state=1), barrier, apply (directory
   write), barrier, commit (header state=0) — all asynchronous, with
   epochs keeping the elevator honest.  Unjournaled: write the
   directory block in place.  In safe mode the operation then waits
   for the pipeline to drain so the shared buffers can be reused. *)
let commit_dir t =
  let k = t.dfs_vfs.Vfs.kernel in
  let m = k.Kernel.machine in
  if t.dfs_mech.m_journal then begin
    copy_buf m ~src:t.dfs_dirbuf ~dst:t.dfs_js;
    submit_write t ~block:log_shadow_block ~buffer:t.dfs_js;
    fence t;
    submit_write t ~block:log_header_block ~buffer:t.dfs_jh_set;
    fence t;
    submit_write t ~block:dir_block ~buffer:t.dfs_dirbuf;
    fence t;
    submit_write t ~block:log_header_block ~buffer:t.dfs_jh_clear;
    Metrics.bump k.Kernel.metrics "dfs.journal_records"
  end
  else submit_write t ~block:dir_block ~buffer:t.dfs_dirbuf;
  if t.dfs_mech.m_barriers then drain t

(* ---------------------------------------------------------------- *)
(* Lookup and allocation *)

let find t name =
  let r = ref None in
  Array.iter
    (function Some f when f.df_name = name -> r := Some f | _ -> ())
    t.dfs_dir;
  !r

let free_slot t =
  let r = ref None in
  Array.iteri (fun i s -> if s = None && !r = None then r := Some i) t.dfs_dir;
  !r

(* Bump allocation: the run after the highest allocated block.  Freed
   runs (replace, rename-over) are leaked — there is no free map; the
   disk is large and crash runs are short. *)
let alloc_run t =
  Array.fold_left
    (fun acc s ->
      match s with Some f -> max acc (f.df_start + f.df_cap) | None -> acc)
    data_start t.dfs_dir

(* ---------------------------------------------------------------- *)
(* Data path *)

(* Write [data] into the file's blocks starting at word offset [at]:
   affected blocks are brought into the cache, patched and marked
   dirty.  Safe mode then flushes the dirty blocks and fences, so the
   data is ordered ahead of any metadata that will name it; unsafe
   mode leaves them dirty in the cache until someone syncs. *)
let write_words t f ~at data =
  let ds = t.dfs_ds in
  let m = (t.dfs_vfs.Vfs.kernel).Kernel.machine in
  let n = Array.length data in
  if n > 0 then begin
    if at + n > f.df_cap * bw then invalid_arg "Dfs.write_words: run overflow";
    let b0 = at / bw and b1 = (at + n - 1) / bw in
    for b = b0 to b1 do
      match Disk_server.read_block_sync ds (f.df_start + b) ~max_insns:t.dfs_budget with
      | None -> failwith "Dfs.write_words: block read failed"
      | Some buf ->
        let lo = max at (b * bw) and hi = min (at + n) ((b + 1) * bw) in
        for off = lo to hi - 1 do
          Machine.poke m (buf + (off mod bw)) data.(off - at)
        done;
        Machine.charge_refs m (hi - lo);
        Disk_server.mark_dirty ds (f.df_start + b)
    done;
    if t.dfs_mech.m_barriers then begin
      ignore (Disk_server.flush ds ());
      Disk_server.barrier ds
    end
  end

(* ---------------------------------------------------------------- *)
(* Synthesized read path (unchanged shape since the read-only dfs):
   the per-open fast path copies from cached blocks and blocks the
   thread on the mount wait queue while a fill is in flight. *)

let read_template mount_hcall k dfs ~gauge =
  Template.make ~name:"dfs_read" (fun () ->
      [
        I.Alu_mem (I.Add, I.Imm 1, I.Abs gauge);
        I.Label "retry";
        I.Hcall mount_hcall;
        (* host sets r4 = 1 when the transfer finished (r0 = words
           read) and r4 = 0 when blocks are still on their way *)
        I.Tst (I.Reg I.r4);
        I.B (I.Ne, I.To_label "done");
      ]
      @ Thread.block_code k dfs.dfs_wq ~retry:"retry"
      @ [ I.Label "done"; I.Rte ])

let register_file t slot =
  let vfs = t.dfs_vfs in
  let k = vfs.Vfs.kernel in
  let m = k.Kernel.machine in
  let ds = t.dfs_ds in
  let name =
    match t.dfs_dir.(slot) with
    | Some f -> f.df_name
    | None -> invalid_arg "Dfs.register_file: empty slot"
  in
  Vfs.register vfs ~name:("/disk/" ^ name) (fun tte ~fd ->
      let pos_cell = Kalloc.alloc_zeroed k.Kernel.alloc 16 in
      let gauge = tte.Kernel.base + L.off_gauge in
      (* the per-open read service: copy what the cache holds,
         schedule what it doesn't.  The dirent is read through the
         slot on every call, so renames and replaces are visible to
         already-open descriptors. *)
      let hcall =
        Machine.register_hcall m (fun m ->
            match t.dfs_dir.(slot) with
            | None ->
              Machine.set_reg m I.r0 (-1);
              Machine.set_reg m I.r4 1
            | Some f ->
              let dst = Machine.get_reg m I.r2 in
              let want = Machine.get_reg m I.r3 in
              let pos = Machine.peek m pos_cell in
              let n = min want (max 0 (f.df_words - pos)) in
              if n = 0 then begin
                Machine.set_reg m I.r0 0;
                Machine.set_reg m I.r4 1
              end
              else begin
                (* are all covered blocks resident? *)
                let b0 = f.df_start + (pos / bw) in
                let b1 = f.df_start + ((pos + n - 1) / bw) in
                let missing = ref false in
                for b = b0 to b1 do
                  match Disk_server.get_block ds ~waitq:t.dfs_wq b with
                  | _, Some _ -> missing := true
                  | _, None -> ()
                done;
                if !missing then Machine.set_reg m I.r4 0
                else begin
                  for i = 0 to n - 1 do
                    let off = pos + i in
                    let buf, _ =
                      Disk_server.get_block ds ~waitq:t.dfs_wq
                        (f.df_start + (off / bw))
                    in
                    Machine.poke m (dst + i) (Machine.peek m (buf + (off mod bw)))
                  done;
                  Machine.charge_refs m (2 * n);
                  Machine.poke m pos_cell (pos + n);
                  Machine.set_reg m I.r0 n;
                  Machine.set_reg m I.r4 1
                end
              end)
      in
      let tag = Printf.sprintf "dfs/t%d/fd%d/%s" tte.Kernel.tid fd name in
      let h =
        Ksynth.instantiate k ~name:(tag ^ "/read")
          ~template:(read_template hcall k t ~gauge)
      in
      let r = Ksynth.entry h in
      let bad = Ksynth.lookup k "bad_fd" in
      {
        Vfs.h_read = r;
        h_write = bad; (* thread writes go through the host metadata ops *)
        h_pos_cell = Some pos_cell;
        h_close =
          (fun () ->
            Ksynth.release_entry k r;
            Kalloc.free k.Kernel.alloc pos_cell);
        h_fsync =
          (fun () ->
            (* initiate write-back of the dirty blocks, fenced so
               later writes cannot pass them; the completions land
               through the disk interrupt as the caller keeps running *)
            ignore (Disk_server.flush ds ~barrier:true ()));
      })

(* ---------------------------------------------------------------- *)
(* Recovery: boot-time intent-log replay.  Runs before the directory
   is believed; called from [mount] (and through [Boot.at_boot] on
   reboot paths). *)

let recover ?(budget = 50_000_000) vfs ds =
  let k = vfs.Vfs.kernel in
  let m = k.Kernel.machine in
  match Disk_server.read_block_sync ds log_header_block ~max_insns:budget with
  | None -> failwith "Dfs.recover: cannot read the log header"
  | Some hbuf ->
    if Machine.peek m hbuf <> log_magic then
      (* no recognizable intent log (pre-journal image): nothing to
         replay and nothing to trust — leave the image alone *)
      false
    else if Machine.peek m (hbuf + 1) <> 1 then false
    else begin
      (* an intent was recorded but never committed: replay the
         shadow directory image (redo), then clear the intent.  The
         shadow was fenced ahead of the header write, so state=1
         guarantees it is whole. *)
      match Disk_server.read_block_sync ds log_shadow_block ~max_insns:budget with
      | None -> failwith "Dfs.recover: cannot read the log shadow"
      | Some sbuf ->
        ignore
          (Disk_server.submit ds ~block:dir_block ~buffer:sbuf ~write:true ());
        Disk_server.barrier ds;
        Machine.poke m (hbuf + 1) 0;
        Machine.charge_refs m 1;
        ignore
          (Disk_server.submit ds ~block:log_header_block ~buffer:hbuf
             ~write:true ());
        if not (Disk_server.drain ds ~max_insns:budget) then
          failwith "Dfs.recover: replay did not drain";
        Metrics.bump k.Kernel.metrics "dfs.replays";
        true
    end

(* ---------------------------------------------------------------- *)
(* Mounting: recover, then read the directory through the cache
   (synchronously, at boot) and register every file in the name
   space.  Requires a live machine context (reads complete through
   the disk interrupt): start the kernel — at least the idle thread —
   before calling this. *)

let mount ?(mechanisms = all_mechanisms) ?(budget = 50_000_000) vfs ds =
  let k = vfs.Vfs.kernel in
  let m = k.Kernel.machine in
  Metrics.bump k.Kernel.metrics "dfs.recoveries";
  ignore (recover ~budget vfs ds);
  (* read the superblock synchronously at mount time *)
  let dirbuf_cache =
    match Disk_server.read_block_sync ds dir_block ~max_insns:budget with
    | Some buf -> buf
    | None -> failwith "Dfs.mount: cannot read the superblock"
  in
  if Machine.peek m dirbuf_cache <> magic then failwith "Dfs.mount: bad magic";
  (* the directory lives in a dedicated buffer for the mount's
     lifetime: journal shadows and asynchronous directory writes DMA
     from it, so it must never be evicted under them *)
  let dirbuf = Kalloc.alloc_zeroed k.Kernel.alloc bw in
  copy_buf m ~src:dirbuf_cache ~dst:dirbuf;
  let js = Kalloc.alloc_zeroed k.Kernel.alloc bw in
  let jh_set = Kalloc.alloc_zeroed k.Kernel.alloc bw in
  let jh_clear = Kalloc.alloc_zeroed k.Kernel.alloc bw in
  Machine.poke m jh_set log_magic;
  Machine.poke m (jh_set + 1) 1;
  Machine.poke m jh_clear log_magic;
  Machine.poke m (jh_clear + 1) 0;
  Machine.charge_refs m 4;
  let dir = Array.make max_slots None in
  let count = min max_slots (Machine.peek m (dirbuf + 1)) in
  let filled = ref 0 in
  let slot = ref 0 in
  while !filled < count && !slot < max_slots do
    let e = dirbuf + 2 + (!slot * dirent_words) in
    let rec name_of j acc =
      if j > max_name then acc
      else
        let c = Machine.peek m (e + j) in
        if c = 0 then acc
        else if c < 32 || c > 126 then failwith "Dfs.mount: corrupt directory"
        else name_of (j + 1) (acc ^ String.make 1 (Char.chr c))
    in
    let name = name_of 0 "" in
    if name <> "" then begin
      dir.(!slot) <-
        Some
          {
            df_name = name;
            df_slot = !slot;
            df_cap = max 1 (Machine.peek m (e + 13));
            df_start = Machine.peek m (e + 14);
            df_words = Machine.peek m (e + 15);
          };
      incr filled
    end;
    incr slot
  done;
  let t =
    {
      dfs_ds = ds;
      dfs_vfs = vfs;
      dfs_wq = Kernel.waitq ~name:"dfs/mount";
      dfs_mech = mechanisms;
      dfs_dir = dir;
      dfs_dirbuf = dirbuf;
      dfs_js = js;
      dfs_jh_set = jh_set;
      dfs_jh_clear = jh_clear;
      dfs_budget = budget;
    }
  in
  Array.iteri (fun i s -> if s <> None then register_file t i) dir;
  (* initiate write-back of everything dirty when the switch syncs *)
  Vfs.on_sync vfs (fun () -> ignore (Disk_server.flush ds ~barrier:true ()));
  t

(* Register recovery + mount to run at the top of [Boot.go]; the
   explorer's reboot path uses this so log replay happens as part of
   boot, before any thread can look at the file system. *)
let mount_at_boot ?(mechanisms = all_mechanisms) ?(budget = 50_000_000) b vfs ds
    =
  let mounted = ref None in
  Boot.at_boot b (fun () -> mounted := Some (mount ~mechanisms ~budget vfs ds));
  fun () -> !mounted

(* ---------------------------------------------------------------- *)
(* Host-side writable operations (machine-stepping, like
   [Disk_server.read_block_sync]) *)

let create t name ~capacity_blocks =
  if String.length name > max_name then invalid_arg "Dfs.create: name too long";
  if find t name <> None then invalid_arg "Dfs.create: file exists";
  match free_slot t with
  | None -> invalid_arg "Dfs.create: directory full"
  | Some slot ->
    let cap = max 1 capacity_blocks in
    let f =
      {
        df_name = name;
        df_slot = slot;
        df_start = alloc_run t;
        df_cap = cap;
        df_words = 0;
      }
    in
    t.dfs_dir.(slot) <- Some f;
    write_dirent t slot;
    write_count t;
    commit_dir t;
    register_file t slot;
    f

let append t name data =
  match find t name with
  | None -> invalid_arg "Dfs.append: no such file"
  | Some f ->
    if f.df_words + Array.length data > f.df_cap * bw then
      invalid_arg "Dfs.append: run overflow";
    write_words t f ~at:f.df_words data;
    f.df_words <- f.df_words + Array.length data;
    write_dirent t f.df_slot;
    commit_dir t

(* Atomic whole-file replacement.  Journaled mode writes the new
   content into a fresh shadow run and flips the dirent (start and
   length change in one directory image — crash-atomic through the
   intent log).  Without the journal the content is overwritten in
   place: a crash mid-write tears old and new data together, which is
   exactly the state the replace litmus flags. *)
let replace t name data =
  match find t name with
  | None -> invalid_arg "Dfs.replace: no such file"
  | Some f ->
    let needed = max 1 ((Array.length data + bw - 1) / bw) in
    if t.dfs_mech.m_journal then begin
      let cap = max needed f.df_cap in
      let start = alloc_run t in
      let shadow = { f with df_start = start; df_cap = cap; df_words = 0 } in
      write_words t shadow ~at:0 data;
      f.df_start <- start;
      f.df_cap <- cap;
      f.df_words <- Array.length data
    end
    else begin
      if needed > f.df_cap then invalid_arg "Dfs.replace: run overflow";
      write_words t f ~at:0 data;
      f.df_words <- Array.length data
    end;
    write_dirent t f.df_slot;
    commit_dir t

(* Rename, replacing any existing target (the POSIX contract the
   create-rename litmus checks): the target slot takes the source's
   run in the same directory image that clears the source slot. *)
let rename t ~from_ ~to_ =
  if String.length to_ > max_name then invalid_arg "Dfs.rename: name too long";
  match find t from_ with
  | None -> invalid_arg "Dfs.rename: no such file"
  | Some src ->
    (match find t to_ with
    | Some dst ->
      (* target exists: its slot takes the source's run — new name
         and new data appear in one directory image *)
      t.dfs_dir.(dst.df_slot) <-
        Some
          {
            dst with
            df_start = src.df_start;
            df_cap = src.df_cap;
            df_words = src.df_words;
          };
      t.dfs_dir.(src.df_slot) <- None;
      write_dirent t dst.df_slot;
      write_dirent t src.df_slot
    | None ->
      t.dfs_dir.(src.df_slot) <- Some { src with df_name = to_ };
      write_dirent t src.df_slot;
      register_file t src.df_slot);
    write_count t;
    Vfs.unregister t.dfs_vfs ~name:("/disk/" ^ from_);
    commit_dir t

(* Make everything durable: write back all dirty blocks and wait for
   the pipeline to drain.  Unsafe modes rely on this being their only
   synchronization point — exactly like an application that never
   calls fsync until the end. *)
let sync t =
  ignore (Disk_server.flush t.dfs_ds ~barrier:t.dfs_mech.m_barriers ());
  drain t

(* Host-side whole-file read through the cache (litmus predicates). *)
let read_file t name =
  match find t name with
  | None -> None
  | Some f ->
    let m = (t.dfs_vfs.Vfs.kernel).Kernel.machine in
    let out = Array.make f.df_words 0 in
    let ok = ref true in
    let blocks = (f.df_words + bw - 1) / bw in
    for b = 0 to blocks - 1 do
      match
        Disk_server.read_block_sync t.dfs_ds (f.df_start + b)
          ~max_insns:t.dfs_budget
      with
      | None -> ok := false
      | Some buf ->
        let lo = b * bw and hi = min f.df_words ((b + 1) * bw) in
        for off = lo to hi - 1 do
          out.(off) <- Machine.peek m (buf + (off mod bw))
        done
    done;
    if !ok then Some out else None

let files t =
  Array.to_list t.dfs_dir |> List.filter_map (fun s -> s)

let mechanisms t = t.dfs_mech
