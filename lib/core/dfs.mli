(** The disk-backed file system (§5.1 pipeline), writable since kcrash
    with power-cut crash consistency.

    Files are contiguous block runs.  Block 0 is the directory, blocks
    1–2 the intent log (header + shadow directory image), data starts
    at block 3.  Reads go through synthesized per-open routines that
    block on cache misses; writes are host-side metadata operations
    ([create]/[append]/[replace]/[rename]) that step the machine like
    {!Disk_server.read_block_sync}.

    Two crash-consistency mechanisms can be disabled independently so
    the crash-point explorer can show what each buys:
    - [m_barriers]: flush + disk-server barrier ordering data ahead of
      the metadata that names it (and a drain at the end of each
      operation).  Off: data sits dirty in the cache until [sync]
      while metadata goes straight to the elevator.
    - [m_journal]: directory updates go through the intent log —
      shadow image, header state=1, directory write, header state=0,
      fenced pairwise; boot-time [recover] replays the shadow.  Off:
      the directory block is written in place (tearable), and
      [replace] overwrites file content in place. *)

type dfs_file = {
  df_name : string;
  df_slot : int;  (** directory slot *)
  mutable df_start : int;  (** first block of the run *)
  mutable df_cap : int;  (** run capacity in blocks *)
  mutable df_words : int;  (** current length in words *)
}

type mechanisms = { m_barriers : bool; m_journal : bool }

val all_mechanisms : mechanisms

type t

val log_header_block : int

(** Host-side mkfs: directory + cleared intent log + file bodies
    written straight to the device.  [capacities] reserves a larger
    run (in blocks) for named files so they can grow by [append]. *)
val format :
  Kernel.t ->
  ?capacities:(string * int) list ->
  files:(string * int array) list ->
  unit ->
  unit

(** Recover, read the directory and register every file as
    ["/disk/<name>"].  Needs a live machine context (reads complete
    through the disk interrupt): start at least the idle thread
    first.  Also registers a {!Vfs.on_sync} hook flushing the cache
    behind a barrier. *)
val mount :
  ?mechanisms:mechanisms -> ?budget:int -> Vfs.t -> Disk_server.t -> t

(** Defer [mount] to the top of the next {!Boot.go} (via
    {!Boot.at_boot}), so recovery happens as part of boot; the
    returned thunk yields the mount once boot has run. *)
val mount_at_boot :
  ?mechanisms:mechanisms ->
  ?budget:int ->
  Boot.t ->
  Vfs.t ->
  Disk_server.t ->
  unit ->
  t option

(** Create an empty file with a reserved run; commits the directory. *)
val create : t -> string -> capacity_blocks:int -> dfs_file

(** Append words; data is ordered ahead of the length update when
    barriers are on. *)
val append : t -> string -> int array -> unit

(** Atomic whole-file replacement: journaled mode writes a fresh run
    and flips the dirent; unjournaled mode overwrites in place. *)
val replace : t -> string -> int array -> unit

(** Rename, replacing any existing target in one directory image. *)
val rename : t -> from_:string -> to_:string -> unit

(** Write back everything dirty and wait for the pipeline to drain. *)
val sync : t -> unit

(** Whole-file read through the cache (host-side; litmus predicates). *)
val read_file : t -> string -> int array option

val find : t -> string -> dfs_file option
val files : t -> dfs_file list
val mechanisms : t -> mechanisms
