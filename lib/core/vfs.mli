(** Name space and the open/close/lseek kernel calls (§6.2–6.3).

    [open] finds the named quaject (hashed backwards-stored names),
    asks it to synthesize read/write routines specialized to the
    calling thread, and installs the entry points in the caller's fd
    tables; later reads jump straight into the specialized routine
    through the thread's three-instruction dispatcher. *)

type handlers = {
  h_read : int; (** code address of the synthesized read routine *)
  h_write : int;
  h_pos_cell : int option; (** seek-position cell when seekable *)
  h_close : unit -> unit;
  h_fsync : unit -> unit;
      (** initiate write-back of this open's dirty state (trap 13);
          completions land through the disk interrupt, ordered by the
          submission barrier *)
}

type open_fn = Kernel.tte -> fd:int -> handlers

type t = {
  kernel : Kernel.t;
  names : (string, open_fn) Hashtbl.t; (** keyed by the reversed name *)
  opens : (int * int, handlers) Hashtbl.t; (** (tid, fd) -> handlers *)
  mutable syncs : (unit -> unit) list; (** file-system sync hooks *)
}

(** Install the name space and the trap handlers (open = trap 3,
    close = trap 4, lseek = trap 12, fsync = trap 13, sync = trap 14). *)
val install : Kernel.t -> t

val register : t -> name:string -> open_fn -> unit
val unregister : t -> name:string -> unit
val lookup : t -> string -> open_fn option

(** Register a file-system-wide write-back hook run by [sync]. *)
val on_sync : t -> (unit -> unit) -> unit

(** Host-side equivalents of the system calls (used by servers that
    hand descriptors to other threads, and by tests). *)
val open_named : t -> Kernel.tte -> string -> int option

val close_fd : t -> Kernel.tte -> int -> bool
val seek : t -> Kernel.tte -> int -> int -> bool
val free_fd : t -> Kernel.tte -> int option
val install_fd : t -> Kernel.tte -> fd:int -> handlers -> unit
