(** The memory-resident file system and /dev/null (§6.2–6.3).

    [open] synthesizes read/write routines per file and per thread:
    buffer base, size cell, per-open position cell and the caller's
    scheduling gauge are folded in as constants; the copy loop moves
    words unrolled eight at a time (the paper's 9*N/8 µs shape). *)

type file = {
  f_name : string;
  f_buf : int;
  f_cap : int;
  f_size_cell : int; (** current length lives in kernel memory *)
}

(** Register /dev/null: the cheapest possible synthesized routines. *)
val register_null : Vfs.t -> unit

(** Create a memory-resident file, preloaded with [content], and
    register it in the name space. *)
val create_file :
  Vfs.t -> name:string -> ?capacity:int -> ?content:int array -> unit -> file

val file_size : Vfs.t -> file -> int

val file_read_template : Template.t
val file_write_template : Template.t
