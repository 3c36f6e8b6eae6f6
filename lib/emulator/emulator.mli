(** The UNIX emulator on the Synthesis kernel (§6.1): trap-15 system
    calls dispatch through a table of stubs, each of which jumps to the
    handler the calling thread's own vector table holds for the native
    trap, inside trap 15's exception frame.  The measured emulation
    overhead (Table 2) is that dispatch: a bounds check and two table
    jumps. *)

type t = { e_entry : int; e_table : int }

(** Install the emulator: wires trap 15 into every vector table and
    installs pipe(2) on the native side. *)
val install : Synthesis.Vfs.t -> t
