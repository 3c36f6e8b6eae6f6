(** Flow-rate watchdog quaject.

    Progress is a rate (§4): a watched flow whose counter stops moving
    for [threshold] consecutive periods is stalled, and its restart
    action runs (re-arm a lost timer, re-issue a transfer, restart a
    pump).  Implemented as a periodic host-side machine device, so an
    armed watchdog keeps the machine's event queue non-empty: a
    watched run recovers where an unwatched one would raise
    [Machine.Deadlock].  {!stop} it when the workload ends.

    Watching pays zero simulated cycles; restarts are registered
    through "watchdog.restarts" in the kernel metrics and a
    [Ktrace.Fault "watchdog/<name>"] event. *)

type flow
type t

val install : Kernel.t -> ?period_us:float -> unit -> t
(** Arm the watchdog, checking every [period_us] (default 2000). *)

val watch :
  t ->
  name:string ->
  read:(unit -> int) ->
  restart:(unit -> unit) ->
  unit ->
  flow
(** Register a flow: [read] is its monotone progress counter,
    [restart] runs after 3 zero-delta periods.
    After 3 consecutive restarts with no progress
    between them the watchdog escalates: it logs
    "watchdog_escalation/<name>" and dumps the flight recorder
    ([Kernel.postmortem]) — restarting is evidently not helping. *)

val stop : t -> unit
(** Idle the device; the machine may deadlock/halt normally again. *)

val restarts : flow -> int

val audit_code : t -> unit
(** kheal: also checksum-walk the synthesized-code region table every
    period ([Kernel.audit_code]), resynthesizing corrupted regions —
    catches corruption in code that never executes (the trap path
    catches the rest).  The walk is host-side and free; each repair
    charges synthesis cost. *)
