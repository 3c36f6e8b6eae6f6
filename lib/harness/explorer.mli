(** kfault interleaving explorer.

    Stresses kernel code under deterministic, seeded adversity: forced
    context switches every k-th instruction (k swept by seed),
    spurious interrupts, bit flips, forced CAS failures, and
    stalled/dropped device completions — then checks subject-specific
    invariants at every forced preemption and at the end of the run.

    Workloads are pluggable {!subject}s, all run through
    {!run_subject}: the four lock-free {!Synthesis.Kqueue} kinds, the
    executable ready queue under a thread stop/start/restart storm, a
    {!Synthesis.Kpipe} producer/consumer pair, the disk elevator under
    completion faults, the kheal, ksynth, kSMP and kserve storms, and
    the three kcrash power-cut litmus families.  Every run folds a
    deterministic trace hash, so a (subject, seed) pair names exactly
    one interleaving on every host — CI asserts this, and a test pins
    the hashes of seeds 1..3.

    Also provides targeted recovery scenarios: a dropped quantum-timer
    completion recovered by the flow-rate {!Synthesis.Watchdog}, and
    stalled / dropped / permanently failing disk completions recovered
    (or cleanly failed) by the disk server's bounded retry. *)

(** {1 Subjects} *)

type subject_result = {
  s_subject : string;
  s_seed : int;
  s_stride : int;
      (** instructions between forced preemptions (0 for the crash
          subjects, whose runs span many machines; likewise
          [s_preemptions], [s_insns] and [s_cycles]) *)
  s_preemptions : int;  (** forced context switches posted *)
  s_injected : int;  (** faults delivered by the plan *)
  s_progress : int;  (** work completed (subject-specific unit) *)
  s_goal : int;  (** progress at which the run is complete *)
  s_violations : string list;  (** empty = all invariants held *)
  s_insns : int;
  s_cycles : int;
  s_trace_hash : int;  (** seed-deterministic interleaving fingerprint *)
  s_postmortem : string option;
      (** flight-recorder dump ({!Synthesis.Kernel.postmortem}) when
          any check failed: open spans name the in-flight requests.  A
          crash subject gives its litmus report instead. *)
  s_blackbox_json : string option;
      (** the black-box ring as Chrome trace JSON, same condition *)
}

type subject

val subject_name : subject -> string

val queue_subject : ?cores:int -> ?items:int -> Synthesis.Kqueue.kind -> subject
(** One boot, one queue of the given kind, 1–3 producers × 1–3
    consumers of machine code, [items] (default 32) per producer.
    [~cores] (default 1) boots an SMP kernel and pins the participants
    round-robin across the cores, so the queue code is entered from
    several cores at once.  Invariants: no loss, no duplication, no
    corruption, per-producer FIFO.  Sabotage is a phantom consume (a
    count bump without an item); the presence check must catch it.
    Named [queue/<kind>]. *)

val ready_queue_subject : subject
(** Counting workers under a seeded storm of host-driven
    stop/start/crash-restart transitions.  Invariants: the patched-jmp
    ring matches the host mirror and closes, the anchor stays queued,
    no stopped/blocked/dead thread sits in the ring, and no suspended
    or dead thread keeps the CPU. *)

val kpipe_subject : subject
(** A writer streams known words through a small pipe and closes; the
    reader drains and must see a clean EOF.  Invariants: destination
    equals source exactly, counts match, EOF exactly once and never
    early. *)

val disk_subject : subject
(** A burst of reads of seeded blocks while spurious disk interrupts
    and a stalled and a dropped completion land on top.  Invariants:
    completion-exactly-once with the right data at the moment of
    completion, no starvation or spurious failure, SCAN service
    order. *)

val smp_subject : ?cores:int -> unit -> subject
(** kSMP: a seed-picked queue kind with producers/consumers pinned
    round-robin across [cores] (default: 2–4 picked by seed, clamped
    to \[2, [Machine.max_cores]\]), a spinning filler thread and a
    work-stealer device per core, under core-clock skews, forced
    steals and migrations, cross-core preemptions, and core-targeted
    spurious interrupts.  Invariants: every per-core ready ring closes
    and matches the mirror, each core's current thread is homed there
    and alive, idle threads stay pinned, and the queue ledger is exact
    across cores.  Sabotage migrates another core's running thread
    with the dispatch guard skipped ({!Synthesis.Smp.unsafe_skip_guard});
    the current-consistency check must catch it. *)

(** {2 kcrash: the crash-point explorer} *)

type crash_family =
  | Create_rename
      (** write new content to a temp file and rename over the old:
          the renamed file must be exactly old or new — never
          zero-length, never garbage *)
  | Prefix_append
      (** append twice: the old prefix stays intact and the length
          never runs ahead of the data *)
  | Replace
      (** overwrite a multi-block file with same-length different
          content: readers see exactly old or new, never a torn mix *)

val crash_families : crash_family list

val crash_subject : crash_family -> subject
(** Record the workload's platter-write journal on a journaling
    device, enumerate every legal crash state (journal prefixes plus a
    seeded prefix-torn variant of each next write — exactly the
    completion subsets the one-request-deep elevator permits), reboot
    each into a fresh machine through {!Synthesis.Boot.at_boot}
    recovery, and run the family's litmus predicate; ends with a
    device-level {!Quamachine.Fault_inject.Power_cut} run mid-workload.
    [s_progress]/[s_goal] count crash states explored/enumerated;
    [s_injected] counts torn variants plus the live cut.  With all
    mechanisms on, the run also fails if no torn variant was explored,
    the live cut never fired, or the intent log never replayed.
    Sabotage disables the family's load-bearing mechanism (barriers
    for create-rename and prefix-append, the intent log for replace);
    the litmus predicate must then fail.  [~faults] is ignored: the
    crash states are the faults.  Named [crash/<family>]. *)

(** {2 The whole set} *)

val subjects : subject list
(** Every subject: [queue/spsc], [queue/mpsc], [queue/spmc],
    [queue/mpmc], the kernel subjects ([ready-queue], [kpipe], [disk],
    the kheal code-flip storm [codeflip], the ksynth shared-page storm
    [synthcache], [smp], and the kserve stack [serve]), then
    [crash/create-rename], [crash/prefix-append], [crash/replace]. *)

val run_subject :
  ?faults:bool -> ?sabotage:bool -> subject -> seed:int -> unit -> subject_result
(** Run one subject.  [~faults:false] runs the pure interleaving sweep
    with no injected faults; [~sabotage:true] deliberately corrupts
    subject state mid-run — used by the negative tests to prove the
    invariants bite (the result must report at least one
    violation). *)

(** {1 Targeted recovery scenarios} *)

type timer_loss_result = {
  tl_seed : int;
  tl_drop_cycle : int;  (** when the quantum-timer completion was lost *)
  tl_stall_cycles : int;  (** flow outage observed around the drop *)
  tl_recovery_cycles : int;  (** drop → first consumed item after it *)
  tl_restarts : int;  (** watchdog restart actions taken *)
  tl_consumed : int;
}

val timer_loss : ?seed:int -> unit -> timer_loss_result
(** Drop a quantum-timer completion under spinning threads (the
    lost-interrupt livelock); the watchdog re-arms the timer and the
    measured recovery latency is returned. *)

type disk_fault_mode = Disk_stall | Disk_drop | Disk_bad_block

type disk_fault_result = {
  df_mode : disk_fault_mode;
  df_completed : bool;  (** the read finally returned data *)
  df_tries : int;  (** issues of the request (1 = no retry) *)
  df_timeouts : int;
  df_retries : int;
  df_failed : int;
  df_recovery_cycles : int;  (** first issue → completion, when retried *)
}

val disk_fault : ?seed:int -> mode:disk_fault_mode -> unit -> disk_fault_result
(** Stall, drop, or permanently fail a disk completion; the disk
    server's watchdog retries with backoff or gives up after
    [max_tries], never wedging the waiter. *)
