(** The kserve load generator: seeded open-loop session arrivals
    (Poisson, with every 8th arrival instant starting 1 + 4 sessions)
    over closed-loop sessions, each replaying an
    open / read / write / close request stream against the NIC.

    Runs as a machine device scheduled at event deadlines; responses
    arrive through the NIC's tx sink.  Deterministic per (seed,
    config).  Every send/receive is double-entry bookkeeping: a
    response matching no in-flight request counts as a {!duplicates},
    a session ending with a request outstanding shows up in
    {!in_flight} — the exactly-once ledger the fault-injection
    subject asserts over. *)

open Synthesis

type config = {
  lg_clients : int;  (** sessions to run *)
  lg_reqs_per_session : int;  (** data requests between open and close *)
  lg_rate_per_ms : float;  (** mean session arrivals per simulated ms *)
  lg_think_us : float;  (** mean gap between response and next request *)
  lg_write_1_in : int;  (** writes are 1-in-n of data requests; 0 = off *)
  lg_conn_ids : int;  (** connection-id pool (concurrency ceiling) *)
  lg_timeout_us : float;  (** resend after this long in flight; 0 = off *)
  lg_retries : int;  (** resends before the session is abandoned *)
  lg_seed : int;
}

val default_config : config

type t

(** Plan the arrival process, hook the NIC's tx sink, and register the
    generator device.  [on_complete] fires once, when the last session
    finishes (e.g. [fun () -> Kserve.shutdown srv]). *)
val create : ?config:config -> ?on_complete:(unit -> unit) -> Kserve.t -> t

(** All sessions done (arrived, served or refused, closed). *)
val finished : t -> bool

(** Request round trips, in cycles, across open/data/close, each timed
    from the request's first send (resends included). *)
val latency : t -> Histogram.t

val sent : t -> int
val received : t -> int
val completed : t -> int
val refused : t -> int

(** Responses that matched no in-flight request — 0 unless frames are
    duplicated or forged. *)
val duplicates : t -> int

(** [op_err] responses to in-flight requests. *)
val errors : t -> int

(** Requests resent after a timeout (shed by admission control). *)
val resent : t -> int

(** Sessions given up after exhausting retries. *)
val abandoned : t -> int

(** Requests sent whose responses have not arrived. *)
val in_flight : t -> int

val elapsed_cycles : t -> int
