(** Flight recorder: bounded ring buffer of trace events per session.

    A recorder subscribes to a session's {!Dlc.Probe} bus, to the fault
    scripts on its links and to its {!Oracle}, keeps the last 512
    events in a ring, and accumulates {!Metrics} over the whole stream.
    When the oracle reports its {e first} violation the ring is frozen
    into a {e flight dump} — the violation record itself is appended
    first, so the dump's final line names the invariant that broke and
    the lines before it show what the protocol was doing on the way in.

    An optional sink sees every event as it is recorded, for full-stream
    JSONL capture; the ring exists so that violation forensics stay
    cheap even when no full trace was requested.

    The ring is kept as flat columns (tag, sequence number, payload,
    time, and one column for the rare kinds), filled from the probe's
    typed handlers. An {!Event.t} is built, and a fault's frame
    formatted, only for the sink or a flight freeze. *)

type t

val create : ?name:string -> unit -> t
(** [name] is ignored: nothing reads it. It stays until perfbench,
    which still passes it, drops it. *)

val set_sink : t -> (Event.t -> unit) -> unit
(** Called synchronously for every recorded event, after it enters the
    ring. One sink; later calls replace. *)

val attach_probe : t -> Dlc.Probe.t -> unit
(** Record every semantic event. Subscribe the recorder {e before}
    attaching an oracle to the same probe so that an event and the
    violation it triggers land in causal order. *)

val attach_fault : t -> link:string -> Channel.Fault.t -> unit
(** Record this script's hits, tagged with [link] (["forward"] /
    ["reverse"]). Uses {!Channel.Fault.set_observer}. *)

val attach_oracle : t -> Oracle.t -> unit
(** Record every violation and freeze the flight dump at the first one.
    Uses {!Oracle.set_on_violation}. *)

val events_recorded : t -> int
(** Total events since creation (not bounded by the ring). *)

val flight : t -> Event.t list option
(** The frozen snapshot: ring contents at the instant of the first
    violation, ending with that violation's record. [None] while no
    violation has been seen. *)

val flight_jsonl : t -> string option
(** {!flight} as newline-terminated JSONL. *)

val metrics : t -> Metrics.t
