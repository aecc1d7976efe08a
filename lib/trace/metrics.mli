(** Per-run counters and timing distributions derived from the trace
    stream.

    Everything here is computed incrementally from {!Event.t} values, so
    the same numbers come out whether the metrics were accumulated live
    (recorder attached to a running session) or replayed from a JSONL
    file ([trace summary]). Distributions use {!Stats.Histogram}:

    - {b holding time}: release instant minus the last transmission of
      the released wire number — the sending-buffer occupancy the paper
      bounds with the resolving period;
    - {b NAK latency}: requeue instant minus the first checkpoint that
      advertised the wire number — how long a NAK takes to turn into a
      retransmission decision;
    - {b checkpoint occupancy}: NAK count carried per emitted
      checkpoint / status report / supervisory frame. *)

type t

val create : unit -> t

val observe : t -> Event.t -> unit

(** {2 Typed entry points}

    What {!observe} does for one event, without the event value. The
    event's time is element 0 of [at], read unboxed. {!Recorder} calls
    these from its typed probe handlers. *)

val count_tag : t -> int -> unit
(** An event of this {!Event.tag} that feeds no distribution. *)

val tx : t -> at:float array -> seq:int -> retx:bool -> unit

val released : t -> at:float array -> seq:int -> unit

val requeued : t -> at:float array -> seq:int -> unit

val cp_emitted : t -> at:float array -> naks:int array -> unit

val to_json : t -> Bench_report.Json.t
(** The event total, the per-tag counts and each histogram's summary
    and nonempty bins. *)
