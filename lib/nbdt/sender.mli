(** NBDT sender.

    Absolute numbering: each payload owns one number for life;
    retransmissions reuse it. A report (frontier + missing list) releases
    every outstanding number below the frontier that is not listed
    missing, and queues the missing ones for retransmission.

    - {b Continuous} mode streams new frames whenever the line is free,
      retransmissions taking priority.
    - {b Multiphase} mode alternates: a batch of [batch_size] new frames,
      then only retransmissions until the batch is fully acknowledged,
      then the next batch.

    A single watchdog on the oldest outstanding frame supplies the
    reliability floor the original protocol lacked (paper §1). *)

type t

val create :
  Sim.Engine.t ->
  params:Params.t ->
  forward:Channel.Link.t ->
  metrics:Dlc.Metrics.t ->
  probe:Dlc.Probe.t ->
  t

val offer : t -> Frame.Payload.t -> bool

val on_rx : t -> Channel.Link.rx -> unit

val backlog : t -> int

val batches_completed : t -> int
(** Multiphase phase count (0 in continuous mode). *)

val next_seq : t -> int
(** Next unused stable number — ground truth for {!Dlc.Guard}. *)

val is_outstanding : t -> int -> bool
(** The number is transmitted and unreleased — ground truth for
    {!Dlc.Guard}. *)

val force_resync : t -> unit
(** {!Dlc.Guard} escalation hook: immediately retransmit every
    outstanding frame and treat the next accepted report as completing
    the recovery. No-op when failed or stopped. *)

val force_failure : t -> unit
(** Declare link failure now — the terminal {!Dlc.Guard} escalation. *)

val note_delivered : t -> int -> unit
(** Add the delay since the original offer of the payload travelling
    under [seq] to the [delivery_delay] metric; no-op when [seq] is not
    in flight. The session layer calls it on every delivery. *)

val stop : t -> unit

val scramble_send_seq : t -> delta:int -> string option
(** State-corruption injection point ({!Dlc.Corrupt}): jump the next
    stable number forward by [delta]; the skipped numbers become
    permanently missing at the receiver and cycle through every report. *)

val duplicate_buffer_entry : t -> string option
(** State-corruption injection point: queue an extra (same-number)
    retransmission of the oldest outstanding frame. [None] when nothing
    is outstanding. *)
