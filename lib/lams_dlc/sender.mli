(** LAMS-DLC sender half (paper §3).

    Responsibilities:

    - transmit new I-frames whenever the link is free, paced by the
      flow-control rate factor; buffer control never blocks new frames
      (§3.4) — only Stop-Go slows them;
    - assign a {e fresh} sequence number to every transmission, including
      retransmissions (§3.2), keeping the receiver's sequence stream
      strictly increasing;
    - interpret checkpoints: NAKed frames are queued for retransmission
      (only on first notification — a NAK for a sequence number no longer
      outstanding is ignored); outstanding frames whose predicted arrival
      precedes the checkpoint's issue time are {e covered}: released if
      the receiver's [next_expected] has passed them, retransmitted if
      not (tail loss);
    - run the checkpoint timer ([c_depth * w_cp] of silence ⇒ suspected
      link failure) and the enforced-recovery exchange: halt new frames,
      send Request-NAK, await Enforced-NAK on the failure timer, declare
      failure when it expires (§3.2);
    - adapt the rate factor on the Stop-Go bit (§3.4).

    Sequence numbers are internally unbounded integers; the 32-bit wire
    field wraps are immaterial to the simulation and the numbering-size
    experiment instead checks the paper's bound on the {e span} of
    simultaneously outstanding numbers ([outstanding_span_peak]). *)

type t

val create :
  Sim.Engine.t ->
  params:Params.t ->
  forward:Channel.Link.t ->
  metrics:Dlc.Metrics.t ->
  probe:Dlc.Probe.t ->
  t
(** [forward] is the I-frame direction; the sender installs itself as the
    link's idle callback. Feed reverse-direction arrivals to {!on_rx}.
    Buffer-lifecycle and recovery transitions are published on [probe]. *)

val offer : t -> Frame.Payload.t -> bool
(** Accept a payload into the sending buffer; [false] when the buffer is
    at [send_buffer_capacity] or the sender has declared link failure. *)

val on_rx : t -> Channel.Link.rx -> unit
(** Feed an arrival from the reverse link (checkpoints). *)

val backlog : t -> int
(** Frames in the sending buffer: waiting + outstanding + to-retransmit. *)

val outstanding : t -> int
(** Transmitted and not yet resolved. *)

val outstanding_span_peak : t -> int
(** Largest observed [newest - oldest + 1] over outstanding sequence
    numbers — the numbering size actually needed (experiment E12). *)

val rate_factor : t -> float
(** Current Stop-Go pacing factor in (0, 1]. *)

val halted : t -> bool
(** New-frame transmission halted pending enforced recovery. *)

val failed : t -> bool
(** Link declared failed. *)

val set_on_failure : t -> (unit -> unit) -> unit

val next_seq : t -> int
(** Next unused wire number — the sender's exclusive send frontier.
    Ground truth for the {!Dlc.Guard} plausibility checks. *)

val is_outstanding : t -> int -> bool
(** The sequence number is transmitted, unreleased and not yet written
    off for retransmission. Ground truth for {!Dlc.Guard}. *)

val force_resync : t -> unit
(** Order an enforced recovery now (halt, Request-NAK, failure timer) —
    the {!Dlc.Guard} escalation hook. No-op when failed or stopped. *)

val force_failure : t -> unit
(** Declare link failure now — the terminal {!Dlc.Guard} escalation. *)

val note_delivered : t -> int -> unit
(** The receiver delivered the payload travelling under [seq]: add its
    delay since the original offer (retransmissions inherit the offer
    instant) to the [delivery_delay] metric. No-op when [seq] is not
    outstanding. The session layer calls it on every delivery. *)

val stop : t -> unit
(** Stop timers and refuse further work (end of link lifetime). *)

type unresolved = {
  payload : Frame.Payload.t;
  offer_time : float;
  verdict : [ `Not_delivered | `Suspicious ];
      (** [`Not_delivered]: never transmitted, or NAKed/tail-lost —
          certainly absent at the receiver; safe to re-route without
          duplication. [`Suspicious]: transmitted and unresolved when the
          link died — may or may not have arrived; re-routing may
          duplicate, and the destination resequencer deduplicates. *)
}

val drain_unresolved : t -> unresolved list
(** Empty the sending buffer after a link failure (or at end of link
    lifetime) and classify every retained payload, oldest first. This is
    §3.3's bounded inconsistency gap made concrete: because the resolving
    period is bounded, only frames inside it are [`Suspicious]; everything
    else has a definite verdict, so the network layer can re-route with
    zero loss and bounded (deduplicable) duplication. *)

val scramble_send_seq : t -> delta:int -> string option
(** State-corruption injection point ({!Dlc.Corrupt}): jump the next
    wire number forward by [delta] (phantom gap the receiver will NAK).
    Returns a description, or [None] on a failed/stopped sender. *)

val duplicate_buffer_entry : t -> string option
(** State-corruption injection point: re-queue the oldest unreleased
    outstanding payload for an extra (renumbered) transmission, leaving
    the original copy outstanding — a duplicated buffer entry. [None]
    when nothing is outstanding. *)
