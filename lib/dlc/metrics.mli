(** Per-session protocol measurements.

    One [Metrics.t] is shared by a protocol's sender and receiver halves.
    Counters are incremented by the protocol implementations; the
    [Stats.Online] accumulators collect the distributions the paper's
    analysis predicts (holding time, delivery delay, buffer occupancy). *)

type t = {
  mutable offered : int;  (** payloads handed to the sender by the user *)
  mutable refused : int;  (** offers rejected (sending buffer full) *)
  mutable iframes_sent : int;  (** first transmissions *)
  mutable retransmissions : int;
  mutable control_sent : int;  (** checkpoints / RR / REJ / SREJ / req-NAK *)
  mutable naks_sent : int;  (** control frames carrying retransmit requests *)
  mutable delivered : int;  (** payloads passed up at the receiver *)
  mutable duplicates : int;  (** payloads delivered more than once *)
  mutable duplicate_arrivals : int;
      (** duplicate frames detected and dropped before delivery (HDLC
          below-window retransmissions after a lost acknowledgement) *)
  mutable payload_bytes_delivered : int;
  mutable released : int;  (** frames freed from the sending buffer *)
  mutable failures_detected : int;  (** link-failure declarations *)
  mutable enforced_recoveries : int;
  holding_time : Stats.Online.t;
      (** sending-buffer residency of each released frame, seconds *)
  delivery_delay : Stats.Online.t;  (** offer-to-first-delivery, seconds *)
  send_buffer : Stats.Online.t;  (** occupancy sampled at each change *)
  recv_buffer : Stats.Online.t;
  mutable send_buffer_peak : int;
  mutable recv_buffer_peak : int;
  span : float array;
      (** first offer and last delivery instants; read and write them
          through the accessors below *)
}

val create : unit -> t

val first_offer_time : t -> float
(** Instant of the first offer; [nan] until one is made. *)

val set_first_offer_time : t -> float -> unit

val set_last_delivery_time : t -> float -> unit

val sample_send_buffer : t -> int -> unit
(** Record occupancy and maintain the peak. *)

val sample_recv_buffer : t -> int -> unit

val unique_delivered : t -> int
(** [delivered - duplicates]. *)

val loss : t -> int
(** Offered-but-never-delivered payloads: [offered - refused -
    unique_delivered]. Only meaningful after a run has drained. *)

val throughput_efficiency : t -> iframe_time:float -> float
(** Paper §4: [N / D(N)] normalised by the frame transmission time, i.e.
    fraction of the elapsed span (first offer to last delivery) spent
    delivering unique payloads. 1.0 = the link did nothing but deliver
    new frames. *)

val elapsed : t -> float
(** Span from first offer to last delivery, seconds. *)

val pp : Format.formatter -> t -> unit
