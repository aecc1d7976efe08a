(** Unidirectional point-to-point link.

    Models the three physical effects the protocols care about:

    - {b serialisation}: the transmitter emits one frame at a time at
      [data_rate_bps]; frames queue FIFO behind it;
    - {b propagation}: a frame departs at the end of serialisation and
      arrives one light-time later. A fixed link's light time is one
      float, computed at creation; a moving link's comes from a
      time-varying distance function, which the orbit library supplies
      for moving satellites;
    - {b errors}: an {!Error_model} decides each frame's fate. I-frames
      and control frames use separate models because control frames are
      protected by a stronger FEC (paper §2.2 assumption 4).

    Arrival order is forced to be FIFO even if the distance function
    shrinks quickly (relative satellite speeds are far below c, so
    physical overtaking cannot happen; the clamp guards against
    pathological test inputs).

    The link can be taken down ([set_down]) to model tracking loss or
    retargeting: frames in flight or sent while down are lost. *)

type status =
  | Rx_ok
  | Rx_payload_corrupt  (** header readable: receiver knows the seqnum *)
  | Rx_header_corrupt  (** unidentifiable arrival *)

type rx = { frame : Frame.Wire.t; status : status }

type stats = {
  mutable frames_sent : int;
  mutable bits_sent : int;
  mutable frames_delivered : int;
  mutable frames_corrupted : int;
  mutable frames_lost : int;
}

type t

(** The distance between the two ends, in metres. *)
type distance =
  | Fixed of float
  | Moving of (float -> float)  (** simulated time to metres *)

val create :
  Sim.Engine.t ->
  rng:Sim.Rng.t ->
  distance:distance ->
  data_rate_bps:float ->
  iframe_error:Error_model.t ->
  cframe_error:Error_model.t ->
  t
(** Requires a positive data rate and nonnegative distances: a negative
    fixed distance fails here, a moving one when it is read. *)

val speed_of_light : float

val set_receiver : t -> (rx -> unit) -> unit
(** Install the arrival callback. Frames delivered before a receiver is
    installed are dropped (counted as lost). *)

type tap_event =
  | Tap_tx of Frame.Wire.t  (** serialisation started *)
  | Tap_rx of rx  (** arrived (possibly corrupted) *)
  | Tap_lost of Frame.Wire.t  (** vanished: outage or channel loss *)

val add_tap : t -> (tap_event -> unit) -> unit
(** Passive observation of everything the link does, for tracing and
    debugging; does not affect delivery. Taps are never replaced: all
    installed taps fire in installation order, so a tracer, a fate
    recorder and an invariant oracle can observe the same link. *)

type fault_decision =
  | Pass  (** leave the frame to the stochastic error model *)
  | Drop  (** frame vanishes without trace *)
  | Corrupt_payload
      (** payload CRC failure: the receiver can still identify the frame.
          On all-header control frames this degrades to header corruption
          (any damage makes them undecodable). *)
  | Corrupt_header  (** unidentifiable arrival *)
  | Replace of Frame.Wire.t
      (** Byzantine substitution: the original frame vanishes and the
          given forgery is delivered in its place with a {e clean}
          status — the receiver cannot tell it from honest traffic.
          Used by {!Fault} lie actions (forged ACKs, rewritten or
          replayed checkpoints). *)

val set_fault : t -> (now:float -> Frame.Wire.t -> fault_decision) -> unit
(** Install a deterministic fault injector, consulted once per frame at
    arrival time {e before} the stochastic error model; any decision
    other than [Pass] overrides the model for that frame. Used by
    {!Fault} to script reproducible loss/corruption schedules. *)

val send : t -> Frame.Wire.t -> unit
(** Enqueue for transmission. Starts serialising immediately when the
    transmitter is idle. *)

val busy : t -> bool
(** Is the transmitter serialising (or holding a queue)? *)

val queue_length : t -> int
(** Frames waiting behind the one being serialised. *)

val set_on_idle : t -> (unit -> unit) -> unit
(** Called whenever the transmit queue drains completely. *)

val tx_time : t -> Frame.Wire.t -> float
(** Serialisation time of a frame at this link's rate. *)

val propagation_delay : t -> at:float -> float
(** One-way light time at simulated time [at]. *)

val is_up : t -> bool

val set_down : t -> unit
(** Take the link down; in-flight frames are lost on arrival. *)

val set_up : t -> unit

val stats : t -> stats
