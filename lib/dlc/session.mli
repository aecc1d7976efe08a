(** Protocol-agnostic face of a DLC session, and the one session skeleton
    that LAMS-DLC, NBDT and the HDLC baselines instantiate.

    Every variant exposes its running sessions as the record {!t} so that
    experiments, the network stack and the examples can drive any
    protocol through one interface. {!Make} writes the wiring behind that
    face once: shared metrics and probe, the optional {!Guard}, the
    delivery hook (each delivery reaches the sender's [note_delivered],
    which records its delay), the corruption surface and the
    reverse-link replay ring. *)

type t = {
  name : string;
  offer : Frame.Payload.t -> bool;
      (** Hand a payload to the sender. [false] = refused (sending buffer
          at capacity); the caller may retry later. *)
  set_on_deliver : (payload:Frame.Payload.t -> unit) -> unit;
      (** Register the receiver-side upper-layer callback. The protocol
          may deliver out of order and (after enforced recovery on a
          flaky link) more than once — resequencing and deduplication are
          the destination's job (paper §2.3). *)
  sender_backlog : unit -> int;
      (** Frames currently held in the sending buffer (unreleased). *)
  stop : unit -> unit;
      (** Cease generating new traffic and periodic control frames so the
          event queue can drain. Idempotent. *)
  metrics : Metrics.t;
}

(** What a protocol variant supplies: only what differs between them. *)
module type VARIANT = sig
  type params

  val validate : params -> (params, string) result

  val name : params -> string
  (** The generic face's [name], e.g. ["lams-dlc"] or ["gbn-hdlc+st"]. *)

  val guard : params -> Guard.config option

  val replayable : Frame.Wire.t -> bool
  (** The reverse-link frames the replay ring keeps: the variant's
      feedback frames. *)

  module Sender : sig
    type t

    val create :
      Sim.Engine.t ->
      params:params ->
      forward:Channel.Link.t ->
      metrics:Metrics.t ->
      probe:Probe.t ->
      t

    val offer : t -> Frame.Payload.t -> bool
    val on_rx : t -> Channel.Link.rx -> unit
    val backlog : t -> int
    val force_resync : t -> unit
    val force_failure : t -> unit
    val note_delivered : t -> int -> unit
    val stop : t -> unit
    val scramble_send_seq : t -> delta:int -> string option
    val duplicate_buffer_entry : t -> string option
  end

  module Receiver : sig
    type t

    val create :
      Sim.Engine.t ->
      params:params ->
      reverse:Channel.Link.t ->
      metrics:Metrics.t ->
      probe:Probe.t ->
      t

    val on_rx : t -> Channel.Link.rx -> unit
    val set_on_deliver : t -> (payload:Frame.Payload.t -> seq:int -> unit) -> unit
    val stop : t -> unit
    val scramble_recv_seq : t -> delta:int -> string option
    val poison_nak_ledger : t -> seqs:int list -> string option
    val truncate_nak_ledger : t -> string option
  end

  val feedback : params -> Sender.t -> Guard.feedback_hooks
  (** The guard's ground truth, read from the live sender. *)
end

(** A running association of one variant over a full-duplex link. *)
module type S = sig
  type dlc := t
  type params
  type sender
  type receiver
  type t

  val create :
    ?probe:Probe.t -> Sim.Engine.t -> params:params -> duplex:Channel.Duplex.t -> t
  (** Wires a sender and a receiver onto the two directions of [duplex]
      with one shared {!Metrics.t}. Raises [Invalid_argument] when the
      parameters fail the variant's [validate]. [probe] (fresh when
      omitted) receives the session's semantic events. *)

  val sender : t -> sender
  val receiver : t -> receiver
  val probe : t -> Probe.t

  val guard : t -> Guard.t option
  (** The feedback-plausibility guard, when the params enabled one. *)

  val corrupt_surface : t -> Corrupt.surface
  (** State-corruption injection points into this live session. All
      classes except carryover staleness (a handover-layer notion) are
      supported. [replay_reverse ~copies ~back] re-sends, [copies] times,
      the feedback frame sent [back] positions before the newest one a
      ring of the last 8 holds ([back] is clamped into it); it returns
      [None] when [copies < 1] or nothing was captured yet. *)

  val as_dlc : t -> dlc
  (** The generic face. Its [offer]/[set_on_deliver]/[stop] drive this
      session; delivery delay is recorded automatically. *)
end

module Make (V : VARIANT) :
  S
    with type params = V.params
     and type sender = V.Sender.t
     and type receiver = V.Receiver.t
