(** Protocol-agnostic face of a DLC session.

    Both LAMS-DLC and the HDLC baselines expose their running sessions as
    this record so that experiments, the network stack and the examples
    can drive either protocol through one interface. *)

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
