(** HDLC receiver half.

    Enforces the in-sequence constraint the paper relaxes in LAMS-DLC:

    - SR mode: out-of-order frames inside the receive window are buffered
      (the receiving-buffer cost of §2.3); gaps trigger one SREJ per
      missing frame; in-order delivery drains the buffer and each advance
      is acknowledged with a cumulative RR;
    - GBN mode: out-of-order frames are {e discarded} and a single REJ per
      gap event rolls the sender back;
    - a frame below the window (a retransmission whose acknowledgement
      was lost) is re-acknowledged and dropped as a duplicate;
    - a poll (RR with P) is answered immediately with RR(V(R)). *)

type t

val create :
  Sim.Engine.t ->
  params:Params.t ->
  reverse:Channel.Link.t ->
  metrics:Dlc.Metrics.t ->
  probe:Dlc.Probe.t ->
  t

val on_rx : t -> Channel.Link.rx -> unit
(** Feed an arrival from the forward link. *)

val set_on_deliver : t -> (payload:Frame.Payload.t -> seq:int -> unit) -> unit

val buffered : t -> int
(** Out-of-order frames currently held (SR mode). *)

val stop : t -> unit

val scramble_recv_seq : t -> delta:int -> string option
(** State-corruption injection point ({!Dlc.Corrupt}): shift V(R)
    cyclically by [delta] (magnitude capped below the window size).
    Forward jumps swallow in-flight frames; backward jumps wedge the
    in-order point and end in timeout retry exhaustion. *)

val poison_nak_ledger : t -> seqs:int list -> string option
(** State-corruption injection point: insert phantom entries into the
    SREJ-outstanding set ([seqs] are offsets from V(R)), suppressing
    future SREJs for those numbers until a poll clears them. *)

val truncate_nak_ledger : t -> string option
(** State-corruption injection point: forget every outstanding SREJ,
    allowing duplicate requests. *)
