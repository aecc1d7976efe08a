(** Bit-level transmission path: real serialisation, real FEC, real bit
    flips.

    The event-driven {!Link} treats corruption probabilistically for
    speed. [Coded_path] is the ground-truth counterpart used to validate
    that abstraction and to study FEC choices (paper §2.1–§2.2): a frame
    is encoded by {!Frame.Codec}, protected by an {!Fec.Code}, damaged at
    the exact positions drawn from an {!Error_model}, decoded, and
    classified with the same statuses the event-driven link reports.

    The paper's assumption 4 (I-frames and control frames under different
    FEC schemes) maps to the two codes supplied at creation. *)

type t

type outcome = {
  status : Link.status;
  bit_errors : int;  (** channel errors injected into the coded stream *)
  residual_errors : int;  (** errors left after FEC decoding *)
}

val create :
  rng:Sim.Rng.t ->
  iframe_code:Fec.Code.t ->
  cframe_code:Fec.Code.t ->
  error_model:Error_model.t ->
  t

val transmit : t -> Frame.Wire.t -> outcome * Frame.Wire.t option
(** Push one frame through encode → FEC → channel → FEC⁻¹ → decode.
    Returns the classification plus the decoded frame when the wire
    survived ([Rx_ok] or, for I-frames with readable headers,
    [Rx_payload_corrupt] with the frame reconstructed from the header). *)

val transmit_status : t -> Frame.Wire.t -> Link.status
(** Same channel pass as {!transmit} but classifies via
    {!Frame.Codec.verify_slice} without materialising the decoded frame
    or an outcome record — with an in-place code (e.g.
    [Fec.Code.identity]) the whole pass reuses per-path scratch and
    allocates nothing in steady state. *)

val coded_bits : t -> Frame.Wire.t -> int
(** On-air size of the frame under its class's FEC. *)

val residual_fer :
  t -> Frame.Wire.t -> trials:int -> float
(** Monte-Carlo residual frame error rate: fraction of [trials]
    transmissions of (fresh copies of) the frame that do not decode
    clean. *)
