(** HDLC baseline parameters.

    The paper's comparison target is SR-HDLC: selective reject, cumulative
    RR acknowledgement, P/F-bit checkpointing and timeout recovery with
    [t_out = R + alpha] (§4). GBN-HDLC (REJ) is provided for context —
    the protocol the paper notes is "often preferred despite its inferior
    performance" (§2).

    Classic HDLC reuses a frame's sequence number on retransmission, so
    numbers live in a cyclic space of [2^seq_bits] and the selective-repeat
    window must satisfy [window <= 2^(seq_bits-1)]. *)

type mode = Selective_repeat | Go_back_n

type t = {
  mode : mode;
  stutter : bool;
      (** Stutter variants (paper §1, refs [1] and Miller–Lin [3]): when
          the window is exhausted (or no new frames wait) the sender
          spends the otherwise idle line cyclically re-sending
          unacknowledged frames. [Go_back_n] + stutter is Stutter-GBN;
          [Selective_repeat] + stutter is SR+ST. *)
  seq_bits : int;  (** modulus is [2^seq_bits]; 3 or 7 in real HDLC *)
  window : int;  (** send window W; [<= 2^(seq_bits-1)] for SR *)
  t_out : float;  (** retransmission timeout, seconds; paper: [R + alpha] *)
  send_buffer_capacity : int;
  guard : Dlc.Guard.config option;
      (** when set, a {!Dlc.Guard} feedback-plausibility layer is
          interposed between the reverse link and the sender, hardening
          it against forged supervisory frames; [None] (the default)
          trusts the reverse channel. *)
}

val default : t
(** SR, no stutter, [seq_bits] = 7, [window] = 63, 50 ms timeout. *)

val validate : t -> (t, string) result

val modulus : t -> int
