(** The union of all frames that cross a link, and their wire sizes.

    [overhead] figures follow the frame layouts implemented in {!Codec}:
    every frame starts with a 1-byte type tag; I-frames add a 4-byte
    sequence number, a 2-byte length, a 2-byte header CRC-16 and a 4-byte
    payload CRC-32; LAMS control frames add fixed fields plus 4 bytes per
    NAK entry and a CRC-16; HDLC supervisory frames are fixed-size.

    Sizing lives here (not in the codec) because the channel layer needs
    frame lengths to compute transmission time and error probability even
    when running in the fast, non-serialising mode. *)

type t =
  | Data of Iframe.t
  | Control of Cframe.t
  | Hdlc_control of Hframe.t

val iframe_overhead_bytes : int
(** Bytes added to the payload by the I-frame layout. *)

val cframe_base_bytes : int
(** Bytes of a LAMS checkpoint with an empty NAK list. *)

val hframe_bytes : int

val size_bytes : t -> int
(** Exact on-the-wire size as produced by {!Codec.encode}. *)

val size_bits : t -> int

val is_control : t -> bool
(** LAMS C-frames and HDLC supervisory frames; these travel under the
    stronger FEC (paper §2.2 assumption 4). *)

val pp : Format.formatter -> t -> unit
