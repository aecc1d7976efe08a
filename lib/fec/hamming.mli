(** Hamming(7,4) block code with single-error correction.

    The lightweight FEC used for I-frames in bit-level experiments: each
    4-bit nibble becomes a 7-bit codeword able to correct one bit error.
    Rate 4/7. Input lengths that are not a multiple of 4 bits are
    zero-padded; [decode] needs the original bit length to strip the
    padding. *)

val encode : Bitbuf.t -> Bitbuf.t

val decode : Bitbuf.t -> data_bits:int -> Bitbuf.t
(** [decode coded ~data_bits] corrects up to one error per 7-bit block and
    returns the first [data_bits] data bits. Raises [Invalid_argument] if
    [coded]'s length is not a multiple of 7 or too short for
    [data_bits]. *)

val coded_bits : data_bits:int -> int
(** Coded length for a given data length (after padding to nibbles). *)
