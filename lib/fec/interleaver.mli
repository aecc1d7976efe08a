(** Block (row/column) interleaver.

    Paul et al. (paper §2.1) convert the laser link's mispointing burst
    errors into quasi-random errors by interleaving coded bits before
    transmission: a burst of length at most [rows] hits at most one bit
    per deinterleaved codeword block. [interleave] writes bits row-wise
    into a [rows x cols] matrix and reads column-wise; [deinterleave]
    inverts it. Input length must be a multiple of [rows * cols]. *)

type t

val create : rows:int -> cols:int -> t
(** Requires both positive. *)

val rows : t -> int

val cols : t -> int

val block_bits : t -> int
(** [rows * cols]. *)

val pad_to_block : t -> Bitbuf.t -> Bitbuf.t
(** Zero-pad a copy up to the next block boundary. *)

val interleave : t -> Bitbuf.t -> Bitbuf.t
(** Raises [Invalid_argument] unless the length divides into blocks. *)

val deinterleave : t -> Bitbuf.t -> Bitbuf.t
