(** First-class error-correcting codes and their composition.

    A value of type [t] bundles an encoder/decoder pair with its sizing
    function so channels and experiments can be parameterised over the
    code in use (paper §2.2 assumption 4: I-frames and control frames use
    different FEC schemes). *)

type t = {
  name : string;
  encode : Bitbuf.t -> Bitbuf.t;
  decode : Bitbuf.t -> data_bits:int -> Bitbuf.t;
  coded_bits : data_bits:int -> int;
  encode_into : (Bitbuf.t -> Bitbuf.t -> unit) option;
      (** Allocation-free variant writing into a caller-owned scratch
          buffer: [f src dst] leaves the codeword of [src] in [dst].
          [None] when the code has no in-place path; callers fall back
          to [encode]. *)
  decode_into : (Bitbuf.t -> data_bits:int -> Bitbuf.t -> unit) option;
      (** In-place counterpart of [decode]: [f coded ~data_bits dst]
          leaves the [data_bits] decoded bits in [dst]. *)
}

val identity : t
(** No coding: transparent pass-through (rate 1). *)

val hamming74 : t

val conv_default : t
(** The k=7, 171/133 code. *)

val with_interleaver : Interleaver.t -> t -> t
(** [with_interleaver il c] encodes with [c] then interleaves (padding to
    the interleaver block); decoding deinterleaves then decodes with [c].
    The composite name is ["<c>+il<rows>x<cols>"]. *)

val rate : t -> data_bits:int -> float
(** Effective code rate [data_bits / coded_bits] at a given size. *)
