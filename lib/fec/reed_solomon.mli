(** Systematic Reed–Solomon codes over GF(256).

    RS(n, k) appends [n - k] parity bytes to [k] data bytes and corrects
    up to [t = (n - k) / 2] byte errors anywhere in the codeword — the
    byte-oriented burst protection the paper's §2.1 calls for when "a
    simple CODEC will not correct all burst errors". Codewords may be
    shortened: any [k < n <= 255].

    Decoding is the classic chain: syndromes → Berlekamp–Massey error
    locator → Chien search → Forney magnitudes. A pattern with more than
    [t] errors is (with high probability) detected, and its block left
    as received rather than silently mis-decoded; the CRC layer above
    catches the rest. *)

type t

val code : n:int -> k:int -> Code.t
(** Wrap as a generic {!Code.t}: data is chunked into [k]-byte blocks
    (zero-padded), each encoded to [n] bytes. Decoding failures leave the
    damaged block as-is (the CRC above detects it). *)
