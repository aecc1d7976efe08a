(** Rate-1/2 convolutional code with hard-decision Viterbi decoding.

    The paper's laser-link codec is built from convolutional codes (Paul
    et al., cited in §2.1); this module is the stand-in. Default
    parameters are the classic NASA/Voyager code: constraint length
    [k = 7], generators 171/133 (octal). The encoder appends [k - 1] zero
    flush bits so the trellis terminates in the all-zero state; the
    decoder exploits that.

    Complexity: encode O(n), decode O(n * 2^(k-1)) with a table-driven
    add-compare-select inner loop (branch metrics precomputed at
    {!create}, path metrics in flat int arrays, survivors bit-packed in
    a flat [Bytes]). All tables are immutable after {!create} and all
    decode state is per-call, so one [t] is safe to share across
    domains. *)

type t

val default : t

val encode : t -> Bitbuf.t -> Bitbuf.t
(** Output length is [2 * (input_length + constraint_length - 1)]. *)

val decode : t -> Bitbuf.t -> data_bits:int -> Bitbuf.t
(** Maximum-likelihood (minimum Hamming distance) decode of a possibly
    corrupted code sequence; returns the recovered [data_bits] message
    bits. Raises [Invalid_argument] if the coded length does not equal
    [2 * (data_bits + constraint_length - 1)]. *)

val decode_reference : t -> Bitbuf.t -> data_bits:int -> Bitbuf.t
(** The original expand-all-predecessors Viterbi, kept as the
    differential oracle for {!decode}: same tie-breaking (lowest
    predecessor state wins), so the two agree bit-for-bit on every
    input, including noise beyond the correction radius. Slow — test
    use only. *)

val coded_bits : t -> data_bits:int -> int
