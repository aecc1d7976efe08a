(** Wire serialisation of {!Wire.t} frames.

    [encode] produces the byte layouts documented in {!Wire}; [decode]
    validates structure and checksums. The I-frame header carries its own
    CRC-16 separate from the payload CRC-32: a receiver can then identify
    the sequence number of a frame whose payload is corrupted — the
    mechanism that lets the LAMS-DLC receiver NAK a specific frame. The
    decoder reports this as [Payload_corrupt { seq }].

    Integers are big-endian. Floats travel as their IEEE-754 bit
    patterns.

    Per-frame hot paths can avoid the allocation in [encode] by writing
    into a caller-owned buffer ([encode_into]) or a reusable
    [scratch] buffer, and by decoding straight from a slice
    ([decode ~pos ~len]) instead of an exact-size copy. *)

type error =
  | Truncated  (** fewer bytes than the layout requires *)
  | Unknown_tag of int
  | Header_corrupt  (** header CRC mismatch: frame unidentifiable *)
  | Payload_corrupt of { seq : int }
      (** I-frame header valid but payload CRC-32 failed *)
  | Control_corrupt  (** control-frame CRC mismatch *)

val error_to_string : error -> string

val encode : Wire.t -> Bytes.t
(** Exact size [Wire.size_bytes]; freshly allocated. Raises like
    {!encode_into}. *)

val encode_into : Wire.t -> Bytes.t -> pos:int -> int
(** [encode_into frame b ~pos] writes the frame layout at [pos] and
    returns the number of bytes written ([Wire.size_bytes frame]).
    The I-frame payload length and the checkpoint NAK count travel in
    16-bit fields, so neither may exceed 65,535. Raises
    [Invalid_argument], writing nothing, when either does or when the
    buffer is too small. *)

type scratch
(** A reusable encode buffer. It grows to the largest frame seen and
    never shrinks, so steady-state encoding allocates nothing. Not
    thread-safe; use one per sender. *)

val create_scratch : ?capacity:int -> unit -> scratch
(** Default capacity 2048 bytes — enough for a max-payload I-frame. *)

val encode_scratch : scratch -> Wire.t -> Bytes.t * int
(** [encode_scratch s frame] is [(buf, len)]: the frame occupies
    [buf[0..len)]. The buffer is owned by [s] and overwritten by the next
    call; decode or copy it before re-using [s]. *)

val encode_scratch_into : scratch -> Wire.t -> int
(** Like {!encode_scratch} but returns only the encoded length — the
    truly zero-allocation variant (no result pair) once the scratch has
    grown to its working size. Read the bytes via {!scratch_buffer}. *)

val scratch_buffer : scratch -> Bytes.t
(** The scratch's current backing buffer. Invalidated (replaced) by any
    later [encode_scratch*] call that needs to grow it, so fetch it
    after encoding, not before. *)

val decode : ?pos:int -> ?len:int -> Bytes.t -> (Wire.t, error) result
(** Inverse of [encode] on uncorrupted input; classifies corrupted input
    as one of the [error] cases. [?pos]/[?len] (default: the whole
    buffer) select the slice holding the frame, so a frame inside a
    larger buffer decodes without an intermediate copy. Raises
    [Invalid_argument] when the slice is out of bounds. *)

type verdict = V_ok | V_payload_corrupt | V_header_corrupt
(** Classification of a received byte image. [V_payload_corrupt] means
    the I-frame header validated but the payload CRC-32 failed (the
    receiver can still NAK the identified seq); every other failure —
    truncation, unknown tag, header or control CRC mismatch — is
    [V_header_corrupt]: the frame is unidentifiable. *)

val verify : ?pos:int -> ?len:int -> Bytes.t -> verdict
(** Allocation-free counterpart of {!decode}: runs exactly the same
    structural and CRC checks but only classifies the slice, without
    materialising a frame. [verify b = V_ok] iff [decode b = Ok _], and
    [V_payload_corrupt] iff [decode b = Error (Payload_corrupt _)].
    For bit-level sweeps that only need the status.
    Raises [Invalid_argument] when the slice is out of bounds. *)

val verify_slice : Bytes.t -> pos:int -> len:int -> verdict
(** {!verify} with required slice labels: a dynamic [?len] argument
    would box a [Some] per call, so per-frame loops use this entry
    point. *)

val flip_bit : Bytes.t -> int -> unit
(** [flip_bit b i] flips the [i]-th bit (0-based, MSB-first within each
    byte) in place. Used by bit-level channel simulation and tests. *)
