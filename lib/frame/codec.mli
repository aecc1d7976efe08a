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

type scratch
(** A reusable encode buffer. It grows to the largest frame seen and
    never shrinks, so steady-state encoding allocates nothing. Not
    thread-safe; use one per sender. *)

val create_scratch : unit -> scratch
(** 2048 bytes to start with, enough for an I-frame of the paper's 1 kB
    payloads; a longer frame grows it. *)

val encode_scratch_into : scratch -> Wire.t -> int
(** Encode into the scratch and return the encoded length
    ([Wire.size_bytes frame]); allocation-free once the scratch has
    grown to its working size. Read the bytes via {!scratch_buffer}.
    The I-frame payload length and the checkpoint NAK count travel in
    16-bit fields, so neither may exceed 65,535: [Invalid_argument]
    otherwise. *)

val scratch_buffer : scratch -> Bytes.t
(** The scratch's current backing buffer. Invalidated (replaced) by any
    later {!encode_scratch_into} call that needs to grow it, so fetch it
    after encoding, not before. *)

val decode : ?pos:int -> ?len:int -> Bytes.t -> (Wire.t, error) result
(** Inverse of {!encode_scratch_into} on uncorrupted input; classifies
    corrupted input as one of the [error] cases. [?pos]/[?len] (default: the whole
    buffer) select the slice holding the frame, so a frame inside a
    larger buffer decodes without an intermediate copy. Raises
    [Invalid_argument] when the slice is out of bounds. *)

type verdict = V_ok | V_payload_corrupt | V_header_corrupt
(** Classification of a received byte image. [V_payload_corrupt] means
    the I-frame header validated but the payload CRC-32 failed (the
    receiver can still NAK the identified seq); every other failure —
    truncation, unknown tag, header or control CRC mismatch — is
    [V_header_corrupt]: the frame is unidentifiable. *)

val verify_slice : Bytes.t -> pos:int -> len:int -> verdict
(** Allocation-free counterpart of {!decode}: the same structural and
    CRC checks on the slice, without materialising a frame. [V_ok] iff
    [decode] returns [Ok _], [V_payload_corrupt] iff it returns
    [Error (Payload_corrupt _)]. The slice labels are required: a
    dynamic [?len] would box a [Some] per call. Raises
    [Invalid_argument] when the slice is out of bounds. *)
