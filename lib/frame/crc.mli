(** Cyclic redundancy checks.

    Table-driven CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) for frame
    headers and control frames, and CRC-32 (IEEE 802.3, reflected poly
    0xEDB88320) for I-frame payloads. The paper treats frame loss and
    corruption as detectable errors (assumption 9); these checks are the
    detection mechanism. *)

val crc16 : Bytes.t -> pos:int -> len:int -> int
(** CCITT-FALSE over [len] bytes starting at [pos]. Result in [0, 0xFFFF]. *)

val crc32_int : Bytes.t -> pos:int -> len:int -> int
(** IEEE CRC-32 (reflected, init/xorout 0xFFFFFFFF) over the slice,
    carried in a native [int] so per-frame hot paths allocate nothing.
    Result in [[0, 0xFFFFFFFF]]. *)
